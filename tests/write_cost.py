"""Cost of rewriting an output file on the filesystem that holds a directory.

``altproj run`` writes its trace CSV and report JSON through
``cli._write_output``, over the old bytes of an existing file, because on
some filesystems (ext4 among them) cutting a non-empty file to zero length,
as ``open(path, "w")`` does, costs far more than writing it.  How much that
saves depends on the filesystem, so this is the first thing to run where a
benchmark pair does not show the gain.  Run as

    python tests/write_cost.py [directory]

which prints the ``/proc/mounts`` line of the filesystem that holds the
directory (default: the current one), then the median microseconds of
rewriting a 122 B file and a 127 KB file there, once by truncation and once
by ``_write_output``, each over ``REPEATS`` rewrites.  The files are made in
a fresh subdirectory, removed at the end.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from altproj.cli import _write_output  # noqa: E402

# A short planar run's report and a long run's trace CSV.
SIZES = {"122 B": 122, "127 KB": 127_000}
REPEATS = 300


def mount_line(directory: Path) -> str:
    """The ``/proc/mounts`` line of the filesystem that holds ``directory``."""
    point = directory.resolve()
    while not os.path.ismount(point):
        point = point.parent
    found = "(not listed in /proc/mounts)"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            # Later lines mount over earlier ones at the same point.
            if line.split()[1].replace("\\040", " ") == str(point):
                found = line.rstrip("\n")
    return found


def by_truncation(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def median_us(directory: Path, text: str) -> tuple[float, float]:
    """Median microseconds of one rewrite by truncation and by ``_write_output``.

    Each way rewrites a file of its own ``REPEATS`` times in a row, as runs
    rewrite their outputs: taking turns with the other way would charge it
    for the journal work that a truncation leaves behind."""
    medians = []
    for write, args in ((by_truncation, ()), (_write_output, ("",))):
        path = directory / f"{write.__name__}.csv"
        write(path, text, *args)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            write(path, text, *args)
            times.append((time.perf_counter_ns() - start) / 1e3)
        if path.read_bytes() != text.encode():
            raise SystemExit(f"{path} does not hold the text last written")
        medians.append(statistics.median(times))
    return medians[0], medians[1]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", default=".", type=Path)
    args = parser.parse_args(argv)
    print(mount_line(args.directory))
    with tempfile.TemporaryDirectory(dir=args.directory) as tmp:
        for label, size in SIZES.items():
            truncated, over = median_us(Path(tmp), "x" * (size - 2) + "\r\n")
            print(f"{label}: truncate {truncated:.1f} us, write over {over:.1f} us")


if __name__ == "__main__":
    main(sys.argv[1:])
