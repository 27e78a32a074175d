"""The tolerance mutants of ``src/altproj`` that tier-1 does not kill.

Each of the package's 13 named tolerance constants is scaled by 10 and by
0.1, one mutant at a time, in a temporary copy of the repository.  Tier-1
runs on the copy with ``-x``, so it stops at the first failing test, and
with criterion 6b deselected, which fails by design.  A mutant survives
when every test passes.  The script prints one line per mutant as it goes,
with the first failing test of a killed one, and then the survivors.  Its
exit status is 1 when a mutant survives.

Run as

    python tests/mutants.py [NAME ...]

from the root of the repository; names restrict the sweep to those
constants.  The 26 mutants run one after another, each a tier-1 run of its
own, so the sweep takes several minutes.  pytest does not collect this
file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The named tolerance constants, by module of ``src/altproj``.
TOLERANCES = {
    "certify": ("_STRICT_MARGIN", "_CONTAINS_TOL", "_RANK_TOL"),
    "engine": ("GAP_STALL_TOL", "_CERT_TOL", "_RESIDUAL_MARGIN", "_STALL_MARGIN", "_DOT_MARGIN"),
    "linalg": ("ZERO_TOL", "_FEAS_TOL", "_DEP_TOL"),
    "lp": ("_STRICT_TOL",),
    "sets": ("ACTIVE_TOL",),
}
FACTORS = (10.0, 0.1)
DESELECTED = "tests/test_acceptance.py::test_criterion_6b_shifted_parabola_certificate_stays_open"


def mutated(text: str, name: str, factor: float) -> str:
    """``text`` with the one definition ``name = value`` scaled by ``factor``."""
    text, count = re.subn(
        rf"^{name} = ([^#\n]+?)(\s*#.*)?$",
        lambda match: f"{name} = ({match[1]}) * {factor!r}{match[2] or ''}",
        text,
        flags=re.M,
    )
    if count != 1:
        raise SystemExit(f"{name}: {count} definitions, expected one")
    return text


def killed_by(module: str, name: str, factor: float) -> str | None:
    """The first test that fails with ``name`` scaled by ``factor``, or None."""
    with tempfile.TemporaryDirectory(prefix="altproj-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        path = copy / "src" / "altproj" / f"{module}.py"
        path.write_text(mutated(path.read_text(), name, factor))
        command = [sys.executable, "-m", "pytest", "tests", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--deselect", DESELECTED]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, flags=re.M)
    return failed[0] if failed else f"pytest exit status {result.returncode}"


def main(argv: list[str]) -> int:
    wanted = set(argv)
    survivors = []
    for module, names in TOLERANCES.items():
        for name in names:
            if wanted and name not in wanted:
                continue
            for factor in FACTORS:
                label = f"{module}.{name} * {factor}"
                test = killed_by(module, name, factor)
                print(f"{label}: {'survives' if test is None else 'killed by ' + test}", flush=True)
                if test is None:
                    survivors.append(label)
    print("survivors:", ", ".join(survivors) if survivors else "none")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
