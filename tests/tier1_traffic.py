"""The statements of ``src/altproj`` that no tier-1 test runs.

This script runs the tier-1 suite, ``pytest`` on ``tests``, in process
under the ``sys.settrace`` tracer of ``tests/traffic.py`` and then prints,
by that script's statement rule, every statement of the package's
functions that no test ran, per function, as ``module.py:line`` and the
statement's first line.  A function that no test called is printed as one
line.  Code that a test runs in another thread or process is not seen.

Run as

    python tests/tier1_traffic.py [pytest arguments]

from the root of the repository; the arguments replace the default
``tests``.  It takes about twice as long as a plain tier-1 run.  BLAS runs
on one thread, as in ``tests/traffic.py``.  pytest does not collect this
file.
"""

from __future__ import annotations

import sys

import pytest

from traffic import ROOT, print_unrun, tracing


def main(argv: list[str]) -> int:
    with tracing() as seen:
        code = pytest.main([*(argv or [str(ROOT / "tests")]), "-q", "-p", "no:cacheprovider"])
    print("statements that no tier-1 test ran, per function:")
    print_unrun(seen)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
