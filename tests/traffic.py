"""The statements of ``src/altproj`` that one pass of the benchmark never runs.

For each workload of ``benchmarks/workloads.py`` this script builds the pool
and runs one pass of its operation and its check, each case once, under
``sys.settrace``; the pool is built outside the trace.  It then prints, per
function of the package, every statement that no operation of any of the
four passes ran, as ``module.py:line`` and the statement's first line.  A
function that no operation called is printed as one line.  Module and class
bodies run at import and are not counted.

A statement counts as run when a line event fired on any line of its
header: every line of a simple statement, and the lines of a compound
statement (``if``, ``while``, ``for``, ``with``, ``try``, ``def``) before its
body.  A condition written over several lines reports its event on the line
that is evaluated last, not always on the first.  Docstrings, ``global``
and ``nonlocal`` fire no event and are not counted.

Run as

    python tests/traffic.py [pool_seed]

from the root of the repository (default pool seed 1, the benchmark's).
BLAS runs on one thread, as in ``benchmarks/run.py``.  pytest does not
collect this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ast  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "altproj"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import altproj  # noqa: E402, F401
import workloads  # noqa: E402

SILENT = (ast.Global, ast.Nonlocal)


def header_lines(stmt: ast.stmt) -> range:
    """The lines of ``stmt`` on which its line event can fire."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def is_docstring(stmt: ast.stmt, index: int) -> bool:
    return (
        index == 0
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def statements(path: Path, text: str) -> dict[str, list[ast.stmt]]:
    """``{qualified function name: its own statements}`` for the functions
    of one module, whose source is ``text``; a nested function's statements
    are its own, not its parent's."""
    found: dict[str, list[ast.stmt]] = {}

    def own(name: str, body: list[ast.stmt]) -> None:
        for index, stmt in enumerate(body):
            if is_docstring(stmt, index) or isinstance(stmt, SILENT):
                continue
            found.setdefault(name, []).append(stmt)
            if isinstance(stmt, ast.FunctionDef):
                own(f"{name}.{stmt.name}", stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                scope(f"{name}.{stmt.name}", stmt.body)
            else:
                for field in ("body", "orelse", "finalbody"):
                    own(name, getattr(stmt, field, []))
                for handler in getattr(stmt, "handlers", []):
                    own(name, handler.body)

    def scope(prefix: str, body: list[ast.stmt]) -> None:
        # Module and class bodies: only the functions they define count.
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                own(f"{prefix}.{stmt.name}", stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                scope(f"{prefix}.{stmt.name}", stmt.body)
            else:
                for field in ("body", "orelse", "finalbody"):
                    scope(prefix, getattr(stmt, field, []))

    scope(path.stem, ast.parse(text, str(path)).body)
    return found


def snapshot() -> dict[Path, tuple[list[str], dict[str, list[ast.stmt]]]]:
    """``{module path: (its source lines, its statements)}`` for every module
    of the package, read now.

    Take it when tracing starts: the line events number the lines of the
    code imported then, so :func:`print_unrun` reads this snapshot, and a
    file edited during the run moves none of its statements.
    """
    code = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        code[path] = text.splitlines(), statements(path, text)
    return code


@contextmanager
def tracing():
    """Collect ``(file, line)`` of every line event in the package, in the
    set it yields, while the ``with`` block runs."""
    seen: set[tuple[str, int]] = set()
    package = str(PACKAGE)

    def local(frame, event, _arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, _arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(calls)
    try:
        yield seen
    finally:
        sys.settrace(None)


def print_unrun(seen: set[tuple[str, int]], code) -> None:
    """Print, per function of the package, the statements of ``code`` (a
    :func:`snapshot`) with no line in ``seen``, and their count."""
    unrun = total = 0
    for path, (source, found) in code.items():
        lines = {line for file, line in seen if file == str(path)}
        for function, stmts in found.items():
            missed = [s for s in stmts if not lines.intersection(header_lines(s))]
            total += len(stmts)
            unrun += len(missed)
            if len(missed) == len(stmts):
                print(f"{function}: not called ({len(stmts)} statements)")
            elif missed:
                print(f"{function}:")
                for stmt in missed:
                    print(f"  {path.name}:{stmt.lineno}  {source[stmt.lineno - 1].strip()}")
    print(f"{unrun} of {total} statements in functions not run")


def main(argv: list[str]) -> None:
    pool_seed = int(argv[0]) if argv else 1
    seen: set[tuple[str, int]] = set()
    code = snapshot()
    with tempfile.TemporaryDirectory() as work:
        for name, workload in workloads.WORKLOADS.items():
            cases = workload.build(pool_seed, Path(work) / name)
            with tracing() as lines:
                for case in cases:
                    workload.check(case, workload.op(case))
            seen |= lines
            print(f"{name}: {len(cases)} cases")
    print(f"pool seed {pool_seed}; statements that no operation ran, per function:")
    print_unrun(seen, code)


if __name__ == "__main__":
    main(sys.argv[1:])
