"""Cost per call of three private kernels that the benchmark tracer does not wrap.

The walk along a ray (``qp._walk_from``), the face jump of the engine
(``engine._face_jump``) and the triangular solve (``linalg._substitute``)
are called from inside the package, where ``benchmarks/tracer.py`` does not
see them.  This script records every call that one pass over a benchmark
pool makes and replays each call ``REPEATS`` times.  A call costs the
median of its replays; the script prints the median cost over the calls
and their sum, the kernel's share of the pass:

- ``qp._walk_from`` over the ``constants`` pool (``bound_report`` and the
  shifted solve of each pair);
- ``engine._face_jump`` over the ``lp_direct`` pool, split into the calls
  that return a stretch (accepted) and those that return None (refused);
- ``linalg._substitute`` over both pools, by the size k of the triangle.

Run as

    python tests/kernel_cost.py [pool_seed]

from the root of the repository (default pool seed 1, the benchmark's).
BLAS runs on one thread, as in ``benchmarks/run.py``.  pytest does not
collect this file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from altproj import engine, linalg, qp  # noqa: E402
import workloads  # noqa: E402

REPEATS = 7


def recorded(module, name, calls, copy=None):
    """Replace ``module.name`` by a wrapper that appends ``(args, kwargs,
    result)`` of each call to ``calls``; returns the original.  ``copy``
    makes the arguments to keep, for a caller that changes them in place
    later."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        kept = copy(args) if copy else args
        result = original(*args, **kwargs)
        calls.append((kept, kwargs, result))
        return result

    setattr(module, name, wrapper)
    return original


def median_us(func, args, kwargs) -> float:
    """Median microseconds of one call over ``REPEATS`` calls, after one."""
    func(*args, **kwargs)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        func(*args, **kwargs)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def substitute_args(args):
    # The factor's triangle is a view of ``R``, which later steps change.
    T, y, *rest = args
    return (np.copy(T, order="K"), np.copy(y), *rest)


def main(argv: list[str]) -> None:
    pool_seed = int(argv[0]) if argv else 1
    walks, jumps, solves = [], [], []
    # ``_substitute`` is bound in three modules; each call site reads its own.
    binders = (linalg, qp, engine)
    originals = [recorded(module, "_substitute", solves, substitute_args) for module in binders]
    walk = recorded(qp, "_walk_from", walks)
    jump = recorded(engine, "_face_jump", jumps)
    try:
        for case in workloads.build_constants(pool_seed, None):
            workloads.op_constants(case)
        constants_solves = len(solves)
        for case in workloads.build_lp_direct(pool_seed, None):
            workloads.op_lp_direct(case)
    finally:
        for module, original in zip(binders, originals):
            module._substitute = original
        qp._walk_from, engine._face_jump = walk, jump
    substitute = linalg._substitute

    def report(label, costs):
        median, total = statistics.median(costs), sum(costs) / 1e3
        print(f"{label}: {median:.2f} us per call, {total:.2f} ms in all ({len(costs)} calls)")

    print(f"pool seed {pool_seed}; median of {REPEATS} replays per call, then over calls")
    report("qp._walk_from (constants)", [median_us(walk, *call[:2]) for call in walks])
    for label, accepted in (("accepted", True), ("refused", False)):
        costs = [median_us(jump, args, kw) for args, kw, res in jumps if (res is not None) == accepted]
        report(f"engine._face_jump {label} (lp_direct)", costs)
    by_k = defaultdict(list)
    for n, (args, kw, _) in enumerate(solves):
        by_k[len(args[1]), n < constants_solves].append(median_us(substitute, args, kw))
    for k in sorted({k for k, _ in by_k}):
        both = by_k[k, True] + by_k[k, False]
        print(
            f"linalg._substitute k={k}: {statistics.median(both):.2f} us per call, "
            f"{sum(by_k[k, True]) / 1e3:.2f} ms in the constants pass "
            f"({len(by_k[k, True])} calls) and {sum(by_k[k, False]) / 1e3:.2f} ms "
            f"in the lp_direct pass ({len(by_k[k, False])} calls)"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
