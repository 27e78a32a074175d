"""Cost per call of three private kernels that the benchmark tracer does not wrap, and of alpha.

The walk along a ray (``qp._walk_from``), the face jump of the engine
(``engine._face_jump``) and the triangular solve (``linalg._substitute``)
are called from inside the package, where ``benchmarks/tracer.py`` does not
see them.  This script records every call that one pass over a benchmark
pool makes and replays each call ``REPEATS`` times.  A call costs the
median of its replays; the script prints the median cost over the calls
and their sum, the kernel's share of the pass:

- ``qp._walk_from`` over the ``constants`` pool: ``bound_report``'s walk
  of each pair, which the polyhedron keeps and the shifted solve after it
  reads, so the pass records one walk per pair;
- ``engine._face_jump`` over the ``lp_direct`` pool, split into the calls
  that return a stretch (accepted) and those that return None (refused);
- ``linalg._substitute`` over both pools, by the size k of the triangle.

It prints the walks, cold projections (``qp._project_from`` with no face)
and face builds (``qp._face_of``) per ``constants`` operation on a first
pass over a fresh pool, on a repeat pass over the same polyhedra, and on a
pass that clears each polyhedron's kept walk before its operation: the
share of operations that reuse a walk and the face it ended on.

It also prints the real cycles of one ``lp_direct`` pass by kind: the first
cycle of a run, a face entry (a B-projection on another face than the
cycle before), the second cycle on a face before any jump is tried there,
a cycle on the face after a stretch (its tail) and one after a refused
jump.

And it prints alpha's cost per call over the ``constants`` pool, by the
dimension n of the polyhedron: a one-shot call of the public alpha, which
walks from the origin and reads alpha off the walk's face (the kept walk
cleared before each call), and the cone table's route, which no pool pair
takes: its first call, which builds the cone family and reads it (the
pool build has kept the vertex list, as the benchmark's has), and a call
that reads the kept family.

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

from altproj import certify, engine, linalg, qp  # noqa: E402
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


KINDS = ("first cycle", "face entry", "second cycle on a face", "tail after a stretch", "after a refusal")


def real_cycles_by_kind(pool_seed: int) -> dict[str, int]:
    """The real cycles of one ``lp_direct`` pass, counted by kind.

    Each run's B-projections and jump attempts are read in order by spies
    on ``engine._project_from`` and ``engine._face_jump``.
    """
    events = []
    project_from, face_jump = engine._project_from, engine._face_jump

    def project_spy(poly, x, face):
        res, final = project_from(poly, x, face)
        events.append((res.dual > 0.0).tobytes())
        return res, final

    def jump_spy(*args):
        jump = face_jump(*args)
        events.append(jump is not None)
        return jump

    engine._project_from, engine._face_jump = project_spy, jump_spy
    counts = dict.fromkeys(KINDS, 0)
    try:
        for case in workloads.build_lp_direct(pool_seed, None):
            events.clear()
            workloads.op_lp_direct(case)
            face, jumped = None, None  # the face of the cycle before; its visit's jump
            for event in events:
                if isinstance(event, bool):
                    jumped = event
                    continue
                if face is None:
                    kind = "first cycle"
                elif event != face:
                    kind, jumped = "face entry", None
                elif jumped is None:
                    kind = "second cycle on a face"
                else:
                    kind = "tail after a stretch" if jumped else "after a refusal"
                counts[kind] += 1
                face = event
    finally:
        engine._project_from, engine._face_jump = project_from, face_jump
    return counts


def constants_walks_per_op(pool_seed: int) -> dict[str, tuple[float, float, float]]:
    """Walks, cold projections and face builds per ``constants`` operation, by pass.

    A first pass over a fresh pool, a repeat pass over the same polyhedra,
    and a pass that clears each polyhedron's kept walk before its operation,
    as a process that makes one ``bound_report`` and one shifted solve per
    problem would see it.
    """
    walks, projections, faces = [], [], []
    cases = workloads.build_constants(pool_seed, None)
    counts = {}
    walk_from = recorded(qp, "_walk_from", walks)
    project_from = recorded(qp, "_project_from", projections)
    face_of = recorded(qp, "_face_of", faces)
    try:
        for label, clear in (("first pass", False), ("repeat pass", False), ("walk cleared before each op", True)):
            for calls in (walks, projections, faces):
                calls.clear()
            for case in cases:
                if clear:
                    object.__setattr__(case[0].poly, "_walk", None)
                workloads.op_constants(case)
            cold = sum(args[2] is None for args, _, _ in projections)
            counts[label] = (len(walks) / len(cases), cold / len(cases), len(faces) / len(cases))
    finally:
        qp._walk_from, qp._project_from, qp._face_of = walk_from, project_from, face_of
    return counts


def alpha_cost_by_dim(pool_seed: int) -> dict[int, tuple[list[float], list[float], list[float]]]:
    """Microseconds per alpha call over the ``constants`` pool, by n.

    For each pair, the median over ``REPEATS`` calls of the public alpha,
    each on the polyhedron with its kept walk cleared, the median over
    ``REPEATS`` first calls of the cone table's alpha, each with the table
    cleared, and the median over ``REPEATS`` calls that read the table
    kept.
    """
    costs = defaultdict(lambda: ([], [], []))
    for inst, _ in workloads.build_constants(pool_seed, None):
        B, A = inst.poly, inst.halfspace
        walked, first = [], []
        for _ in range(REPEATS):
            object.__setattr__(B, "_walk", None)
            start = time.perf_counter_ns()
            certify.alpha_polyhedron_halfspace(B, A)
            walked.append(time.perf_counter_ns() - start)
            object.__setattr__(B, "_cones", None)
            start = time.perf_counter_ns()
            certify._table_alpha(B, A)
            first.append(time.perf_counter_ns() - start)
        by_face, built, read = costs[B.dim]
        by_face.append(statistics.median(walked) / 1e3)
        built.append(statistics.median(first) / 1e3)
        read.append(median_us(certify._table_alpha, (B, A), {}))
        object.__setattr__(B, "_cones", None)
    return dict(costs)


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

    for n, (by_face, built, read) in sorted(alpha_cost_by_dim(pool_seed).items()):
        print(
            f"alpha n={n} ({len(built)} pairs): walk and face read {statistics.median(by_face):.1f} us; "
            f"cone table first call {statistics.median(built):.1f} us, "
            f"read of the kept family {statistics.median(read):.1f} us (medians over pairs)"
        )
    for label, (per_op, cold_per_op, faces_per_op) in constants_walks_per_op(pool_seed).items():
        print(
            f"constants {label}: {per_op:.2f} walks, {cold_per_op:.2f} cold projections "
            f"and {faces_per_op:.2f} face builds per op"
        )
    kinds = real_cycles_by_kind(pool_seed)
    print(f"pool seed {pool_seed}; real cycles of the lp_direct pass: {sum(kinds.values())}")
    for kind, count in kinds.items():
        print(f"  {kind}: {count}")
    print(f"median of {REPEATS} replays per call, then over calls")
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
