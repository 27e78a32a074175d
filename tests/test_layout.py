"""An answer depends on its input vector's values, not on its memory layout.

``linalg.as_point`` returns every vector it validates C-contiguous, so a
strided or reversed view enters the package as a contiguous copy of its
values; OpenBLAS's ``ddot`` can round a strided vector otherwise than that
copy.  These tests start the solvers from a strided and a reversed-stride
view of each start and compare every answer with that of the contiguous
start bit for bit, each call on a fresh copy of its polyhedron so that no
kept record is shared.
"""

import numpy as np
import pytest

from altproj import (
    LPProblem,
    Polyhedron,
    as_point,
    bound_report,
    engine,
    lp,
    project_polyhedron,
    solve_lp,
)
from altproj.instances import random_lp_instance, random_pair_instance


def layouts(x):
    """Two views with the values of the contiguous ``x``: one strided and
    one with a negative stride."""
    strided = np.repeat(x, 2)[::2]
    reversed_stride = x[::-1].copy()[::-1]
    assert not strided.flags.c_contiguous and reversed_stride.strides[0] < 0
    assert np.array_equal(strided, x) and np.array_equal(reversed_stride, x)
    return strided, reversed_stride


def fresh(poly):
    return Polyhedron(poly.A, poly.b)


def answers(hs, poly, x0, report):
    """The direct run's iterate count and final pair, the shifted solution
    and its ``residual_B``, the projection of ``x0`` and, when ``report``,
    ``bound_report``'s ``d_AB``, ``d_x0_B`` and ``N``, by their bits."""
    trace = engine.run(hs, fresh(poly), x0)
    a, b = trace.final_pair()
    out = solve_lp(LPProblem(hs.c, fresh(poly), hs.M), x0=x0, strategy="shifted")
    projection = project_polyhedron(fresh(poly), x0)
    got = {
        "run": (trace.num_iterates, a.tobytes(), b.tobytes()),
        "shifted": (out.solution.tobytes(), out.certificate.residual_B.hex()),
        "projection": (projection.point.tobytes(), projection.dual.tobytes()),
    }
    if report:
        r = bound_report(fresh(poly), hs, x0)
        got["bound_report"] = (r.d_AB.hex(), r.d_x0_B.hex(), r.N)
    return got


def lp_pool_cases():
    """The 300 LPs of pool seed 1, each from the direct solve's default start."""
    rng = np.random.default_rng(1)
    problems = [random_lp_instance(rng)[0] for _ in range(300)]
    return [(p._halfspace, p.poly, lp._default_start(p.c, p.M)) for p in problems]


def constants_pool_cases():
    """The 200 pairs of the ``constants`` pool at seed 1, from their own ``x0``."""
    rng = np.random.default_rng(1)
    return [(inst.halfspace, inst.poly, inst.x0) for inst in (random_pair_instance(rng) for _ in range(200))]


@pytest.mark.parametrize("pool", ["lp_seed_1", "constants_seed_1"])
def test_a_strided_start_answers_as_its_contiguous_copy(pool):
    report = pool == "constants_seed_1"
    cases = constants_pool_cases() if report else lp_pool_cases()
    differ = []
    for i, (hs, poly, x0) in enumerate(cases):
        expected = answers(hs, poly, x0, report)
        for view in layouts(x0):
            got = answers(hs, poly, view, report)
            differ += [(i, key) for key in expected if got[key] != expected[key]]
    assert differ == []


def test_as_point_returns_a_contiguous_vector():
    # A contiguous float vector comes back as the same object; any other
    # layout or entry type as a new C-contiguous float array.
    x = np.array([1.0, -2.0, 3.5])
    assert as_point(x) is x and as_point(x, 3) is x
    for values in (*layouts(x), x.astype(np.int64)[::2], [1, 2.5], 4.0, np.float64(4.0)):
        p = as_point(values)
        assert p.flags.c_contiguous and p.dtype == np.float64
        assert p.tolist() == np.asarray(values, dtype=float).reshape(-1).tolist()
