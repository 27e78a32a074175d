"""One membership rule at every point scale.

A point is in a half-space or a polyhedron within ``tol`` when every unit
slack ``<u_i, x> - o_i`` is at most ``tol`` plus the rounding allowance
``linalg._feas_tol(s._scale, ||x||)`` that the polyhedron projection grants
its own output (``sets._active``).  The allowance grows with the point, as
the rounding of a slack does, so scaling a whole problem by ``s`` changes
no stop and no step count: the paper's step bound depends on an angle and
a ratio of distances only.  An absolute tolerance refused the far runs
below with ``PointNotInSet`` or stopped them on ``GapStalled``.
"""

import math

import numpy as np
import pytest

import altproj.engine as engine
from altproj import EpigraphSet, HalfSpace, PointNotInSet, Polyhedron, StopReason, check_certificate, run
from altproj.instances import random_pair_instance
from altproj.sets import ACTIVE_TOL, _active


def reported(trace):
    """Stop, steps and whether the certificate holds."""
    cert = trace.certificate
    return trace.stop_reason, trace.steps_to_converge, None if cert is None else cert.holds


def test_the_point_scale_run_certifies_at_every_scale():
    # The point-scale run of the roadmap: a half-plane at -t and a wedge,
    # from (20 t, -t).  An absolute 1e-8 refused t = 1e9 and 1e11 ... 1e16,
    # where a half-space projection lands an ulp of t outside its set.
    for k in range(6, 17):
        t = 10.0**k
        trace = run(HalfSpace([0, 1], -t), Polyhedron([[0.01, -1], [-1, 0]], [0, 0]), [20 * t, -t], max_iters=5000)
        assert reported(trace) == (StopReason.CERTIFIED, 3647, True), t


def test_scaled_pairs_keep_their_stop_and_steps():
    # 100 half-space/polyhedron pairs, each rewritten as (c, s M), (A, s b)
    # and s x0: the same pair, s times as large.  An absolute tolerance
    # changed 69 of them at s = 1e9 and again at 1e12 (PointNotInSet,
    # GapStalled or another step count).
    rng = np.random.default_rng(5)
    for _ in range(100):
        pair = random_pair_instance(rng)
        h, P = pair.halfspace, pair.poly
        expected = reported(run(h, P, pair.x0, max_iters=20000))
        for s in (1e3, 1e6, 1e9, 1e12):
            scaled = run(HalfSpace(h.c, s * h.M), Polyhedron(P.A, s * P.b), s * pair.x0, max_iters=20000)
            assert reported(scaled) == expected, s


def test_far_abs_runs_certify():
    # Half-plane/abs runs from points 1e8 to 1e15 away take the planar path
    # and its float screen.  An absolute tolerance refused 62 of the 80 with
    # PointNotInSet (3, 19, 20 and 20 by exponent).
    rng = np.random.default_rng(3)
    for e in (8, 10, 12, 14):
        for _ in range(20):
            s0, s1 = rng.normal(size=2)
            x = 10.0**e * rng.uniform(1, 10)
            A = HalfSpace([0, 1], s1 - 1)
            x0 = (x, s1 - 1 - x * rng.uniform(0, 1))
            trace = run(A, EpigraphSet("abs", [s0, s1]), x0, max_iters=2000)
            assert trace.stop_reason is StopReason.CERTIFIED and trace.certificate.holds, (e, x0)


@pytest.mark.parametrize("c, M", [([0.0, 1.0], 0.0), ([3.0, 4.0], 2.0)])
def test_the_screen_agrees_with_the_arrays_at_the_membership_bound(c, M):
    # Points moved off the boundary along the unit normal u by f times the
    # membership bound ACTIVE_TOL + 1e-13 (1 + |o| + r), for f from 0.9 to
    # 1.1, at norms r = 1, 1e3 and 1e6: the float screen either cannot
    # tell (None) or marks what sets._active marks.  A screen that tests
    # the bare ACTIVE_TOL disagrees near the bound at the larger norms.
    h = HalfSpace(c, M)
    u, o = h._unit, h._offset
    v = np.array([-u[1], u[0]])
    for r in (1.0, 1e3, 1e6):
        boundary = o * u + math.sqrt(r * r - o * o) * v
        for sign in (1.0, -1.0):
            for f in np.linspace(0.9, 1.1, 41):
                x = boundary + sign * f * (ACTIVE_TOL + 1e-13 * (1.0 + abs(o) + r)) * u
                screened = engine._screened_generators(h, *x.tolist())
                if screened is not None:
                    active = _active(h, x, ACTIVE_TOL)
                    assert active is not None and bool(screened) == active, (r, sign, f)


def test_a_common_pair_is_tested_by_the_membership_rule():
    # A pair closer than cert_tol witnesses a common point only when both
    # points pass the one membership rule: a = (0, 2e-8) lies 2e-8 outside
    # {y <= 0}, beyond 1e-8 and its allowance.  A looser common-point
    # tolerance of 1e-6 once certified this pair.
    a, b = [0.0, 2e-8], [0.0, 1.5e-8]
    with pytest.raises(PointNotInSet, match="^first point is not in the first set$"):
        check_certificate(HalfSpace([0, 1], 0), HalfSpace([0, -1], 0), a, b)
    cert = check_certificate(HalfSpace([0, 1], 1e-8), HalfSpace([0, -1], 0), a, b)
    assert cert.holds and cert.residual_A == cert.residual_B == 0.0
