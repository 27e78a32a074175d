"""The per-cycle certificate solve against the from-zero Lawson-Hanson path.

``reference_nnls`` is the Lawson-Hanson loop started from ``lam = 0`` with
no least-squares shortcut, ``reference_generators`` the proximal normal
generators as a list of vectors, and ``reference_certificate`` the
certificate computed from both: the formula ``linalg.nnls`` and
``engine.check_certificate`` must reproduce.  ``linalg.nnls`` no longer runs
Lawson-Hanson: it projects onto the polar cone, and its residuals match the
reference to 1e-12.
"""

import numpy as np
import pytest

from altproj import (
    DimensionMismatch,
    EpigraphSet,
    HalfSpace,
    PointNotInSet,
    Polyhedron,
    ZeroVector,
    check_certificate,
    contains,
    nnls,
    project,
    proximal_normal_generators,
    run,
)
from altproj import linalg
from altproj.instances import (
    absval_epigraph,
    lower_halfplane,
    parabola_epigraph,
    random_lp_instance,
)
from altproj.sets import ACTIVE_TOL
from test_polar_cone import assert_nnls_kkt


def reference_nnls(G, y):
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    m = G.shape[1]
    lam = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    resid = y.copy()
    tol = 1e-11 * max(1.0, float(np.abs(G).max(initial=0.0))) * max(
        1.0, float(np.linalg.norm(y))
    )
    for _ in range(50 * max(m, 1)):
        w = G.T @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            s_sub, *_ = np.linalg.lstsq(G[:, idx], y, rcond=None)
            if np.all(s_sub > 0.0):
                lam = np.zeros(m)
                lam[idx] = s_sub
                break
            s = np.zeros(m)
            s[idx] = s_sub
            mask = passive & (s <= 0.0)
            step = float(np.min(lam[mask] / (lam[mask] - s[mask])))
            lam = lam + step * (s - lam)
            passive &= lam > 1e-12
            lam[~passive] = 0.0
            if not np.any(passive):
                break
        resid = y - G @ lam
    return lam, float(np.linalg.norm(resid))


def reference_generators(s, x, tol=ACTIVE_TOL):
    """Proximal normal generators as a list, one case per set type."""
    if not contains(s, x, tol):
        raise PointNotInSet("point is not in the set within tolerance")
    if isinstance(s, HalfSpace):
        return [s.c.copy()] if abs(float(s.c @ x) - s.M) <= tol else []
    if isinstance(s, Polyhedron):
        residual = np.abs(s.A @ x - s.b)
        return [s.A[i].copy() for i in np.flatnonzero(residual <= tol)]
    z = x - s.shift
    if s.kind == "abs":
        if z[1] > abs(z[0]) + tol:
            return []
        if abs(z[0]) <= tol:
            return [np.array([1.0, -1.0]), np.array([-1.0, -1.0])]
        return [np.array([1.0, -1.0]) if z[0] > 0 else np.array([-1.0, -1.0])]
    if z[1] > z[0] * z[0] + tol:
        return []
    return [np.array([2.0 * z[0], -1.0])]


def reference_cone_distance(v, generators):
    vhat = v / np.linalg.norm(v)
    if not generators:
        return 1.0
    _, rnorm = reference_nnls(np.column_stack(generators), vhat)
    return min(rnorm, 1.0)


def reference_certificate(set_a, set_b, a, b, tol):
    """``(residual_A, residual_B, holds)`` by the generator-list formula."""
    assert contains(set_a, a, 1e-6) and contains(set_b, b, 1e-6)
    if np.linalg.norm(b - a) <= tol:
        return 0.0, 0.0, True
    res_a = reference_cone_distance(b - a, reference_generators(set_a, a))
    res_b = reference_cone_distance(a - b, reference_generators(set_b, b))
    return res_a, res_b, res_a <= tol and res_b <= tol


def _nnls_cases(rng):
    """Seeded ``(G, y)`` pairs: full rank, rank-deficient and duplicate columns,
    with targets inside and outside the cone."""
    for _ in range(400):
        n = int(rng.integers(2, 9))
        shape = rng.integers(3)
        if shape == 0:
            m = int(rng.integers(1, n + 1))
            G = rng.normal(size=(n, m))
        elif shape == 1:
            m = int(rng.integers(n + 1, 2 * n + 3))
            G = rng.normal(size=(n, m))
        else:
            base = rng.normal(size=(n, int(rng.integers(1, n + 1))))
            G = base[:, rng.integers(base.shape[1], size=base.shape[1] + 2)]
        if rng.random() < 0.5:
            # Inside the cone; some coefficients zero half the time.
            lam = rng.random(G.shape[1])
            if rng.random() < 0.5:
                lam[rng.random(G.shape[1]) < 0.5] = 0.0
            y = G @ lam
        else:
            y = rng.normal(size=n)
        yield G, y


def test_nnls_matches_lawson_hanson_from_zero(monkeypatch):
    # Every answer is the polar projection's (it runs the active-set
    # kernel) and must meet the optimality conditions; on dependent columns
    # it can be another optimum than the reference's.  The residual agrees
    # with the reference everywhere.
    projected = []
    working_set = linalg._working_set

    def spy(A, b, feas_tol, W, Q, R, u, z, slack):
        assert slack.tobytes() == (A.dot(z) - b).tobytes()
        projected.append(True)
        return working_set(A, b, feas_tol, W, Q, R, u, z, slack)

    monkeypatch.setattr(linalg, "_working_set", spy)
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(("deficient", "duplicate", "zero_coef", "all_positive", "outside"), 0)
    for G, y in _nnls_cases(rng):
        projected.clear()
        lam, rnorm = nnls(G, y)
        ref_lam, ref_rnorm = reference_nnls(G, y)
        assert lam.shape == (G.shape[1],)
        assert np.all(lam >= 0.0)
        assert rnorm == pytest.approx(float(np.linalg.norm(G @ lam - y)), abs=1e-12)
        assert rnorm == pytest.approx(ref_rnorm, abs=1e-12)
        assert projected
        assert_nnls_kkt(G, y, lam, rnorm)
        seen["all_positive"] += bool(np.all(ref_lam > 0.0))
        seen["deficient"] += np.linalg.matrix_rank(G) < G.shape[1]
        seen["duplicate"] += len({c.tobytes() for c in G.T}) < G.shape[1]
        seen["zero_coef"] += bool(np.any(ref_lam == 0.0))
        seen["outside"] += ref_rnorm > 1e-6
    assert all(count >= 20 for count in seen.values()), seen


def test_nnls_empty_generator_set():
    lam, rnorm = nnls(np.empty((3, 0)), np.array([1.0, 2.0, 2.0]))
    assert lam.shape == (0,)
    assert rnorm == 3.0


def _assert_generators_match_reference(s, x):
    gens, ref = proximal_normal_generators(s, x), reference_generators(s, x)
    assert len(gens) == len(ref)
    for g, r in zip(gens, ref):
        np.testing.assert_array_equal(g, r)


def _assert_certificate_matches_reference(set_a, set_b, a, b, tol=1e-8):
    cert = check_certificate(set_a, set_b, a, b, tol)
    ref_a, ref_b, ref_holds = reference_certificate(set_a, set_b, a, b, tol)
    assert cert.holds == ref_holds
    assert cert.residual_A == pytest.approx(ref_a, abs=1e-12)
    assert cert.residual_B == pytest.approx(ref_b, abs=1e-12)


def _assert_cycles_match_reference(set_a, set_b, trace, tol):
    points = [p for _, _, p in trace.iterates]
    cycles = len(trace.gaps) // 2
    for k in range(cycles):
        b, a = points[2 * k + 1], points[2 * k + 2]
        _assert_certificate_matches_reference(set_a, set_b, a, b, tol)
    return cycles


def test_certificate_matches_generator_formula_on_lp_runs():
    rng = np.random.default_rng(5)
    cycles = 0
    for _ in range(25):
        problem, _, _ = random_lp_instance(rng)
        c, M = problem.c, problem.M
        halfspace = HalfSpace(c, M)
        x0 = ((M - 1.0) / float(c @ c)) * c
        trace = run(halfspace, problem.poly, x0, max_iters=400)
        cycles += _assert_cycles_match_reference(halfspace, problem.poly, trace, 1e-8)
    assert cycles >= 100


def test_certificate_matches_generator_formula_on_planar_runs():
    a_set = lower_halfplane()
    for make in (absval_epigraph, parabola_epigraph):
        for k in (0.0, 0.5, 1.0, 2.0):
            for x in (1.0, 3.0, 10.0):
                b_set = make(k)
                trace = run(a_set, b_set, [x, 0.0], max_iters=200)
                _assert_cycles_match_reference(a_set, b_set, trace, 1e-8)


def test_certificate_matches_generator_formula_on_sampled_pairs():
    # Pairs no run produces: projections of random points (boundary, apex
    # and near-boundary interior points), so that b - a may point against
    # a single normal or sit just off the active tolerance.
    rng = np.random.default_rng(9)
    tilted = HalfSpace([0.3, 1.0], 0.2)
    planar = [lower_halfplane(), tilted, absval_epigraph(0.5), parabola_epigraph(0.5)]
    for _ in range(300):
        i, j = rng.integers(len(planar), size=2)
        set_a, set_b = planar[i], planar[j]
        a = project(set_a, rng.normal(size=2) * 2.0)
        b = project(set_b, rng.normal(size=2) * 2.0)
        if rng.random() < 0.3:
            # Step inward: down across a half-plane, up into an epigraph.
            inward = -set_a.c if isinstance(set_a, HalfSpace) else np.array([0.0, 1.0])
            a = a + rng.choice([1e-9, 1e-7, 1e-4]) * inward
        if rng.random() < 0.2 and isinstance(set_b, EpigraphSet):
            b = set_b.shift.copy()
        _assert_generators_match_reference(set_a, a)
        _assert_generators_match_reference(set_b, b)
        _assert_certificate_matches_reference(set_a, set_b, a, b)
    for _ in range(30):
        problem, _, _ = random_lp_instance(rng)
        poly, n = problem.poly, problem.poly.dim
        halfspace = HalfSpace(problem.c, problem.M)
        for _ in range(4):
            a = project(halfspace, rng.normal(size=n) * 3.0)
            b = project(poly, rng.normal(size=n) * 3.0)
            if rng.random() < 0.5:
                # Off the active rows by about 1e-9, inside ACTIVE_TOL.
                b = b - 1e-9 * np.sum(reference_generators(poly, b), axis=0)
            _assert_generators_match_reference(poly, b)
            _assert_certificate_matches_reference(halfspace, poly, a, b)


def test_certificate_validates_at_the_boundary():
    plane = lower_halfplane()
    vee = absval_epigraph(1.0)
    cup = parabola_epigraph(1.0)
    box = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 3.0, -1.0])
    for a, b in (([0.0, 0.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [0.0, 1.0, 0.0])):
        with pytest.raises(DimensionMismatch):
            check_certificate(plane, vee, a, b)
    with pytest.raises(DimensionMismatch):
        check_certificate(plane, box, [0.0, 0.0], [0.0, 1.0, 0.0])
    for a, b in (([np.nan, 0.0], [0.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0])):
        with pytest.raises(ValueError):
            check_certificate(plane, vee, a, b)
    for a, b in (([0.0, 1.0], [0.0, 1.0]), ([0.0, 0.0], [2.0, 1.0])):
        with pytest.raises(PointNotInSet):
            check_certificate(plane, vee, a, b)
    with pytest.raises(PointNotInSet):
        check_certificate(plane, box, [0.0, 0.0], [0.0, 0.5])
    # Inside within 1e-6 but outside by more than ACTIVE_TOL, and the pair
    # is not a common point: the normal cone is undefined there.
    off = 5e-7
    for set_a, set_b, a, b in (
        (plane, vee, [0.0, off], [0.0, 1.0]),
        (plane, vee, [0.0, 0.0], [0.0, 1.0 - off]),
        (plane, cup, [0.0, 0.0], [0.0, 1.0 - off]),
        (plane, box, [0.0, 0.0], [0.0, 1.0 - off]),
        (HalfSpace([0.0, -1.0], -1.0), plane, [0.0, 1.0 - off], [0.0, 0.0]),
    ):
        with pytest.raises(PointNotInSet):
            check_certificate(set_a, set_b, a, b)
    # A gap above tol but below the zero-vector threshold has no direction.
    apex = EpigraphSet("abs", [0.0, 0.0])
    with pytest.raises(ZeroVector):
        check_certificate(plane, apex, [0.0, 0.0], [0.0, 5e-13], tol=1e-13)
