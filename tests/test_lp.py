import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.linalg import norm

from altproj import (
    EmptyPolyhedron,
    HalfSpace,
    LPProblem,
    LowerBoundNotStrict,
    NotConverged,
    Polyhedron,
    StartNotInA,
    TooLarge,
    Unbounded,
    alpha_polyhedron_halfspace,
    bound_report,
    certify,
    one_step_shift,
    polyhedron_halfspace_distance,
    run,
    solve_lp,
    verify,
    vertex_oracle,
)
from altproj.instances import random_lp_instance
from altproj.vertices import feasible_vertices


def unit_box():
    return Polyhedron(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 0.0, 1.0, 0.0]),
    )


def first_quadrant():
    return Polyhedron([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])


@pytest.mark.parametrize("cap", [math.nan, 2.5, "3", True, False, 0])
def test_direct_solve_rejects_a_cycle_cap_that_is_not_an_integer(cap):
    # The shifted solve takes no cycles but checks the cap by the same rule;
    # before, it returned an answer for 0 and True.
    problem = LPProblem([-1.0, 0.0], unit_box(), -2.0)
    for strategy in ("direct", "shifted"):
        with pytest.raises(ValueError, match="max_iters"):
            solve_lp(problem, strategy=strategy, max_iters=cap)


def test_solve_lp_quadrant_example():
    problem = LPProblem([1.0, 1.0], first_quadrant(), -1.0)
    for strategy in ("direct", "shifted"):
        out = solve_lp(problem, strategy=strategy)
        np.testing.assert_allclose(out.solution, [0, 0], atol=1e-7)
        assert out.objective == pytest.approx(0.0, abs=1e-7)
        assert out.certificate.holds


def test_solve_lp_box_example():
    problem = LPProblem([-1.0, 0.0], unit_box(), -2.0)
    direct = solve_lp(problem, strategy="direct")
    shifted = solve_lp(problem, strategy="shifted")
    assert direct.objective == pytest.approx(-1.0, abs=1e-7)
    assert shifted.objective == pytest.approx(direct.objective, abs=1e-6)
    assert direct.solution[0] == pytest.approx(1.0, abs=1e-7)
    assert shifted.steps == 1
    assert shifted.method == "ShiftedOneStep"
    assert direct.method == "DirectAP"


@pytest.mark.parametrize("strategy", ["DirectAP", "Direct", "bogus"])
def test_solve_lp_rejects_other_strategy_names(strategy):
    with pytest.raises(ValueError, match="unknown strategy"):
        solve_lp(LPProblem([-1.0, 0.0], unit_box(), -2.0), strategy=strategy)


def test_vertex_oracle_examples():
    opt, vertex = vertex_oracle(unit_box(), [-1.0, 0.0])
    assert opt == pytest.approx(-1.0, abs=1e-12)
    assert vertex[0] == pytest.approx(1.0, abs=1e-12)

    simplex = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    opt, vertex = vertex_oracle(simplex, [1.0, 1.0])
    assert opt == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(vertex, [0, 0], atol=1e-12)


def test_vertex_oracle_duplicate_rows_same_optimum():
    box = unit_box()
    doubled = Polyhedron(np.vstack([box.A, box.A]), np.concatenate([box.b, box.b]))
    c = [0.3, -0.7]
    assert vertex_oracle(doubled, c)[0] == pytest.approx(vertex_oracle(box, c)[0], abs=1e-12)


def test_vertex_oracle_unbounded():
    with pytest.raises(Unbounded):
        vertex_oracle(first_quadrant(), [-1.0, 0.0])


def test_vertex_oracle_too_large():
    rows = np.vstack([np.eye(2)] * 13)  # 26 rows
    with pytest.raises(TooLarge):
        vertex_oracle(Polyhedron(rows, np.ones(26)), [1.0, 0.0])


def test_vertex_oracle_empty():
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(EmptyPolyhedron):
        vertex_oracle(empty, [1.0, 0.0])
    # -c = (-1, -1) is outside the cone of the rows, but the polyhedron is
    # empty, not the objective unbounded: the oracle's one projection finds
    # it empty, as both LP strategies do.
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, 1.0])
    with pytest.raises(EmptyPolyhedron):
        vertex_oracle(empty, [1.0, 1.0])
    for strategy in ("direct", "shifted"):
        with pytest.raises(EmptyPolyhedron):
            solve_lp(LPProblem([1.0, 1.0], empty, -10.0), strategy=strategy)
    # The first two rows alone have rank 1 and no vertex to tell, and
    # -c = (0, -1) is outside the cone of the rows: the oracle's one
    # projection finds the polyhedron empty, as both strategies do.
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(EmptyPolyhedron):
        vertex_oracle(empty, [0.0, 1.0])
    for strategy in ("direct", "shifted"):
        with pytest.raises(EmptyPolyhedron):
            solve_lp(LPProblem([0.0, 1.0], empty, -10.0), strategy=strategy)
    # Empty by 1e-8 only: a vertex read within the enumeration's slack
    # tolerance would call the objective unbounded, but the one projection
    # decides as both strategies do.
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0 - 1e-8, 1.0])
    with pytest.raises(EmptyPolyhedron):
        vertex_oracle(empty, [1.0, 1.0])
    for strategy in ("direct", "shifted"):
        with pytest.raises(EmptyPolyhedron):
            solve_lp(LPProblem([1.0, 1.0], empty, -10.0), strategy=strategy)


def test_feasible_vertices_reports_full_active_sets():
    simplex = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    verts = feasible_vertices(simplex)
    assert len(verts) == 3
    for v, active in verts:
        assert len(active) >= 2


def loop_feasible_vertices(p):
    """Reference: one ``np.linalg.solve`` per n-subset, as before batching."""
    m, n = p.num_rows, p.dim
    vertices = []
    seen = set()
    for subset in itertools.combinations(range(m), n):
        rows = p.A[list(subset)]
        rhs = p.b[list(subset)]
        try:
            v = np.linalg.solve(rows, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(v)):
            continue
        if float(np.abs(rows @ v - rhs).max()) > 1e-8 * (1.0 + float(np.abs(rhs).max())):
            continue
        if not np.all(p.A @ v <= p.b + 1e-7 * (1.0 + float(np.linalg.norm(v)))):
            continue
        key = tuple(np.round(v, 9))
        if key in seen:
            continue
        seen.add(key)
        slack = np.abs(p.A @ v - p.b)
        active = tuple(np.flatnonzero(slack <= 1e-7 * (1.0 + np.abs(p.b))).tolist())
        vertices.append((v, active))
    return vertices


def pyramid(n):
    """Box ``[-1, 1]^(n-1) x [0, 2]`` capped by the 2(n-1) faces of a pyramid.

    The apex ``(0, ..., 0, 1)`` has 2(n-1) > n active rows for n >= 3.
    """
    rows, rhs = [], []
    for i in range(n - 1):
        for sign in (1.0, -1.0):
            face = np.zeros(n)
            face[i], face[-1] = sign, 1.0
            rows.append(face)
            rhs.append(1.0)
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_rhs = np.concatenate([np.ones(n - 1), [2.0], np.ones(n - 1), [0.0]])
    return Polyhedron(np.vstack([rows, box]), np.concatenate([rhs, box_rhs]))


def test_batched_enumeration_matches_the_loop():
    rng = np.random.default_rng(71)
    polys = []
    for n in range(2, 7):
        for _ in range(6):
            m = int(rng.integers(n + 2, min(2 * n + 4, 13)))
            A = rng.normal(size=(m, n))
            A[-1] = A[0]  # duplicate row: repeated vertices and singular subsets
            A[-2] = -2.0 * A[1]  # antiparallel row: singular subsets
            b = rng.uniform(0.5, 1.5, size=m)
            b[-1] = b[0]
            polys.append(Polyhedron(A, b))
        polys.append(pyramid(n))
    singular = 0
    for p in polys:
        expected = loop_feasible_vertices(p)
        got = feasible_vertices(p)
        assert len(got) == len(expected)
        for (v, active), (v_ref, active_ref) in zip(got, expected):
            assert v.tobytes() == v_ref.tobytes()
            assert active == active_ref
        subsets = np.array(list(itertools.combinations(range(p.num_rows), p.dim)))
        singular += int((np.linalg.slogdet(p.A[subsets])[0] == 0).sum())
    assert singular > 0
    apex = [active for v, active in feasible_vertices(pyramid(4)) if v[-1] == 1.0]
    assert apex == [(0, 1, 2, 3, 4, 5)]


def test_enumeration_at_the_oracle_limit():
    # The 8-cube with the 8 redundant rows x_i + x_{i+1} <= 2 (m = 24): its
    # C(24, 8) = 735,471 subsets pass through the blocked solve.  A vertex
    # is tight on one box row per coordinate and on every redundant row
    # whose two coordinates are both 1.
    n = 8
    eye = np.eye(n)
    redundant = eye + np.roll(eye, 1, axis=1)
    rhs = np.concatenate([np.ones(2 * n), np.full(n, 2.0)])
    p = Polyhedron(np.vstack([eye, -eye, redundant]), rhs)
    verts = feasible_vertices(p)
    assert len(verts) == 2**n
    corners = set()
    for v, active in verts:
        assert np.array_equal(np.abs(v), np.ones(n))
        up = v > 0
        expected = [i if up[i] else n + i for i in range(n)]
        expected += [2 * n + i for i in range(n) if up[i] and up[(i + 1) % n]]
        assert active == tuple(sorted(expected))
        corners.add(tuple(v))
    assert len(corners) == 2**n


def test_solve_lp_rejects_loose_lower_bound():
    problem = LPProblem([-1.0, 0.0], unit_box(), 5.0)  # M above the optimum
    with pytest.raises(LowerBoundNotStrict):
        solve_lp(problem, strategy="direct")
    problem2 = LPProblem([-1.0, 0.0], unit_box(), -1.0)  # M equal to the optimum
    with pytest.raises(LowerBoundNotStrict):
        solve_lp(problem2, strategy="shifted")
    # c = (1, 1) over x, y <= 0 falls without bound: the direct run finds
    # the sets intersect, and the shifted walk moves on with no face ahead.
    unbounded = LPProblem([1.0, 1.0], Polyhedron(np.eye(2), [0.0, 0.0]), -10.0)
    for strategy in ("direct", "shifted"):
        with pytest.raises(LowerBoundNotStrict):
            solve_lp(unbounded, strategy=strategy)


@pytest.mark.parametrize("strategy", ["direct", "shifted"])
def test_both_strategies_refuse_a_bound_within_the_certificate_tolerance(strategy):
    # Over [-1, 1]^2 with c = (1, 1) the optimum is -2, and M = -2 - delta
    # puts the solution delta / sqrt(2) from the half-space.  Within
    # cert_tol the sets meet to the certificate's tolerance, and both
    # strategies refuse M by one rule; beyond it both solve.  The shifted
    # strategy once returned -2.0 with holds=True at delta = 1e-9 and 5e-9,
    # where the direct one refused.
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    for delta in (1e-9, 5e-9):
        with pytest.raises(LowerBoundNotStrict):
            solve_lp(LPProblem([1.0, 1.0], box, -2.0 - delta), strategy=strategy)
    out = solve_lp(LPProblem([1.0, 1.0], box, -2.0 - 2e-8), strategy=strategy)
    assert out.objective == -2.0 and out.certificate.holds


@pytest.mark.parametrize("delta", [0.9e-10, 1.1e-10])
@pytest.mark.parametrize("strategy", ["direct", "shifted"])
def test_a_bound_within_the_strict_tolerance_is_refused_below_cert_tol(strategy, delta):
    # Over y >= 0, |x| <= 1 with the unit c = (0, 1) the optimum is 0, and
    # M = -delta puts the solution delta from the half-space.  With cert_tol
    # at 1e-12, below _STRICT_TOL (1e-10), the strict bound is _STRICT_TOL:
    # within it both strategies refuse M, beyond it both solve.  A constant
    # 10 times larger or smaller moves one of the two.
    poly = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0])
    problem = LPProblem([0.0, 1.0], poly, -delta)
    if delta < 1e-10:
        with pytest.raises(LowerBoundNotStrict):
            solve_lp(problem, strategy=strategy, cert_tol=1e-12)
    else:
        out = solve_lp(problem, strategy=strategy, cert_tol=1e-12)
        assert out.objective == 0.0 and out.certificate.holds


def test_solve_lp_validates_given_start():
    problem = LPProblem([-1.0, 0.0], unit_box(), -2.0)
    with pytest.raises(StartNotInA):
        solve_lp(problem, x0=[0.0, 0.0])  # <c, x0> = 0 > M
    out = solve_lp(problem, x0=[3.0, 0.0])  # <c, x0> = -3 <= M
    assert out.objective == pytest.approx(-1.0, abs=1e-7)


def test_solve_lp_takes_the_start_rule_of_run_and_bound_report():
    # One rule, <c, x0> <= M + 1e-8: before, both strategies rejected a
    # start 5e-9 outside the half-space that run and bound_report accept.
    problem, optimum, _ = random_lp_instance(np.random.default_rng(1))
    c, M = problem.c, problem.M
    halfspace = HalfSpace(c, M)
    for excess in (5e-9, 2e-8):
        x0 = ((M + excess) / float(c.dot(c))) * c
        for strategy in ("direct", "shifted"):
            if excess < 1e-8:
                out = solve_lp(problem, x0=x0, strategy=strategy)
                assert out.objective == pytest.approx(optimum, abs=1e-7)
            else:
                with pytest.raises(StartNotInA):
                    solve_lp(problem, x0=x0, strategy=strategy)
        for call in (run, bound_report):
            pair = (halfspace, problem.poly) if call is run else (problem.poly, halfspace)
            if excess < 1e-8:
                call(*pair, x0)
            else:
                with pytest.raises(StartNotInA):
                    call(*pair, x0)


OUTSIDE_START_CALLS = {
    "run": lambda hs, poly, x0: run(hs, poly, x0),
    "solve_lp-direct": lambda hs, poly, x0: solve_lp(LPProblem(hs.c, poly, hs.M), x0=x0),
    "solve_lp-shifted": lambda hs, poly, x0: solve_lp(
        LPProblem(hs.c, poly, hs.M), x0=x0, strategy="shifted"
    ),
    "bound_report": lambda hs, poly, x0: bound_report(poly, hs, x0),
    "one_step_shift": lambda hs, poly, x0: one_step_shift(hs, poly, x0, 0.25, 1.0),
}


@pytest.mark.parametrize("call", OUTSIDE_START_CALLS.values(), ids=OUTSIDE_START_CALLS)
def test_every_entry_point_rejects_an_outside_start_alike(call):
    # One rule, one error and one message; x0 = 0 has <c, x0> = 0 > M.
    with pytest.raises(StartNotInA, match="^x0 must belong to the first set$"):
        call(HalfSpace([-1.0, 0.0], -2.0), unit_box(), [0.0, 0.0])


def test_default_start_sits_strictly_inside_the_sublevel_set():
    problem = LPProblem([2.0, 0.0], unit_box(), -3.0)
    out = solve_lp(problem)
    assert out.objective == pytest.approx(0.0, abs=1e-7)


def test_oracle_agreement_random():
    for check in (verify.direct_matches_oracle, verify.shifted_matches_oracle):
        result = check(np.random.default_rng(51), 30)
        assert result.ok, f"{result.name}: {result.detail}"


def test_shifted_solve_takes_no_vertex_list_past_the_oracle_limit():
    # 30 rows at n = 3 are past the enumeration limit of 24 rows, so the
    # cone table raises TooLarge, but alpha reads the optimum's face and no
    # vertex list; the shifted solve walks to the optimum with no vertex
    # list either and agrees with the direct solve.
    for seed in (3, 30, 31):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(30, 3))
        rows /= norm(rows, axis=1, keepdims=True)
        problem = LPProblem(rng.normal(size=3), Polyhedron(rows, np.ones(30)), -10.0)
        halfspace = HalfSpace(problem.c, problem.M)
        with pytest.raises(TooLarge):
            certify._table_alpha(problem.poly, halfspace)
        assert 0.0 < alpha_polyhedron_halfspace(problem.poly, halfspace) <= 0.5
        assert problem.poly._vertices is None
        direct = solve_lp(problem, strategy="direct")
        shifted = solve_lp(problem, strategy="shifted")
        assert shifted.certificate.holds and shifted.steps == 1
        assert shifted.objective == pytest.approx(direct.objective, rel=1e-12)


def test_shifted_solve_certifies_after_a_huge_shift():
    # alpha ~ 1.4e-4 would put the paper's shifted half-space ~1e8 away.
    # The solve walks to the first stationary face instead, so no point
    # lies that far; the solution is the oracle vertex, certified against
    # the unshifted half-space.
    rng = np.random.default_rng(1)
    problem, optimum, vertex = [random_lp_instance(rng) for _ in range(30)][-1]
    halfspace = HalfSpace(problem.c, problem.M)
    assert alpha_polyhedron_halfspace(problem.poly, halfspace) < 1e-3
    out = solve_lp(problem, strategy="shifted")
    assert out.certificate.holds
    assert out.objective == pytest.approx(optimum, abs=1e-9)
    np.testing.assert_allclose(out.solution, vertex, atol=1e-9)


def test_shifted_solve_refuses_an_optimum_it_cannot_certify():
    # With no tolerance the certificate of the walk's optimum fails on its
    # rounding alone: the solve refuses, and returns no uncertified answer.
    problem = random_lp_instance(np.random.default_rng(1))[0]
    with pytest.raises(NotConverged, match="^shifted projection did not certify optimality$"):
        solve_lp(problem, strategy="shifted", cert_tol=0.0)


def test_direct_steps_within_certified_bound():
    rng = np.random.default_rng(52)
    for _ in range(20):
        problem, optimum, _ = random_lp_instance(rng)
        out = solve_lp(problem, strategy="direct", max_iters=30000)
        x0 = ((problem.M - 1.0) / float(problem.c @ problem.c)) * problem.c
        report = bound_report(problem.poly, HalfSpace(problem.c, problem.M), x0)
        assert out.steps <= report.max_steps


def test_geometry_identity_distance_vs_certified_gap():
    # d(A, B) from the oracle equals the certified gap of the direct run.
    rng = np.random.default_rng(53)
    for _ in range(20):
        problem, optimum, _ = random_lp_instance(rng)
        halfspace = HalfSpace(problem.c, problem.M)
        d_oracle = (optimum - problem.M) / norm(problem.c)
        assert polyhedron_halfspace_distance(problem.poly, halfspace) == pytest.approx(
            d_oracle, abs=1e-10
        )
        trace = run(
            halfspace,
            problem.poly,
            ((problem.M - 1.0) / float(problem.c @ problem.c)) * problem.c,
            max_iters=30000,
        )
        assert trace.final_gap == pytest.approx(d_oracle, abs=1e-8)


def test_solution_cone_certificate():
    # At a minimizer of <c, x>, -c lies in the cone of the active rows.
    result = verify.solution_cone_certificate(np.random.default_rng(54), 20)
    assert result.ok, result.detail


def test_lp_problems_compare_and_hash_by_value():
    # Before, == between two problems raised ValueError and hash raised
    # TypeError, as for the sets before they became values.
    rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    a = LPProblem(np.array([1.0, 2.0]), Polyhedron(rows, [1.0, 1.0, 1.0]), -5.0)
    b = LPProblem([1, 2], Polyhedron(np.array(rows), [1, 1, 1]), -5)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a, b} == {a} and b in {a}
    assert LPProblem([1.0, -0.0], a.poly, -5.0) == LPProblem([1.0, 0.0], a.poly, -5.0)
    different = [
        LPProblem([1.0, 3.0], a.poly, -5.0),
        LPProblem([1.0, 2.0], Polyhedron(rows, [1.0, 1.0, 2.0]), -5.0),
        LPProblem([1.0, 2.0], a.poly, -4.0),
        a.poly,
        (a.c, a.poly, a.M),
    ]
    for other in different:
        assert a != other and not a == other
    assert len({a, *different[:3]}) == 4


# -- the row scale ------------------------------------------------------------
#
# A positive scale of a row, ``(a_i, b_i) -> (s_i a_i, s_i b_i)``, leaves the
# polyhedron and so the LP as they are.  Every kernel reads the rows' unit
# form, so the answers must not depend on the scale.


def test_the_small_norm_box_certifies_its_optimum():
    # [-1, 1]^3 written with rows 1e4 e_i and -1e-8 e_i: a row of norm 1e-8
    # read as written would count as tight anywhere within about 1 of its
    # face, where the direct solve once certified -5.571.  Both strategies
    # certify the optimum -6.
    box = Polyhedron(np.vstack([1e4 * np.eye(3), -1e-8 * np.eye(3)]), np.r_[np.full(3, 1e4), np.full(3, 1e-8)])
    for strategy in ("direct", "shifted"):
        out = solve_lp(LPProblem([1.0, 2.0, 3.0], box, -7.0), strategy=strategy)
        assert out.objective == -6.0 and out.certificate.holds
        assert out.solution.tolist() == [-1.0, -1.0, -1.0]


def test_rescaled_rows_give_the_pool_answers():
    # The LPs of pool seed 1 with each row and offset scaled by 10^U(-8, 8),
    # the scales drawn from rng 99 LP after LP: both strategies solve every
    # one, to its oracle optimum.  Read as written, these rows gave 13 and 5
    # certified wrong answers (up to 33% off) and 90 and 60 refusals.
    rng, scales = np.random.default_rng(1), np.random.default_rng(99)
    for _ in range(300):
        problem, optimum, _ = random_lp_instance(rng)
        P = problem.poly
        s = 10.0 ** scales.uniform(-8.0, 8.0, size=P.num_rows)
        scaled = LPProblem(problem.c, Polyhedron(s[:, None] * P.A, s * P.b), problem.M)
        for strategy in ("direct", "shifted"):
            out = solve_lp(scaled, strategy=strategy)
            assert out.certificate.holds
            assert abs(out.objective - optimum) <= 1e-12 * max(1.0, abs(optimum))


# -- the half-space scale -----------------------------------------------------
#
# A positive scale of the objective and the bound together,
# ``(c, M) -> (s c, s M)``, leaves the half-space ``{<c, x> <= M}`` and so the
# LP's solution as they are.  Every kernel reads the half-space's unit form,
# so no answer may depend on the scale.


def test_rescaled_objectives_give_the_pool_answers():
    # The LPs of pool seed 1 with c and M scaled together by one 10^U(-8, 8)
    # per LP, the scales drawn from rng 99: both strategies solve every one,
    # to its oracle optimum.  Read as written, an absolute tolerance on
    # <c, x> - M made the direct strategy refuse 8 of them and the shifted
    # strategy 5, every one at a scale above 2e7.
    rng, scales = np.random.default_rng(1), np.random.default_rng(99)
    for _ in range(300):
        problem, optimum, _ = random_lp_instance(rng)
        s = 10.0 ** scales.uniform(-8.0, 8.0)
        scaled = LPProblem(s * problem.c, problem.poly, s * problem.M)
        for strategy in ("direct", "shifted"):
            out = solve_lp(scaled, strategy=strategy)
            assert out.certificate.holds
            assert abs(out.objective / s - optimum) <= 1e-12 * max(1.0, abs(optimum))


def test_a_far_start_solves_without_a_warning():
    # From (-1e200, -1e200) the first B-step's sum of squares overflows, and
    # the step's length is taken again from the scaled step: an expected
    # overflow, so it must raise no warning.
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = solve_lp(LPProblem([1.0, 1.0], box, -5.0), x0=[-1e200, -1e200], strategy="direct")
    assert out.solution.tolist() == [-1.0, -1.0] and out.certificate.holds


# -- the point scale ----------------------------------------------------------
#
# Scaling the offsets ``b`` and ``M`` by ``s`` scales the LP's solution by
# ``s``, and every point the solve makes with it.  Membership carries the
# projection's rounding allowance, which grows with the point, so no answer
# may depend on ``s`` either.


def test_point_scaled_lps_give_the_pool_answers():
    # The first 100 LPs of pool seed 1 with b and M scaled by 1e9 and 1e12:
    # both strategies solve every one, to s times its oracle optimum.  With
    # an absolute membership tolerance 56 to 67 of the 100 were refused per
    # strategy and scale (PointNotInSet, or NotConverged on a stalled gap or
    # an open certificate).
    rng = np.random.default_rng(1)
    for _ in range(100):
        problem, optimum, _ = random_lp_instance(rng)
        P = problem.poly
        for s in (1e9, 1e12):
            scaled = LPProblem(problem.c, Polyhedron(P.A, s * P.b), s * problem.M)
            for strategy in ("direct", "shifted"):
                out = solve_lp(scaled, strategy=strategy)
                assert out.certificate.holds
                assert abs(out.objective / s - optimum) <= 1e-12 * max(1.0, abs(optimum)), (s, strategy)
