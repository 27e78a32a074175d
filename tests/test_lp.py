import numpy as np
import pytest

from altproj import (
    EmptyPolyhedron,
    HalfSpace,
    LPProblem,
    LowerBoundNotStrict,
    Polyhedron,
    StartNotInA,
    TooLarge,
    Unbounded,
    alpha_polyhedron_halfspace,
    bound_report,
    norm,
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


def test_feasible_vertices_reports_full_active_sets():
    simplex = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    verts = feasible_vertices(simplex)
    assert len(verts) == 3
    for v, active in verts:
        assert len(active) >= 2


def test_solve_lp_rejects_loose_lower_bound():
    problem = LPProblem([-1.0, 0.0], unit_box(), 5.0)  # M above the optimum
    with pytest.raises(LowerBoundNotStrict):
        solve_lp(problem, strategy="direct")
    problem2 = LPProblem([-1.0, 0.0], unit_box(), -1.0)  # M equal to the optimum
    with pytest.raises(LowerBoundNotStrict):
        solve_lp(problem2, strategy="shifted")


def test_solve_lp_validates_given_start():
    problem = LPProblem([-1.0, 0.0], unit_box(), -2.0)
    with pytest.raises(StartNotInA):
        solve_lp(problem, x0=[0.0, 0.0])  # <c, x0> = 0 > M
    out = solve_lp(problem, x0=[3.0, 0.0])  # <c, x0> = -3 <= M
    assert out.objective == pytest.approx(-1.0, abs=1e-7)


def test_default_start_sits_strictly_inside_the_sublevel_set():
    problem = LPProblem([2.0, 0.0], unit_box(), -3.0)
    out = solve_lp(problem)
    assert out.objective == pytest.approx(0.0, abs=1e-7)


def test_oracle_agreement_random():
    for check in (
        verify.direct_matches_oracle,
        verify.shifted_matches_oracle,
        verify.shifted_single_projection,
    ):
        result = check(np.random.default_rng(51), 30)
        assert result.ok, f"{result.name}: {result.detail}"


def test_shifted_solve_certifies_after_a_huge_shift():
    # alpha ~ 1.4e-4 puts the shifted half-space ~1e8 away; the solution is
    # the oracle vertex, and its certificate must not fail on the rounding
    # of the far shifted A-point.
    rng = np.random.default_rng(1)
    problem, optimum, vertex = [random_lp_instance(rng) for _ in range(30)][-1]
    halfspace = HalfSpace(problem.c, problem.M)
    assert alpha_polyhedron_halfspace(problem.poly, halfspace) < 1e-3
    out = solve_lp(problem, strategy="shifted")
    assert out.certificate.holds
    assert out.objective == pytest.approx(optimum, abs=1e-9)
    np.testing.assert_allclose(out.solution, vertex, atol=1e-9)


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
