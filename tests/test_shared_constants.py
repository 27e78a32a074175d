"""One enumeration per polyhedron, one projection of x0 per solve, one LP optimum.

A polyhedron keeps its vertex list from the first enumeration, so the
alpha search and the oracle read one list.  ``d_AB`` and the shifted LP
strategy read none: both take the walk from the projection of ``x0`` to
the LP optimum, which the polyhedron keeps, so the pair walks once, and
``bound_report``'s ``d_AB`` is the shifted solve's ``(objective - M) /
||c||`` bit for bit.  In the plane ``bound_report``
reads no vertex list at all, so it has no row limit.  These tests pin the
sharing by counting calls, check by ``float.hex`` that the shared paths
give what the public composition gives on a polyhedron that enumerates
afresh, and pin the error that each kind of bad pair raises.
"""

import numpy as np
import pytest

from altproj import (
    EmptyPolyhedron,
    HalfSpace,
    InvalidDistance,
    LowerBoundNotStrict,
    LPProblem,
    Polyhedron,
    TooLarge,
    Unbounded,
    alpha_polyhedron_halfspace,
    bound_report,
    certify,
    engine,
    iteration_bound,
    linalg,
    lp,
    one_step_shift,
    polyhedron_halfspace_distance,
    qp,
    sets,
    solve_lp,
    translate,
    vertex_oracle,
    vertices,
)
from altproj.instances import random_pair_instance
from test_certify import bad_geometry_pairs
from test_lp import pyramid
from test_qp_adversarial import with_duplicates


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [random_pair_instance(rng) for _ in range(count)]


def start_in(A):
    # A point of the half-space one unit below its boundary.
    return (A.M - 1.0) / float(A.c @ A.c) * A.c


def outcome(fn):
    """``fn()``'s value, or the type of the error it raised."""
    try:
        return fn()
    except Exception as exc:  # compared by type below
        return type(exc)


def hexed(value):
    if isinstance(value, type):
        return value
    if isinstance(value, np.ndarray):
        return [float(v).hex() for v in value]
    return float(value).hex()


def count_calls(monkeypatch, modules, name):
    """Route ``module.name`` through one counting spy in each of ``modules``."""
    original = getattr(modules[0], name)
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, spy)
    return calls


def spy_enumerations(monkeypatch):
    """Route ``feasible_vertices`` through a spy in each module that calls it.

    Returns the polyhedra it enumerated, one entry per call made while the
    polyhedron held no vertex list yet, and ``(polyhedron, list)`` for
    every call.
    """
    original = vertices.feasible_vertices
    enumerated, listed = [], []

    def spy(p):
        if p._vertices is None:
            enumerated.append(p)
        result = original(p)
        listed.append((p, result))
        return result

    for module in (certify, vertices):
        assert module.feasible_vertices is original
        monkeypatch.setattr(module, "feasible_vertices", spy)
    return enumerated, listed


@pytest.mark.parametrize("dims", [(2,), (3, 4)], ids=["n=2", "n>=3"])
def test_bound_report_enumerates_the_vertices_once(monkeypatch, dims):
    enumerated, listed = spy_enumerations(monkeypatch)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 5:
        enumerated.clear()
        listed.clear()
        inst = random_pair_instance(rng)
        B, A = inst.poly, inst.halfspace
        if B.dim not in dims:
            continue
        bound_report(B, A, inst.x0)
        solve_lp(LPProblem(A.c, B, A.M), x0=inst.x0, strategy="shifted")
        _, argmin = vertex_oracle(B, A.c)
        polyhedron_halfspace_distance(B, A)
        assert len(enumerated) == 1 and enumerated[0] is B
        assert all(p is B and lst is listed[0][1] for p, lst in listed)

        # The stored vertices are read-only; the oracle hands out a copy.
        stored = [v.copy() for v, _ in vertices.feasible_vertices(B)]
        for v, _ in vertices.feasible_vertices(B):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0.0
        assert argmin.flags.writeable
        argmin += 1.0
        assert all(np.array_equal(v, w) for (v, _), w in zip(B._vertices, stored))

        # A translate is a new polyhedron with a list of its own.
        moved = translate(B, np.ones(B.dim))
        vertex_oracle(moved, A.c)
        assert len(enumerated) == 2 and enumerated[1] is moved
        assert moved._vertices is not B._vertices
        checked += 1


def test_shifted_solve_projects_the_start_once(monkeypatch):
    # The solve projects x0 with ``_project_from``, whose face the walk
    # continues from; ``project_polyhedron`` goes through it too.  Every
    # module that binds it is counted.
    calls = count_calls(monkeypatch, [engine, qp, sets], "_project_from")
    for inst in random_pairs(19, 30):
        A = inst.halfspace
        calls.clear()
        solve_lp(LPProblem(A.c, inst.poly, A.M), x0=inst.x0, strategy="shifted")
        starts = [args for args in calls if np.array_equal(args[1], inst.x0)]
        assert len(starts) == 1


def shared_and_public(B, A, x0):
    """``bound_report`` and the constants over B's kept vertex list next to
    the public composition over a copy of B, which enumerates its own.

    The composition takes ``d_AB`` from the shifted solve from the same
    ``x0``, ``(objective - M) / ||c||``, which walks to the optimum from
    where ``bound_report`` walks; ``polyhedron_halfspace_distance`` walks
    from ``P_B(0)`` and is compared on its own.
    """

    def fields(report):
        if isinstance(report, type):
            return report
        return hexed(report.alpha), hexed(report.d_AB), report.N, report.one_step

    report = fields(outcome(lambda: bound_report(B, A, x0)))
    shared = (
        hexed(alpha_polyhedron_halfspace(B, A)),
        hexed(polyhedron_halfspace_distance(B, A)),
        report,
    )
    fresh = Polyhedron(B.A, B.b)
    alpha = alpha_polyhedron_halfspace(fresh, A)
    solved = outcome(lambda: solve_lp(LPProblem(A.c, fresh, A.M), x0=x0, strategy="shifted"))

    def composed():
        if solved is LowerBoundNotStrict:
            raise InvalidDistance("the sets intersect")
        d_ab = (solved.objective - A.M) / float(np.linalg.norm(A.c))
        d_x0 = float(np.linalg.norm(x0 - qp.project_polyhedron(fresh, x0).point))
        return iteration_bound(alpha, d_ab, max(d_x0, d_ab))

    public_distance = hexed(polyhedron_halfspace_distance(fresh, A))
    return shared, (hexed(alpha), public_distance, fields(outcome(composed)))


def shifted_and_walked(B, A, x0):
    """The shifted solution (or its error) next to the walk from ``x0`` out
    to the paper's shift ``mu``.

    The solve stops on the first face where the point stands still, with a
    zero step, and the walk to ``mu`` ends on the same face: both add a
    zero to the point there, so even the sign of a zero agrees.
    """
    solved = outcome(
        lambda: solve_lp(LPProblem(A.c, B, A.M), x0=x0, strategy="shifted").solution
    )
    mu, _ = one_step_shift(A, B, x0, alpha_polyhedron_halfspace(B, A), 0.0)
    return hexed(solved), hexed(qp.project_along_ray(B, x0, -A.c, mu).point)


def test_shared_paths_match_the_public_composition_on_random_pairs():
    pairs = random_pairs(5, 60)
    assert {inst.poly.dim for inst in pairs} == {2, 3, 4}
    for inst in pairs:
        B, A, x0 = inst.poly, inst.halfspace, inst.x0
        shared, public = shared_and_public(B, A, x0)
        assert shared == public
        solved, walked = shifted_and_walked(B, A, x0)
        assert solved == walked


def test_shared_paths_match_the_public_composition_on_bad_geometry():
    intersecting = solved_count = 0
    for B, A in bad_geometry_pairs():
        x0 = start_in(A)
        shared, public = shared_and_public(B, A, x0)
        assert shared == public
        intersecting += shared[2] is InvalidDistance
        solved, walked = shifted_and_walked(B, A, x0)
        if not isinstance(solved, type):
            assert solved == walked
            solved_count += 1
    # Some of these half-spaces cut B and take the d = 0 branch; the rest
    # solve.
    assert intersecting > 0
    assert solved_count > 0


def unit_rows(m, n, rng):
    # m unit rows with rhs 1: the polyhedron holds a ball about the origin.
    rows = rng.normal(size=(m, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True), np.ones(m)


@pytest.mark.parametrize("n", [3])
def test_bound_report_too_many_rows_raises_too_large(n):
    # At n >= 3 alpha's cone family still comes from the vertex list.
    rows, rhs = unit_rows(25, n, np.random.default_rng(n))
    A = HalfSpace(np.eye(n)[0], -5.0)
    with pytest.raises(TooLarge):
        bound_report(Polyhedron(rows, rhs), A, start_in(A))


def test_planar_bound_has_no_row_limit():
    # 25 rows, past the enumeration's 24: in the plane alpha is the
    # row-wise minimum and d_AB the walk's, so neither reads a vertex.
    rows, rhs = unit_rows(25, 2, np.random.default_rng(2))
    B, A = Polyhedron(rows, rhs), HalfSpace([1.0, 0.0], -5.0)
    x0 = start_in(A)
    report = bound_report(B, A, x0)
    assert B._vertices is None
    assert 0.0 < report.alpha <= 0.5
    # Walked from P_B(0), the optimum may differ in its last bits.
    assert report.d_AB == pytest.approx(polyhedron_halfspace_distance(B, A), rel=1e-14)
    direct = solve_lp(LPProblem(A.c, B, A.M), strategy="direct")
    assert report.d_AB == pytest.approx(direct.objective - A.M, rel=1e-9)
    trace = engine.run(A, B, x0, max_iters=10_000)
    assert trace.stop_reason is engine.StopReason.CERTIFIED
    assert trace.steps_to_converge <= report.max_steps


def test_planar_bound_report_reads_no_vertex_list():
    planar = [inst for inst in random_pairs(29, 40) if inst.poly.dim == 2]
    assert len(planar) >= 5
    for inst in planar:
        bound_report(inst.poly, inst.halfspace, inst.x0)
        # The pool's own oracle call enumerated a polyhedron of equal
        # value; this one is a copy and starts without a list.
        B = Polyhedron(inst.poly.A, inst.poly.b)
        bound_report(B, inst.halfspace, inst.x0)
        assert B._vertices is None
        assert B._cones is not None


def test_a_polyhedron_without_a_vertex_gets_a_bound():
    # The slab |x1| <= 1, |x2| <= 1 in R^3 with x3 free is nonempty and has
    # no vertex; the oracle finds none, the walk needs none.
    B = Polyhedron([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]], np.ones(4))
    A = HalfSpace([1.0, 0.0, 0.0], -3.0)
    x0 = np.array([-4.0, 0.0, 0.0])
    assert polyhedron_halfspace_distance(B, A) == 2.0
    report = bound_report(B, A, x0)
    assert report.d_AB == 2.0
    assert report.d_x0_B == 3.0
    trace = engine.run(A, B, x0, max_iters=1000)
    assert trace.stop_reason is engine.StopReason.CERTIFIED
    assert trace.steps_to_converge <= report.max_steps
    with pytest.raises(EmptyPolyhedron):
        vertex_oracle(B, A.c)


@pytest.mark.parametrize("seed", [1, 11])
def test_d_ab_is_the_shifted_optimum_bit_for_bit(seed):
    # The constants pools: bound_report walks from x0 as the shifted solve
    # does, so the two give one optimum.  The solve runs on a copy of B,
    # which walks afresh: on B itself it would read bound_report's kept walk.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        inst = random_pair_instance(rng)
        A, B = inst.halfspace, inst.poly
        report = bound_report(B, A, inst.x0)
        out = solve_lp(LPProblem(A.c, Polyhedron(B.A, B.b), A.M), x0=inst.x0, strategy="shifted")
        expected = (out.objective - A.M) / float(np.linalg.norm(A.c))
        assert report.d_AB.hex() == expected.hex()


def spy_walks(monkeypatch):
    """Count ``_project_from`` calls in every module that binds it, and
    ``qp._walk_from`` calls."""
    return count_calls(monkeypatch, [engine, qp, sets], "_project_from"), count_calls(monkeypatch, [qp], "_walk_from")


def cold_starts(projections):
    """The points of the cold projections (``face`` None) among ``projections``."""
    return [x for _, x, face in projections if face is None]


def shifted(B, A, x0):
    return solve_lp(LPProblem(A.c, B, A.M), x0=x0, strategy="shifted")


def constants_fields(report, out):
    """Every bound field, and the solution, objective and certificate of the
    shifted solve, by ``float.hex``."""
    return (
        [hexed(getattr(report, name)) for name in ("alpha", "rate", "d_AB", "d_x0_B")],
        report.N, report.max_steps, report.one_step,
        hexed(out.solution), hexed(out.objective),
        hexed(out.certificate.residual_A), hexed(out.certificate.residual_B), out.certificate.holds,
    )


def test_bound_report_and_the_shifted_solve_walk_once(monkeypatch):
    # The solve reads the walk that bound_report kept on B: one cold
    # projection of x0 and one walk between them, and every answer is that
    # of a fresh copy of B, where each call walks for itself.
    projections, walks = spy_walks(monkeypatch)
    for inst in random_pairs(37, 40):
        B, A, x0 = inst.poly, inst.halfspace, inst.x0
        projections.clear()
        walks.clear()
        kept = constants_fields(bound_report(B, A, x0), shifted(B, A, x0))
        assert [x.tobytes() for x in cold_starts(projections)] == [x0.tobytes()]
        assert len(walks) == 1
        fresh = constants_fields(
            bound_report(Polyhedron(B.A, B.b), A, x0), shifted(Polyhedron(B.A, B.b), A, x0)
        )
        assert kept == fresh
        assert len(walks) == 3


def test_another_start_or_objective_walks_again(monkeypatch):
    # The key is the bytes of x and c.  Another point, the opposite
    # objective and a -0.0 where the kept start has 0.0 each walk again and
    # replace the record, which the same call then reads.
    _, walks = spy_walks(monkeypatch)
    for inst in random_pairs(41, 10):
        B, A, x0 = inst.poly, inst.halfspace, inst.x0
        c = A.c
        signed = x0.copy()
        signed[0] = 0.0
        negative = signed.copy()
        negative[0] = -0.0
        strided = np.repeat(x0, 2)[::2]
        assert not strided.flags.c_contiguous and np.array_equal(strided, x0)
        shifted(B, A, x0)
        walks.clear()
        calls = [(x0 + 1.0, c), (x0, -c), (signed, c), (negative, c), (signed, c), (x0, c)]
        for n, (x, objective) in enumerate(calls, 1):
            for _ in range(2):
                outcome(lambda: qp._walk_to_optimum(B, x, objective))
            assert len(walks) == n
        # The public calls key on their validated start, a contiguous copy of
        # a strided x0, so a strided x0 reads the walk kept for x0.
        walks.clear()
        bound_report(B, A, x0)
        shifted(B, A, strided)
        assert walks == []


def test_a_written_solution_changes_no_later_answer():
    # The solution is a copy of the kept end point, and every kept array is
    # read-only, so no answer can write into the record.
    for inst in random_pairs(43, 10):
        B, A, x0 = inst.poly, inst.halfspace, inst.x0
        first = shifted(B, A, x0)
        expected = constants_fields(bound_report(B, A, x0), first)
        first.solution[:] = 7.0
        assert first.certificate.b is first.solution
        again = constants_fields(bound_report(B, A, x0), shifted(B, A, x0))
        assert again == expected
        start, end, face = B._walk[1]
        arrays = (start.point, start.dual, end.point, end.dual, face.Q, face.R, face.w, face.Q1, face.A_W, face.b_W)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_a_raising_walk_keeps_nothing(monkeypatch):
    # The orthant x <= 1 has no least x_3, and the box x_i <= -1, -x_i <= -1
    # no point: each call raises again, and the record is what it was.
    _, walks = spy_walks(monkeypatch)
    orthant, up = Polyhedron(np.eye(3), np.ones(3)), np.array([0.0, 0.0, 1.0])
    x = np.zeros(3)
    for _ in range(2):
        with pytest.raises(Unbounded):
            qp._walk_to_optimum(orthant, x, up)
        assert orthant._walk is None
    assert len(walks) == 2
    qp._walk_to_optimum(orthant, x, -up)
    kept = orthant._walk
    with pytest.raises(Unbounded):
        qp._walk_to_optimum(orthant, x, up)
    assert orthant._walk is kept and len(walks) == 4
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), -np.ones(4))
    for _ in range(2):
        with pytest.raises(EmptyPolyhedron):
            qp._walk_to_optimum(box, np.zeros(2), np.ones(2))
        assert box._walk is None


def test_constants_pool_work_per_pass(monkeypatch):
    # Work gate of the ``constants`` benchmark at pool seed 1: cold
    # projections, walks, NNLS solves (``linalg._nnls``), alpha's cone
    # tables and face builds (``qp._face_of``) over one pass of bound_report
    # and the shifted solve, then a second pass over the same polyhedra.
    # The solve reads bound_report's walk and certifies on its kept face,
    # and a second pass reads every record.  When each walked for itself,
    # the passes made (400, 400, 0, 200) and (400, 400, 0, 0) of the first
    # four; when the solve built its face from the walk's factor, the face
    # builds were 400 and 200.
    rng = np.random.default_rng(1)
    pool = [random_pair_instance(rng) for _ in range(200)]
    for inst in pool:
        vertex_oracle(inst.poly, inst.halfspace.c)
    projections, walks = spy_walks(monkeypatch)
    nnls = count_calls(monkeypatch, [linalg], "_nnls")
    tables = count_calls(monkeypatch, [certify], "_cone_table")
    faces = count_calls(monkeypatch, [qp], "_face_of")
    counts = []
    for _ in range(2):
        for spy in (projections, walks, nnls, tables, faces):
            spy.clear()
        for inst in pool:
            A, B = inst.halfspace, inst.poly
            bound_report(B, A, inst.x0)
            shifted(B, A, inst.x0)
        counts.append((len(cold_starts(projections)), len(walks), len(nnls), len(tables), len(faces)))
    assert counts == [(200, 200, 0, 200, 400), (0, 0, 0, 0, 0)]


@pytest.mark.parametrize("n", [2, 3])
def test_bound_report_empty_box_raises_empty_polyhedron(n):
    # x_i <= -1 and -x_i <= -1: no point, though every row set is regular.
    box = Polyhedron(np.vstack([np.eye(n), -np.eye(n)]), -np.ones(2 * n))
    A = HalfSpace(np.ones(n), -5.0)
    with pytest.raises(EmptyPolyhedron):
        bound_report(box, A, start_in(A))


def test_bound_report_intersecting_pair_raises_invalid_distance():
    # B is the orthant x <= 1, unbounded along -c = -e_3, so it reaches
    # into A = {x_3 <= -5}.
    B = Polyhedron(np.eye(3), np.ones(3))
    A = HalfSpace([0.0, 0.0, 1.0], -5.0)
    with pytest.raises(InvalidDistance):
        bound_report(B, A, start_in(A))


def degenerate_polyhedra():
    rng = np.random.default_rng(23)
    polys = [pyramid(n) for n in range(3, 7)]
    polys += [with_duplicates(rng)[0] for _ in range(8)]
    return polys + [B for B, _ in bad_geometry_pairs()]


def test_block_active_sets_equal_the_per_vertex_formula():
    degenerate = 0
    for p in degenerate_polyhedra():
        for v, active in vertices.feasible_vertices(p):
            slack = np.abs(p.A @ v - p.b)
            expected = tuple(np.flatnonzero(slack <= 1e-7 * (1.0 + np.abs(p.b))).tolist())
            assert active == expected
            degenerate += len(active) > p.dim
    assert degenerate > 0
