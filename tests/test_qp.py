import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import norm

from altproj import (
    DimensionMismatch,
    EmptyPolyhedron,
    EpigraphSet,
    HalfSpace,
    NotConverged,
    Polyhedron,
    Unbounded,
    project_epigraph,
    project_halfspace,
    project_polyhedron,
    verify,
)
from altproj import linalg, qp
from altproj.cli import main
from altproj.instances import random_bounded_polyhedron
from altproj.qp import _project_from, project_along_ray
from test_certify import bad_geometry_pairs


def unit_box():
    return Polyhedron(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    )


def kkt_residual(poly, res):
    """The larger of the primal violation and the complementarity gap."""
    slack = poly.A @ res.point - poly.b
    comp = float(np.max(np.abs(res.dual * slack), initial=0.0))
    return max(float(np.max(slack, initial=0.0)), comp)


def test_box_clamp_example():
    box = unit_box()
    res = project_polyhedron(box, [2, 0])
    np.testing.assert_allclose(res.point, [1, 0], atol=1e-12)
    assert kkt_residual(box, res) <= 1e-10


def test_single_row_matches_halfspace():
    h = HalfSpace([1, 1], 0.0)
    single = Polyhedron([[1, 1]], [0.0])
    res = project_polyhedron(single, [1, 1])
    np.testing.assert_allclose(res.point, project_halfspace(h, [1, 1]), atol=1e-12)


def test_absval_rows_match_epigraph_closed_form():
    poly = Polyhedron([[1, -1], [-1, -1]], [0, 0])
    epi = EpigraphSet("abs", [0, 0])
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = rng.normal(size=2) * 2.0
        res = project_polyhedron(poly, x)
        np.testing.assert_allclose(res.point, project_epigraph(epi, x), atol=1e-9)


def test_agreement_with_closed_forms_random():
    rng = np.random.default_rng(21)
    for check in (verify.halfspace_agreement, verify.box_agreement):
        result = check(rng, 1000)
        assert result.ok, result.detail


def test_kkt_certificate_random():
    result = verify.kkt_certificate(np.random.default_rng(22), 200)
    assert result.ok, result.detail


def test_interior_point_returns_immediately():
    res = project_polyhedron(unit_box(), [0.2, -0.3])
    np.testing.assert_allclose(res.point, [0.2, -0.3])
    assert res.iterations == 0
    assert np.all(res.dual == 0.0)


def test_duplicate_rows_are_harmless():
    rows = [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]
    rhs = [1, 1, 1, 1, 1]
    res = project_polyhedron(Polyhedron(rows, rhs), [3, 0.5])
    np.testing.assert_allclose(res.point, [1, 0.5], atol=1e-9)


def test_empty_polyhedron_detected():
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])  # x <= -1 and x >= 1
    with pytest.raises(EmptyPolyhedron):
        project_polyhedron(empty, [0.0, 0.0])


def test_project_along_ray_matches_direct_at_moderate_offset():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        poly, _ = random_bounded_polyhedron(rng, n, int(rng.integers(0, 4)))
        base = rng.normal(size=n) * 2.0
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        t = float(rng.uniform(0.0, 8.0))
        walked = project_along_ray(poly, base, direction, t)
        direct = project_polyhedron(poly, base + t * direction)
        np.testing.assert_allclose(walked.point, direct.point, atol=1e-7)
        slack = poly.A @ walked.point - poly.b
        assert float(np.max(slack, initial=0.0)) <= 1e-8
        assert float(walked.dual.min(initial=0.0)) >= -1e-10


def test_project_along_ray_huge_offset_stays_exact():
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        poly, _ = random_bounded_polyhedron(rng, n, int(rng.integers(0, 4)))
        base = rng.normal(size=n)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        res = project_along_ray(poly, base, direction, 1e9)
        x = base + 1e9 * direction
        slack = poly.A @ res.point - poly.b
        assert float(np.max(slack, initial=0.0)) <= 1e-8
        # stationarity of the target point at full scale, relative accuracy
        stat = norm(x - res.point - poly.A.T @ res.dual)
        assert stat <= 1e-5 * (1.0 + norm(x))
        # the walked point beats or matches projecting a reference sample
        t_probe = 50.0
        ref = project_polyhedron(poly, base + t_probe * direction)
        assert norm(x - res.point) <= norm(x - ref.point) + 1e-6


def test_project_along_ray_rejects_wrong_dimension():
    poly = unit_box()
    with pytest.raises(DimensionMismatch):
        project_along_ray(poly, [0.0, 0.0], [1.0, 0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch):
        project_along_ray(poly, [0.0, 0.0, 0.0], [1.0, 0.0], 1.0)


def test_project_along_ray_rejects_non_finite_offset():
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            project_along_ray(unit_box(), [0.0, 0.0], [1.0, 0.0], t)


def test_project_along_ray_negative_offset_walks_backwards():
    rng = np.random.default_rng(26)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        poly, _ = random_bounded_polyhedron(rng, n, int(rng.integers(0, 4)))
        base = rng.normal(size=n) * 2.0
        direction = rng.normal(size=n)
        t = -float(rng.uniform(0.5, 8.0))
        walked = project_along_ray(poly, base, direction, t)
        direct = project_polyhedron(poly, base + t * direction)
        np.testing.assert_allclose(walked.point, direct.point, atol=1e-7)


# -- warm start from an earlier face ----------------------------------------


def warm_polyhedra():
    """Seeded random polyhedra with an interior point, then the bad-geometry
    polyhedra of ``test_certify`` with a point of each (its projection of 0).
    """
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cases.append(random_bounded_polyhedron(rng, n, int(rng.integers(0, 8))))
    for poly, _ in bad_geometry_pairs():
        cases.append((poly, project_polyhedron(poly, np.zeros(poly.dim)).point))
    return cases


def warm_points(rng, poly, inside):
    """Points around ``poly``: far ones, each with a nearby companion, and
    the reflection of each far point through ``inside``."""
    points = []
    for _ in range(2):
        x = inside + rng.normal(size=poly.dim) * float(rng.choice([2.0, 10.0]))
        points += [x, x + 0.05 * rng.normal(size=poly.dim), 2.0 * inside - x]
    return points


def warm_branch(monkeypatch):
    """Spy on the active-set solve: the returned list names the branch of
    the last ``_project_from`` call once ``branch.clear()`` was called."""
    branch = []
    solve = qp._working_set

    def spy(A, b, feas_tol, W, Q, R, u, z, slack):
        # The first step reads the slack the projection has just tested.
        assert slack.tobytes() == (A.dot(z) - b).tobytes()
        branch.append("continue" if W else "cold")
        return solve(A, b, feas_tol, W, Q, R, u, z, slack)

    monkeypatch.setattr(qp, "_working_set", spy)
    return branch


def feasible(poly, x):
    """Whether the projection takes ``x`` as it is (its tolerance, on the
    unit rows)."""
    tol = linalg._feas_tol(poly._scale, norm(x))
    return float(np.max(poly._units @ x - poly._offsets)) <= tol


def assert_matches_cold(poly, x, res):
    # The same point, and the same dual support where the multipliers are
    # unique: the rows tight at the point are independent.  At a degenerate
    # vertex (the bad-geometry apexes) another support is as exact, so
    # there the dual must be a KKT certificate of the point instead.  ``res``
    # is a private projection's, with the unit rows' multipliers: they are
    # checked as the public projection hands them out, of the written rows.
    res = qp._written(poly, res)
    ref = project_polyhedron(poly, x)
    scale = 1.0 + norm(x)
    assert norm(res.point - ref.point) <= 1e-12 * scale
    tight = np.flatnonzero(poly.b - poly.A @ ref.point <= 1e-9 * scale)
    if np.linalg.matrix_rank(poly.A[tight]) == tight.size:
        assert np.array_equal(res.dual > 0.0, ref.dual > 0.0)
    else:
        assert np.all(res.dual >= 0.0) and set(np.flatnonzero(res.dual)) <= set(tight)
        assert norm(x - res.point - poly.A.T @ res.dual) <= 1e-9 * scale
    assert kkt_residual(poly, res) <= 1e-9 * scale


def assert_no_step_from(face, x, res, new_face):
    """A continuation from ``face`` that took no active-set step: it returns
    the projection of ``x`` onto ``face`` with its multipliers, and its final
    face has ``face``'s working rows and factor, bit for bit."""
    u, z = qp._on_face(face, x)
    assert res.iterations == 0 and res.point.tobytes() == z.tobytes()
    assert res.dual[face.W].tobytes() == np.maximum(u, 0.0).tobytes()
    assert new_face is not face and new_face.W == face.W
    for name in ("Q", "R", "w"):
        assert getattr(new_face, name).tobytes() == getattr(face, name).tobytes()


def test_warm_face_takes_every_branch_and_matches_the_cold_projection(monkeypatch):
    # Every ordered pair of points of one polyhedron: the face of the first
    # point's projection is the warm start of the second's.  A continuation
    # whose start on the face is already feasible takes no step, and counts
    # as its own kind.
    branch = warm_branch(monkeypatch)
    seen = {"no step": 0, "continue": 0, "cold": 0, "feasible": 0}
    rng = np.random.default_rng(31)
    for poly, inside in warm_polyhedra():
        points = warm_points(rng, poly, inside)
        faces = [_project_from(poly, y, None)[1] for y in points]
        for x in points + [inside]:
            for face in faces:
                branch.clear()
                res, new_face = _project_from(poly, x, face)
                if feasible(poly, x):
                    kind = "feasible"
                    assert np.array_equal(res.point, x) and res.point is not x
                    assert not res.dual.any() and res.iterations == 0 and new_face is None
                else:
                    kind = branch[-1]
                    assert len(branch) == 1
                    if kind == "continue" and res.iterations == 0:
                        kind = "no step"
                        assert_no_step_from(face, x, res, new_face)
                seen[kind] += 1
                assert_matches_cold(poly, x, res)
    assert min(seen.values()) >= 100, seen


def test_a_strided_point_starts_on_the_slack_of_its_contiguous_copy(monkeypatch):
    # ``as_point`` hands the projection a contiguous copy of a strided
    # point, so the slack handed to its first step is the copy's (the spy
    # compares the bytes), and the projection is the copy's bit for bit.
    branch = warm_branch(monkeypatch)
    rng = np.random.default_rng(32)
    cold = 0
    for poly, inside in warm_polyhedra():
        for x in warm_points(rng, poly, inside):
            wide = np.stack([x, -x], axis=1)
            branch.clear()
            res = project_polyhedron(poly, wide[:, 0])
            cold += branch == ["cold"]
            ref = project_polyhedron(poly, x.copy())
            assert res.point.tobytes() == ref.point.tobytes() and res.dual.tobytes() == ref.dual.tobytes()
    assert cold >= 100


def test_warm_face_of_the_point_itself_is_a_hit(monkeypatch):
    # A hit is a continuation from the face that takes no active-set step.
    branch = warm_branch(monkeypatch)
    rng = np.random.default_rng(32)
    for poly, inside in warm_polyhedra():
        for x in warm_points(rng, poly, inside):
            _, face = _project_from(poly, x, None)
            if face is None:
                continue
            branch.clear()
            res, again = _project_from(poly, x, face)
            assert branch == ["continue"]
            assert_no_step_from(face, x, res, again)
            assert_matches_cold(poly, x, res)


def test_face_threaded_through_a_sequence_matches_cold_projections():
    # The engine's use: each projection starts from the face of the last.
    rng = np.random.default_rng(33)
    for poly, inside in warm_polyhedra():
        face = None
        x = inside + 5.0 * rng.normal(size=poly.dim)
        for _ in range(10):
            res, face = _project_from(poly, x, face)
            assert_matches_cold(poly, x, res)
            x = x + 0.3 * rng.normal(size=poly.dim)


def test_empty_polyhedron_raises_from_a_warm_face(monkeypatch):
    branch = warm_branch(monkeypatch)
    origin = np.zeros(2)  # ``_project_from`` takes validated points
    _, face = _project_from(Polyhedron([[1.0, 0.0]], [-1.0]), origin, None)
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])  # x <= -1 and x >= 1
    branch.clear()
    with pytest.raises(EmptyPolyhedron):
        _project_from(empty, origin, face)
    assert branch == ["continue"]


def assert_face_record(poly, face):
    """The slices ``face`` carries are its polyhedron's and its factor's, bit
    for bit: ``A_W`` and ``b_W`` are the working unit rows and offsets,
    ``Q1`` is the view ``Q[:, :k]`` (same memory and layout) and
    ``w = R^-T b_W`` as ``_project_from`` forms it."""
    W, k = face.W, len(face.W)
    b_W = poly._offsets[W]
    assert face.A_W.shape == (k, poly.dim) and face.A_W.tobytes() == poly._units[W].tobytes()
    assert face.b_W.shape == (k,) and face.b_W.tobytes() == b_W.tobytes()
    assert face.Q1.__array_interface__ == face.Q[:, :k].__array_interface__
    assert face.w.tobytes() == np.array(qp._substitute(face.R.T, b_W, lower=True)).tobytes()


def test_every_face_record_holds_its_slices_bit_for_bit(monkeypatch):
    # Faces from cold projections, faces of warm continuations that take no
    # active-set step and of those that take some, and faces that a walk (the
    # shifted LP solve's) starts from and ends on.  Each is checked again at
    # the end, after the later projections and walks that started from it:
    # those step on copies of ``Q``, so the view ``Q1`` still reads the
    # factor it was made with.
    branch = warm_branch(monkeypatch)
    made = []  # (polyhedron, face, bytes of Q1 when the face was made)
    seen = {"cold": 0, "no step": 0, "continue": 0, "walk": 0}

    def keep(poly, face):
        assert_face_record(poly, face)
        made.append((poly, face, face.Q1.tobytes()))

    rng = np.random.default_rng(34)
    for poly, inside in warm_polyhedra():
        points = warm_points(rng, poly, inside)
        faces = []
        for y in points:
            start, face = _project_from(poly, y, None)
            if face is None:
                continue
            keep(poly, face)
            faces.append(face)
            seen["cold"] += 1
            direction = rng.normal(size=poly.dim)
            walked, end_face = qp._walk_from(poly, start, face, direction, 10.0)
            keep(poly, end_face)
            seen["walk"] += walked.iterations - start.iterations > 1
        for x in points:
            for face in faces:
                branch.clear()
                res, new_face = _project_from(poly, x, face)
                if branch == ["continue"]:
                    seen["continue" if res.iterations else "no step"] += 1
                    keep(poly, new_face)
    for poly, face, q1 in made:
        assert_face_record(poly, face)
        assert face.Q1.tobytes() == q1
    assert min(seen.values()) >= 50, seen


def test_projection_past_its_step_cap_raises(monkeypatch):
    # A cap of 0 active-set steps: a point outside the box needs one.
    monkeypatch.setattr(linalg, "_STEPS_PER_DIM", 0)
    with pytest.raises(NotConverged, match="^projection took more than 0 active-set steps$"):
        project_polyhedron(unit_box(), [3.0, 0.5])


def test_clamped_multipliers_are_numpys_maximum_bit_for_bit():
    # -0.0 is the case ``max(v, 0.0)`` gets wrong: it keeps -0.0, which
    # NumPy's maximum turns into 0.0.
    tiny = np.nextafter(0.0, 1.0)
    values = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, -1.5, 2.0, tiny, -tiny, 1e308, -1e-308]
    got = np.array(qp._clamped(values))
    assert got.tobytes() == np.maximum(values, 0.0).tobytes()


def test_triangular_substitution_matches_a_lapack_solve():
    # ``qp._substitute`` replaces ``np.linalg.solve`` on the face factor.  It
    # sums in another order, so the two agree only up to rounding: 1e-13
    # relative on these well-conditioned triangles (|diagonal| >= 0.5).
    rng = np.random.default_rng(34)
    for k in range(0, 9):
        for _ in range(20):
            diagonal = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
            T = np.triu(rng.normal(size=(k, k)), 1) + np.diag(diagonal)
            y = rng.normal(size=k)
            for M, lower in ((T, False), (T.T, True)):
                got = np.array(qp._substitute(M, y, lower=lower))
                want = np.linalg.solve(M, y) if k else np.zeros(0)
                assert got.shape == (k,)
                assert norm(got - want) <= 1e-13 * (1.0 + norm(want))


def test_walk_past_its_cap_raises(monkeypatch, tmp_path, capsys):
    # A cap of 0 face changes: every walk that has to move raises, through
    # the library and through the CLI's shifted LP solve.
    monkeypatch.setattr(qp, "_WALK_STEPS_PER_ROW", 0)
    box, base = unit_box(), np.array([0.5, 0.0])
    with pytest.raises(NotConverged):
        project_along_ray(box, base, [1.0, 0.0], 5.0)
    problem = tmp_path / "lp.json"
    problem.write_text(json.dumps({"c": [-1, 0], "A": box.A.tolist(), "b": [1, 0, 1, 0], "M": -2.0}))
    assert main(["lp", str(problem), "--strategy", "shifted"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # A zero offset walks no face and returns the projection of the base.
    res = project_along_ray(box, base + 3.0, [1.0, 0.0], 0.0)
    ref = project_polyhedron(box, base + 3.0)
    assert np.array_equal(res.point, ref.point) and np.array_equal(res.dual, ref.dual)


def test_an_endless_walk_stops_on_the_first_still_face_where_no_multiplier_falls():
    # On the unit box [0, 1]^2, (2, 2) projects onto the vertex (1, 1) with
    # both upper rows working.  Along (1, -1) the point stands still there
    # while the multiplier of y <= 1 falls, so the walk passes that face and
    # goes on to (1, 0), where the point stands still and no multiplier
    # falls.  From the vertex itself, with no working row, it ends there too.
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 0.0, 0.0])
    direction = np.array([1.0, -1.0])
    for base in ([1.0, 1.0], [2.0, 2.0]):
        end, face = qp._walk_from(box, *_project_from(box, np.array(base), None), direction, math.inf)
        assert end.point.tolist() == [1.0, 0.0] and face.W == [0, 3]
        assert np.array_equal(end.point, project_along_ray(box, base, direction, 1e6).point)
    # Below the line y = 0 the projection of (0, 1) stands still along
    # (0, 1) and moves forever along (1, 0), with no face change ahead.
    below = Polyhedron([[0.0, 1.0]], [0.0])
    start = _project_from(below, np.array([0.0, 1.0]), None)
    end, face = qp._walk_from(below, *start, np.array([0.0, 1.0]), math.inf)
    assert end.point.tolist() == [0.0, 0.0] and face.W == [0]
    with pytest.raises(Unbounded):
        qp._walk_from(below, *start, np.array([1.0, 0.0]), math.inf)


def test_qp_calls_no_np_linalg():
    # The projection and the walk read every solve off the kept QR factor
    # (``_substitute`` and the factor updates) and every norm off
    # ``linalg._norm``: no call into ``np.linalg`` is left in ``qp``.
    # ``.linalg`` is the package's own module; ``numpy.linalg`` is not.
    path = Path(__file__).resolve().parent.parent / "src" / "altproj" / "qp.py"
    uses = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and "linalg" in ast.unparse(node.func).split(".")[:-1]:
            uses.add(ast.unparse(node.func))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and "linalg" in node.module:
            uses.add(node.module)
    assert uses == set()
