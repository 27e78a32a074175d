import numpy as np
import pytest

from altproj import (
    DimensionMismatch,
    EmptyPolyhedron,
    EpigraphSet,
    HalfSpace,
    Polyhedron,
    norm,
    project_epigraph,
    project_halfspace,
    project_polyhedron,
    verify,
)
from altproj.instances import random_bounded_polyhedron
from altproj.qp import project_along_ray


def unit_box():
    return Polyhedron(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    )


def test_box_clamp_example():
    res = project_polyhedron(unit_box(), [2, 0])
    np.testing.assert_allclose(res.point, [1, 0], atol=1e-12)
    assert res.residual <= 1e-10


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
