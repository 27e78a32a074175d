import numpy as np
import pytest
from numpy.linalg import norm

from altproj import (
    DimensionMismatch,
    EpigraphSet,
    HalfSpace,
    PointNotInSet,
    Polyhedron,
    certify,
    contains,
    distance_to_finite_cone,
    polyhedron_halfspace_distance,
    project,
    project_epigraph,
    project_halfspace,
    proximal_normal_generators,
    set_from_json,
    set_to_json,
    verify,
    vertex_oracle,
)
from altproj.instances import random_set


def test_contains_examples():
    assert contains(HalfSpace([0, 1], 0.0), [5, -1])
    assert not contains(EpigraphSet("abs", [0, 0]), [1, 0.5])
    poly = Polyhedron([[1, -1], [-1, -1]], [0, 0])
    assert contains(poly, [0, 0])


def test_contains_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(HalfSpace([0, 1], 0.0), [1, 2, 3])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_a_half_space_tolerance_is_a_distance(scale):
    # {<(3, 4), x> <= 5} lies at distance 1 from the origin along (0.6, 0.8),
    # written at three scales.  The default tolerance, 1e-8, is a distance
    # to that line at each: a point 0.5e-8 past it is in the set, on the
    # boundary, and a point 2e-8 past it is not.
    h = HalfSpace([3.0 * scale, 4.0 * scale], 5.0 * scale)
    past = [(1.0 + d) * np.array([0.6, 0.8]) for d in (0.5e-8, 2e-8)]
    assert contains(h, past[0]) and not contains(h, past[1])
    assert len(proximal_normal_generators(h, past[0])) == 1
    assert proximal_normal_generators(h, [0.0, 0.0]) == []


def test_project_halfspace_examples():
    h = HalfSpace([0, 1], 0.0)
    np.testing.assert_allclose(project_halfspace(h, [3, -2]), [3, -2])
    np.testing.assert_allclose(project_halfspace(h, [3, 2]), [3, 0])
    diag = HalfSpace([1, 1], 0.0)
    np.testing.assert_allclose(project_halfspace(diag, [1, 1]), [0, 0], atol=1e-15)


def test_project_absval_epigraph_apex_case():
    # min over the boundary ray t >= 0 of t^2 + (t+1)^2 is attained at the
    # apex; scanning both rays confirms.
    e = EpigraphSet("abs", [0, 0])
    p = project_epigraph(e, [0, -1])
    np.testing.assert_allclose(p, [0, 0], atol=1e-15)
    ts = np.linspace(0.0, 3.0, 30001)
    brute = min(
        min(np.hypot(t - 0.0, t + 1.0) for t in ts),
        min(np.hypot(-t - 0.0, t + 1.0) for t in ts),
    )
    assert norm(p - np.array([0.0, -1.0])) == pytest.approx(brute, abs=1e-8)


def test_project_parabola_examples():
    sq = EpigraphSet("square", [0, 0])
    np.testing.assert_allclose(project_epigraph(sq, [0, 2]), [0, 2])
    for k in (0.5, 1.0, 2.0):
        shifted = EpigraphSet("square", [0, k])
        np.testing.assert_allclose(project_epigraph(shifted, [0, 0]), [0, k], atol=1e-12)


def test_project_parabola_matches_boundary_scan():
    sq = EpigraphSet("square", [0, 0])
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=2) * 2.5
        if contains(sq, x):
            continue
        p = project_epigraph(sq, x)
        # The minimizing u lies between 0 and x[0].
        us = np.linspace(min(0.0, x[0]) - 0.5, max(0.0, x[0]) + 0.5, 200001)
        brute = np.hypot(us - x[0], us * us - x[1]).min()
        assert norm(p - x) == pytest.approx(brute, abs=1e-6)


def test_parabola_projection_with_multiple_stationary_points():
    # Deep outside points where the stationarity cubic has three real roots;
    # the projection must still pick the global minimizer.
    sq = EpigraphSet("square", [0, 0])
    for x in ([2.5, 4.0], [-2.5, 4.0], [3.0, 6.0]):
        p = project_epigraph(sq, x)
        us = np.linspace(-5.0, 5.0, 400001)
        brute = np.hypot(us - x[0], us * us - x[1]).min()
        assert norm(p - np.asarray(x, float)) == pytest.approx(brute, abs=1e-6)


def test_normal_generators_examples():
    h = HalfSpace([0, 1], 0.0)
    gens = proximal_normal_generators(h, [7, 0])
    assert len(gens) == 1
    np.testing.assert_allclose(gens[0], [0, 1])

    e = EpigraphSet("abs", [0, 0])
    gens = proximal_normal_generators(e, [1, 1])
    assert len(gens) == 1
    np.testing.assert_allclose(gens[0], [1, -1])

    sq = EpigraphSet("square", [0, 0])
    gens = proximal_normal_generators(sq, [1, 1])
    assert len(gens) == 1
    np.testing.assert_allclose(gens[0], [2, -1])


def test_normal_generators_abs_apex_spans_both_rays():
    e = EpigraphSet("abs", [0, 0])
    gens = proximal_normal_generators(e, [0, 0])
    assert len(gens) == 2
    assert distance_to_finite_cone([0, -1], gens) <= 1e-10


def test_normal_generators_parabola_apex():
    for k in (0.0, 1.0):
        sq = EpigraphSet("square", [0, k])
        gens = proximal_normal_generators(sq, [0, k])
        assert len(gens) == 1
        np.testing.assert_allclose(gens[0], [0, -1])


def test_normal_generators_interior_empty():
    assert proximal_normal_generators(HalfSpace([0, 1], 0.0), [0, -5]) == []
    assert proximal_normal_generators(EpigraphSet("abs", [0, 0]), [0, 5]) == []


def test_normal_generators_polyhedron_active_rows():
    poly = Polyhedron([[1, -1], [-1, -1]], [0, 0])
    gens = proximal_normal_generators(poly, [0, 0])
    assert len(gens) == 2
    gens = proximal_normal_generators(poly, [1, 1])
    assert len(gens) == 1
    np.testing.assert_allclose(gens[0], [1, -1])


def test_normal_generators_requires_membership():
    with pytest.raises(PointNotInSet):
        proximal_normal_generators(EpigraphSet("abs", [0, 0]), [0, -1])


def test_projection_idempotent_property():
    result = verify.projection_idempotent(np.random.default_rng(12), 300)
    assert result.ok, result.detail


def test_projection_optimality_sampled_property():
    result = verify.projection_optimal_sampled(np.random.default_rng(13), 100)
    assert result.ok, result.detail


def test_normal_cone_consistency_property():
    # x - P(x) must lie in the cone generated at the projection.
    result = verify.normal_cone_consistency(np.random.default_rng(14), 300)
    assert result.ok, result.detail


def test_translation_equivariance_property():
    result = verify.translation_equivariance(np.random.default_rng(15), 300)
    assert result.ok, result.detail


def test_set_json_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(20):
        s = random_set(rng)
        back = set_from_json(set_to_json(s))
        assert type(back) is type(s)
        x = rng.normal(size=s.dim) * 2.0
        np.testing.assert_allclose(project(back, x), project(s, x), atol=1e-12)


def test_set_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        set_from_json({"blob": {}})
    with pytest.raises(ValueError):
        set_from_json({"halfspace": {"c": [0, 1], "M": 0}, "extra": 1})


def equal_pairs():
    # Two equal sets of each type, built apart; the second of each pair has
    # -0.0 where the first has 0.0 and ints where it has floats.
    return [
        (HalfSpace([0.0, 1.0], 0.0), HalfSpace([-0.0, 1], -0.0)),
        (
            Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0]),
            Polyhedron(np.array([[1, -0.0], [0, 1]]), [-0.0, 2]),
        ),
        (EpigraphSet("abs", [0.0, 1.0]), EpigraphSet("abs", np.array([-0.0, 1.0]))),
    ]


def test_sets_compare_and_hash_by_value():
    # Before, == and != between two sets raised ValueError and hash raised
    # TypeError.
    for a, b in equal_pairs():
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a, b} == {a} and b in {a}
        assert set_from_json(set_to_json(b)) == a
    hs, poly, epi = (a for a, _ in equal_pairs())
    different = [
        (hs, HalfSpace([0.0, 1.0], 1.0)),
        (hs, HalfSpace([0.0, 2.0], 0.0)),
        (hs, HalfSpace([0.0, 1.0, 0.0], 0.0)),
        (poly, Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 3.0])),
        (poly, Polyhedron([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 2.0, 9.0])),
        (epi, EpigraphSet("square", [0.0, 1.0])),
        (epi, EpigraphSet("abs", [0.0, 2.0])),
        (hs, epi),
        (hs, (hs.c, hs.M)),
    ]
    for a, b in different:
        assert a != b and not a == b
    assert len({hs, poly, epi, *(b for _, b in different[:-1])}) == 10


def test_a_polyhedron_equals_its_copy_whatever_their_vertex_lists():
    # None of the kept vertex list, alpha's kept cone table and the kept
    # walk to the LP optimum is part of the value: not in ==, hash or repr.
    a, b = equal_pairs()[1]
    vertex_oracle(a, [-1.0, -1.0])
    assert a._vertices is not None and b._vertices is None
    assert a == b and hash(a) == hash(b)
    assert "_vertices" not in repr(a)
    certify._table_alpha(a, HalfSpace([1.0, 1.0], -5.0))
    assert a._cones is not None and b._cones is None
    assert a == b and hash(a) == hash(b)
    assert "_cones" not in repr(a)
    cube = Polyhedron(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6))
    copy = Polyhedron(cube.A, cube.b)
    certify._table_alpha(cube, HalfSpace([1.0, 2.0, 3.0], -10.0))
    assert cube._cones and copy._cones is None
    assert cube == copy and hash(cube) == hash(copy) and repr(cube) == repr(copy)
    polyhedron_halfspace_distance(cube, HalfSpace([1.0, 2.0, 3.0], -10.0))
    assert cube._walk is not None and copy._walk is None and Polyhedron(cube.A, cube.b)._walk is None
    assert cube == copy and hash(cube) == hash(copy) and repr(cube) == repr(copy)
    assert "_walk" not in repr(cube)
