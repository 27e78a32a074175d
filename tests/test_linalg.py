import itertools
import math

import numpy as np
import pytest

from altproj import (
    ZeroVector,
    distance_to_finite_cone,
    nnls,
    verify,
)
from altproj.linalg import unit_cone_distance, unit_distance_to_ray
from exact import cone_family_distance


def grid_cone_distance(v, generators, lam_max=4.0, steps=81):
    # Brute-force upper bound on d(v/||v||, cone(generators)) by scanning a
    # lambda grid; refined once around the best cell.
    vhat = np.asarray(v, float)
    vhat = vhat / np.linalg.norm(vhat)
    gens = [np.asarray(g, float) for g in generators]
    best = np.linalg.norm(vhat)
    grids = [np.linspace(0.0, lam_max, steps)] * len(gens)
    best_lam = None
    for lams in itertools.product(*grids):
        point = sum(l * g for l, g in zip(lams, gens))
        d = np.linalg.norm(vhat - point)
        if d < best:
            best, best_lam = d, lams
    if best_lam is not None:
        h = lam_max / (steps - 1)
        fine = [np.linspace(max(0.0, l - h), l + h, 41) for l in best_lam]
        for lams in itertools.product(*fine):
            point = sum(l * g for l, g in zip(lams, gens))
            best = min(best, np.linalg.norm(vhat - point))
    return best


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def test_distance_to_ray_examples():
    assert unit_distance_to_ray(unit([0, 1]), np.array([0.0, 1.0])) == 0.0
    assert unit_distance_to_ray(unit([1, 0]), np.array([0.0, 1.0])) == 1.0
    # <v,u> = 1 > 0, ||v||^2 = 2: sqrt(1 - 1/2)
    assert unit_distance_to_ray(unit([1, -1]), np.array([0.0, -1.0])) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_distance_to_ray_rejects_zero_vector():
    # A ray is the cone of one generator; the validating cone distance
    # refuses to normalise a zero target.
    with pytest.raises(ZeroVector):
        distance_to_finite_cone([0.0, 0.0], [[1.0, 0.0]])


def test_distance_to_ray_matches_scan_oracle():
    # min over t >= 0 of ||v/||v|| - t u|| on a fine grid.
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        v = rng.normal(size=n)
        u = rng.normal(size=n)
        if np.linalg.norm(v) < 1e-6 or np.linalg.norm(u) < 1e-6:
            continue
        vhat = v / np.linalg.norm(v)
        ts = np.linspace(0.0, 5.0 / np.linalg.norm(u), 20001)
        brute = min(np.linalg.norm(vhat - t * u) for t in ts)
        assert unit_distance_to_ray(vhat, u) == pytest.approx(brute, abs=1e-3)
        assert unit_distance_to_ray(vhat, u) <= brute + 1e-12


def test_ray_symmetry_property():
    result = verify.ray_symmetry(np.random.default_rng(0), 1000)
    assert result.ok, result.detail


def test_ray_scale_invariance_property():
    result = verify.ray_scale_invariance(np.random.default_rng(1), 1000)
    assert result.ok, result.detail


def test_cone_distance_examples():
    assert distance_to_finite_cone([0, 1], []) == 1.0
    assert distance_to_finite_cone([0, 1], [[0, 2]]) == pytest.approx(0.0, abs=1e-12)
    # (0,-2) = (1,-1) + (-1,-1), so the normalized target is in the cone.
    gens = [[1, -1], [-1, -1]]
    assert distance_to_finite_cone([0, -1], gens) == pytest.approx(0.0, abs=1e-10)
    assert grid_cone_distance([0, -1], gens) == pytest.approx(0.0, abs=1e-3)


def test_cone_distance_never_exceeds_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        v = rng.normal(size=n)
        if np.linalg.norm(v) < 1e-6:
            continue
        gens = [rng.normal(size=n) for _ in range(2)]
        solved = distance_to_finite_cone(v, gens)
        brute = grid_cone_distance(v, gens)
        assert solved <= brute + 1e-9


def test_cone_single_generator_matches_ray():
    result = verify.cone_single_generator(np.random.default_rng(3), 1000)
    assert result.ok, result.detail


def test_cone_distance_monotone_in_generators():
    result = verify.cone_monotone(np.random.default_rng(4), 200)
    assert result.ok, result.detail


class ZeroVectorFirst:
    """A stand-in generator whose first ``normal`` draw is all zeros; every
    other draw, and the count of ``normal`` calls, comes from ``rng``."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        draw = self.rng.normal(*args, **kwargs)
        return np.zeros_like(draw) if self.normal_calls == 1 else draw


def test_cone_monotone_skips_a_zero_direction():
    # A zero v has no unit direction: the row skips that case, drawing no
    # generators for it, and still passes on the case after it (one v and
    # four generators).
    rng = ZeroVectorFirst(np.random.default_rng(4))
    result = verify.cone_monotone(rng, 2)
    assert result.ok, result.detail
    assert rng.normal_calls == 1 + 5


def test_nnls_satisfies_kkt():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        G = rng.normal(size=(n, m))
        y = rng.normal(size=n)
        lam, rnorm = nnls(G, y)
        assert np.all(lam >= 0.0)
        resid = y - G @ lam
        assert rnorm == pytest.approx(float(np.linalg.norm(resid)), abs=1e-12)
        grad = G.T @ resid  # positive gradient entries would allow descent
        assert float(grad.max(initial=0.0)) <= 1e-7
        assert float(np.abs(grad[lam > 1e-10]).max(initial=0.0)) <= 1e-7


def test_cone_distance_is_the_least_positive_face_residual():
    # The nearest point of a cone is a positive combination of independent
    # generators and their least-squares projection, so the distance is the
    # least residual over the subsets whose exact least-squares coefficients
    # are all positive (1 with none).  alpha reads its cones this way.
    rng = np.random.default_rng(2024)
    for _ in range(150):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        G = rng.normal(size=(n, k))
        G /= np.linalg.norm(G, axis=0)
        # Half the targets lean into the cone, so that more faces are hit.
        v = rng.normal(size=n) + (G @ rng.random(k) if rng.random() < 0.5 else 0.0)
        v /= np.linalg.norm(v)
        subsets = [s for size in range(1, k + 1) for s in itertools.combinations(range(k), size)]
        exact = cone_family_distance(v, G.T, subsets)
        assert abs(unit_cone_distance(v, G) - math.sqrt(exact)) <= 1e-14
