import itertools
import math

import numpy as np
import pytest

from altproj import (
    Ray,
    ZeroVector,
    distance_to_finite_cone,
    distance_to_ray,
    nnls,
    norm,
    verify,
)


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


def test_norm_examples():
    assert norm([3, 4]) == pytest.approx(5.0)
    assert norm([0, 0]) == 0.0
    assert norm([1, 1]) == pytest.approx(math.sqrt(2.0))


def test_ray_requires_nonzero_direction():
    with pytest.raises(ZeroVector):
        Ray([0.0, 1e-13])


def test_distance_to_ray_examples():
    assert distance_to_ray([0, 1], Ray([0, 1])) == 0.0
    assert distance_to_ray([1, 0], Ray([0, 1])) == 1.0
    # <v,u> = 1 > 0, ||v||^2 = 2: sqrt(1 - 1/2)
    assert distance_to_ray([1, -1], Ray([0, -1])) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_distance_to_ray_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        distance_to_ray([0.0, 0.0], Ray([1.0, 0.0]))


def test_distance_to_ray_matches_scan_oracle():
    # min over t >= 0 of ||v/||v|| - t u|| on a fine grid.
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        v = rng.normal(size=n)
        u = rng.normal(size=n)
        if norm(v) < 1e-6 or norm(u) < 1e-6:
            continue
        vhat = v / np.linalg.norm(v)
        ts = np.linspace(0.0, 5.0 / np.linalg.norm(u), 20001)
        brute = min(np.linalg.norm(vhat - t * u) for t in ts)
        assert distance_to_ray(v, Ray(u)) == pytest.approx(brute, abs=1e-3)
        assert distance_to_ray(v, Ray(u)) <= brute + 1e-12


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
        if norm(v) < 1e-6:
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
