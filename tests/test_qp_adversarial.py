"""Seeded adversarial geometry for the polyhedron projection.

The KKT conditions certify the optimum of a convex QP, so each case checks
stationarity ``x - z = A' lam``, ``lam >= 0``, primal feasibility and
complementarity instead of comparing against an oracle.  The tolerances are
those of the ``far_projection`` benchmark check up to distance 1e4; beyond
that they scale with ``||x|| / 1e4``, because the rounding in ``x - z``
grows with ``||x||``.
"""

import numpy as np
import pytest

from altproj import EmptyPolyhedron, Polyhedron, project_polyhedron
from altproj.instances import random_bounded_polyhedron
from altproj.qp import project_along_ray

STATIONARITY_TOL = 1e-6
DUAL_TOL = 1e-10
VIOLATION_TOL = 1e-8
COMPLEMENTARITY_TOL = 1e-6


def assert_kkt(poly, x, res):
    scale = max(1.0, float(np.linalg.norm(x)) / 1e4)
    slack = poly.A @ res.point - poly.b
    assert np.linalg.norm(x - res.point - poly.A.T @ res.dual) <= STATIONARITY_TOL * scale
    assert float(res.dual.min()) >= -DUAL_TOL
    assert float(slack.max()) <= VIOLATION_TOL * scale
    assert float(np.abs(res.dual * slack).max()) <= COMPLEMENTARITY_TOL * scale


def random_poly(rng):
    n = int(rng.integers(2, 5))
    return random_bounded_polyhedron(rng, n, int(rng.integers(0, 13 - 2 * n)))


def unit(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def tilted(rng, a, angle):
    """Unit row at ``angle`` radians from the unit row ``a``."""
    w = rng.normal(size=a.shape[0])
    w -= (w @ a) * a
    w /= np.linalg.norm(w)
    return np.cos(angle) * a + np.sin(angle) * w


def test_far_points_satisfy_kkt():
    rng = np.random.default_rng(401)
    for _ in range(40):
        poly, interior = random_poly(rng)
        u = unit(rng, poly.dim)
        for r in (1e3, 1e4, 1e5):
            x = interior + r * u
            assert_kkt(poly, x, project_polyhedron(poly, x))


def test_nearly_parallel_rows():
    rng = np.random.default_rng(402)
    for angle in (1e-6, 1e-7, 1e-8, 1e-9):
        for _ in range(25):
            poly, interior = random_poly(rng)
            i = int(rng.integers(0, poly.num_rows))
            a = poly.A[i] / np.linalg.norm(poly.A[i])
            # Two rows tilted from row i through one point just outside the
            # interior point (a wedge with a nearly flat edge), and a nearly
            # antiparallel row just inside it: a thin, slightly tilted slab.
            top = interior + 0.2 * a
            par1, par2, anti = tilted(rng, a, angle), tilted(rng, a, angle), tilted(rng, -a, angle)
            rows = np.vstack([poly.A, par1, par2, anti])
            rhs = np.concatenate([poly.b, [par1 @ top, par2 @ top, anti @ (interior - 0.2 * a)]])
            near = Polyhedron(rows, rhs)
            for r in (1e-3, 1.0, 1e2, 1e4):
                x = top + r * (a + 0.3 * unit(rng, poly.dim))
                assert_kkt(near, x, project_polyhedron(near, x))
                # In the normal cone of the edge: both tilted rows are tight.
                x = top + r * (rng.uniform(0.2, 1.0) * par1 + rng.uniform(0.2, 1.0) * par2)
                assert_kkt(near, x, project_polyhedron(near, x))


def test_duplicate_and_redundant_rows():
    rng = np.random.default_rng(403)
    for _ in range(60):
        poly, interior = random_poly(rng)
        A, b = poly.A, poly.b
        m = poly.num_rows
        i, j = (int(k) for k in rng.choice(m, size=2, replace=False))
        w = rng.uniform(0.1, 1.0, size=2)
        rows = np.vstack([A, A[i], 3.0 * A[i], A[j], w @ A[[i, j]]])
        rhs = np.concatenate([b, [b[i], 3.0 * b[i], b[j] + 0.5, w @ b[[i, j]]]])
        perm = rng.permutation(len(rhs))
        dup = Polyhedron(rows[perm], rhs[perm])
        for r in (0.5, 10.0, 1e3):
            x = interior + r * unit(rng, poly.dim)
            res = project_polyhedron(dup, x)
            assert_kkt(dup, x, res)
            # The extra rows cut nothing off, so the point is the same.
            np.testing.assert_allclose(res.point, project_polyhedron(poly, x).point, atol=1e-9)


def test_degenerate_vertex_with_more_than_n_active_rows():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(n + 1, 2 * n + 4))
        apex = rng.normal(size=n)
        # Rows through the apex whose normals all lean toward +e_0, so the
        # apex is a vertex with k > n active rows of a pointed cone.
        rows = np.array([unit(rng, n) + 2.0 * np.eye(n)[0] for _ in range(k)])
        rhs = rows @ apex
        cone = Polyhedron(rows, rhs)
        mu = rng.uniform(0.0, 1.0, size=k) * (rng.uniform(size=k) < 0.6)
        mu[int(rng.integers(0, k))] += 0.1
        for r in (1.0, 1e2, 1e4):
            # In the normal cone of the apex: the apex is the projection.
            x = apex + r * rows.T @ mu
            res = project_polyhedron(cone, x)
            assert_kkt(cone, x, res)
            np.testing.assert_allclose(res.point, apex, atol=1e-9 * max(1.0, r))
            # Anywhere else.
            x = apex + r * unit(rng, n)
            assert_kkt(cone, x, project_polyhedron(cone, x))


def test_thin_slabs():
    rng = np.random.default_rng(405)
    for width in (1e-3, 1e-6, 1e-9):
        for _ in range(25):
            poly, interior = random_poly(rng)
            a = unit(rng, poly.dim)
            top = float(a @ interior)
            rows = np.vstack([poly.A, a, -a])
            rhs = np.concatenate([poly.b, [top, width - top]])
            slab = Polyhedron(rows, rhs)
            for r in (1e-2, 1.0, 1e2, 1e4):
                x = interior + r * unit(rng, poly.dim)
                res = project_polyhedron(slab, x)
                assert_kkt(slab, x, res)
                assert top - width - 1e-8 <= a @ res.point <= top + 1e-8


def test_empty_polyhedra_raise():
    rng = np.random.default_rng(406)
    for _ in range(40):
        poly, interior = random_poly(rng)
        n, m = poly.dim, poly.num_rows
        i = int(rng.integers(0, m))
        gap = float(rng.choice([1e-6, 1e-2, 1.0, 1e3]))
        # Row i and its reverse, shifted past it by ``gap``.
        rows = np.vstack([poly.A, -poly.A[i]])
        rhs = np.concatenate([poly.b, [-poly.b[i] - gap]])
        # n + 1 rows with a positive combination summing to zero.
        ring = np.array([unit(rng, n) for _ in range(n)])
        ring = np.vstack([ring, -rng.uniform(0.5, 2.0, size=n) @ ring])
        for empty in (Polyhedron(rows, rhs), Polyhedron(ring, -np.ones(n + 1))):
            for r in (0.0, 1.0, 1e3):
                with pytest.raises(EmptyPolyhedron):
                    project_polyhedron(empty, interior + r * unit(rng, n))


def test_agrees_with_face_walk_up_to_1e4():
    rng = np.random.default_rng(407)
    for _ in range(40):
        poly, interior = random_poly(rng)
        base = interior + rng.normal(size=poly.dim)
        direction = unit(rng, poly.dim)
        for t in (1e1, 1e2, 1e3, 1e4):
            walked = project_along_ray(poly, base, direction, t)
            direct = project_polyhedron(poly, base + t * direction)
            assert_kkt(poly, base + t * direction, direct)
            np.testing.assert_allclose(direct.point, walked.point, atol=1e-9)
