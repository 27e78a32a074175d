"""Reference fixtures and random instance generators.

The planar fixtures pair the lower half-plane ``{(u, v) : v <= 0}`` with a
translated epigraph; they exercise every convergence regime the package
certifies (linear rate, finite steps, one-step threshold, and the
asymptotic-only parabola).  The random generators build bounded nonempty
polyhedra by construction: an interior point, random supporting rows with
positive slack, and an enclosing box.  :func:`random_set` and
:func:`sample_member` feed the projection property checks of
:mod:`altproj.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LPProblem
from .sets import ABS, SQUARE, EpigraphSet, HalfSpace, Polyhedron, project
from .vertices import vertex_oracle


def lower_halfplane() -> HalfSpace:
    """``{(u, v) : v <= 0}``."""
    return HalfSpace(np.array([0.0, 1.0]), 0.0)


def absval_epigraph(k: float = 0.0) -> EpigraphSet:
    """``{(u, v) : v >= |u|}`` shifted up by ``k``."""
    return EpigraphSet(ABS, np.array([0.0, k]))


def absval_polyhedron(k: float = 0.0) -> Polyhedron:
    """Polyhedral form of :func:`absval_epigraph`: ``u - v <= -k, -u - v <= -k``."""
    return Polyhedron(np.array([[1.0, -1.0], [-1.0, -1.0]]), np.array([-k, -k]))


def parabola_epigraph(k: float = 0.0) -> EpigraphSet:
    """``{(u, v) : v >= u^2}`` shifted up by ``k``."""
    return EpigraphSet(SQUARE, np.array([0.0, k]))


def absval_distance(x: float, k: float) -> float:
    """Closed-form ``d((x, 0), absval_epigraph(k))``.

    The apex ``(0, k)`` is nearest when ``|x| <= k``; otherwise the foot on
    the boundary ray is, at distance ``(|x| + k) / sqrt(2)``.
    """
    x = abs(x)
    if x <= k:
        return math.hypot(x, k)
    return (x + k) / math.sqrt(2.0)


@dataclass
class PairInstance:
    """A polyhedron / half-space pair at known positive distance."""

    halfspace: HalfSpace
    poly: Polyhedron
    x0: np.ndarray
    d_ab: float


def random_bounded_polyhedron(rng: np.random.Generator, n: int, extra_rows: int):
    """Bounded nonempty polyhedron with a known interior point.

    Returns ``(poly, interior)``.  Rows are ``extra_rows`` random unit
    normals with slack at the interior point plus the ``2 n`` box rows that
    force boundedness.
    """
    interior = rng.normal(size=n)
    rows = []
    rhs = []
    for _ in range(extra_rows):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        rows.append(a)
        rhs.append(float(a.dot(interior)) + rng.uniform(0.3, 2.0))
    half_width = rng.uniform(1.0, 3.0)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(float(interior[j]) + half_width)
        rows.append(-e)
        rhs.append(-(float(interior[j]) - half_width))
    return Polyhedron(np.array(rows), np.array(rhs)), interior


def random_set(rng: np.random.Generator):
    """One of the four set kinds, each with probability 1/4.

    A unit-normal half-space or a bounded polyhedron with up to three extra
    rows in dimension 2..4, or a randomly shifted planar ``abs`` or
    ``square`` epigraph.
    """
    kind = rng.integers(0, 4)
    if kind == 0:
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        c /= np.linalg.norm(c)
        return HalfSpace(c, float(rng.normal()))
    if kind == 1:
        n = int(rng.integers(2, 5))
        poly, _ = random_bounded_polyhedron(rng, n, int(rng.integers(0, 4)))
        return poly
    if kind == 2:
        return EpigraphSet(ABS, rng.normal(size=2))
    return EpigraphSet(SQUARE, rng.normal(size=2))


def sample_member(rng: np.random.Generator, s) -> np.ndarray:
    """A random point of ``s``.

    Epigraph points lie above the profile by ``|N(0, 1)|``; for the other
    sets a random point is projected onto the set.
    """
    x = rng.normal(size=s.dim) * 2.0
    if isinstance(s, EpigraphSet):
        z = x - s.shift
        profile = abs(z[0]) if s.kind == ABS else z[0] * z[0]
        z[1] = profile + abs(rng.normal())
        return z + s.shift
    return project(s, x)


def _objective_for(rng: np.random.Generator, poly: Polyhedron) -> np.ndarray:
    # Resample until no row is nearly antiparallel to c.  Such rows are
    # legitimate geometry but make the iteration creep at a rate arbitrarily
    # close to 1, which is useless as a randomized test case.
    row_hats = poly.A / np.linalg.norm(poly.A, axis=1, keepdims=True)
    while True:
        c = rng.normal(size=poly.dim)
        c /= np.linalg.norm(c)
        cos = row_hats.dot(c)
        ray_dist = np.where(cos > 0.0, 1.0, np.sqrt(np.maximum(0.0, 1.0 - cos * cos)))
        if float(ray_dist.min()) >= 0.05:
            return c


def random_pair_instance(rng: np.random.Generator) -> PairInstance:
    """The LP of :func:`random_lp_instance` as a pair at a random positive distance."""
    problem, optimum, _ = random_lp_instance(rng)
    delta = rng.uniform(0.5, 2.5)
    halfspace = HalfSpace(problem.c, optimum - delta)
    # <c, x0> = M - s with s > 0 keeps the start inside the half-space.
    x0 = (halfspace.M - rng.uniform(0.5, 5.0)) * problem.c
    return PairInstance(halfspace, problem.poly, x0, delta)


def random_lp_instance(rng: np.random.Generator):
    """Random bounded LP with ``M`` one unit below the oracle optimum.

    Returns ``(problem, optimum, argmin_vertex)``.
    """
    n = int(rng.integers(2, 5))
    extra = int(rng.integers(0, 13 - 2 * n))
    poly, _ = random_bounded_polyhedron(rng, n, extra)
    c = _objective_for(rng, poly)
    optimum, vertex = vertex_oracle(poly, c)
    problem = LPProblem(c, poly, optimum - 1.0)
    return problem, optimum, vertex
