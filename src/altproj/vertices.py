"""Vertex enumeration and the brute-force LP oracle.

Every n-subset of rows is solved as a square system and the feasible
solutions are kept with their full active row sets.  This gives independent
ground truth at desk scale (n <= 8, m <= 24) for the LP solver and the
vertex-based constants of :mod:`altproj.certify`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionMismatch, EmptyPolyhedron, TooLarge, Unbounded, ZeroVector
from .linalg import ZERO_TOL, as_point, unit_cone_distance
from .sets import Polyhedron

_MAX_ORACLE_DIM = 8
_MAX_ORACLE_ROWS = 24


def check_oracle_limits(p: Polyhedron) -> None:
    if p.dim > _MAX_ORACLE_DIM or p.num_rows > _MAX_ORACLE_ROWS:
        raise TooLarge(
            f"enumeration limits are n <= {_MAX_ORACLE_DIM}, m <= {_MAX_ORACLE_ROWS}"
        )


def feasible_vertices(p: Polyhedron):
    """All vertices of ``p`` with their full active row sets.

    Enumerates every n-subset of rows, solves the square system, keeps
    feasible solutions, and deduplicates.  Returns a list of
    ``(vertex, active_indices)`` where ``active_indices`` holds every row
    tight at the vertex (which exceeds n at degenerate vertices).
    """
    check_oracle_limits(p)
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


def vertex_oracle(p: Polyhedron, c) -> tuple[float, np.ndarray]:
    """Brute-force LP solve: enumerate all row subsets of size n.

    Returns ``(optimum, argmin_vertex)``.  Raises :class:`TooLarge` beyond
    desk scale (n > 8 or m > 24), :class:`Unbounded` when ``-c`` is not in
    the cone of the rows (the objective then decreases along a recession
    direction), and :class:`EmptyPolyhedron` when no feasible vertex exists.
    """
    c = as_point(c)
    if c.shape[0] != p.dim:
        raise DimensionMismatch("objective and polyhedron dimensions differ")
    check_oracle_limits(p)
    # Bounded below on a nonempty polyhedron iff -c lies in the cone of the
    # outward row normals (dual feasibility).
    nc = float(np.linalg.norm(c))
    if nc <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    if unit_cone_distance(-c / nc, np.ascontiguousarray(p.A.T)) > 1e-8:
        raise Unbounded("objective decreases along a recession direction")

    best_obj = np.inf
    best_vertex = None
    for v, _ in feasible_vertices(p):
        obj = float(c @ v)
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_vertex = v
    if best_vertex is None:
        raise EmptyPolyhedron("no feasible vertex (empty or non-pointed feasible set)")
    return best_obj, best_vertex
