"""Vertex enumeration and the brute-force LP oracle.

Every n-subset of rows is solved as a square system and the feasible
solutions are kept with their full active row sets.  The vertex list gives
alpha its cone family for n >= 3 (:mod:`altproj.certify`), its one use in
an answer of the package.  The oracle gives independent ground truth at
desk scale (n <= 8, m <= 24): the tests and the benchmark compare the LP
solver and ``d(A, B)`` against it, and :mod:`altproj.instances` draws the
random LPs' ``M`` from it.  No answer reads the oracle: the package's LP
optimum is the walk of :func:`altproj.qp._walk_to_optimum`, which has no
size limit and needs no vertex.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import EmptyPolyhedron, TooLarge, Unbounded, ZeroVector
from .linalg import ZERO_TOL, _entry_norm, as_point, unit_cone_distance
from .qp import _project_from
from .sets import Polyhedron

_MAX_ORACLE_DIM = 8
_MAX_ORACLE_ROWS = 24
# Square subsystems solved per stacked call in feasible_vertices.
_BLOCK = 8192


def check_oracle_limits(p: Polyhedron) -> None:
    if p.dim > _MAX_ORACLE_DIM or p.num_rows > _MAX_ORACLE_ROWS:
        raise TooLarge(
            f"enumeration limits are n <= {_MAX_ORACLE_DIM}, m <= {_MAX_ORACLE_ROWS}"
        )


def feasible_vertices(p: Polyhedron) -> tuple:
    """All vertices of ``p`` with their full active row sets.

    Solves every n-subset of rows as a square system and keeps the
    feasible solutions, deduplicated.  Returns a tuple of
    ``(vertex, active_indices)``, one per vertex, in the
    :func:`itertools.combinations` order of the first subset that reaches
    it; ``active_indices`` holds every row tight at the vertex (more than n
    at degenerate vertices).  The vertices are read-only.  The first call
    for ``p`` keeps the tuple on ``p``, and later calls return it.

    The subsets go in blocks of ``_BLOCK``, which bounds memory at the
    oracle limit (C(24, 8) = 735,471 subsets).  In each block the subsets
    whose LU factorisation meets an exact zero pivot are dropped (``slogdet``
    sign 0, the same test on which ``np.linalg.solve`` raises), the rest are
    solved in one stacked call, and the per-subset filters apply unchanged:
    finite entries, residual at most ``1e-8 (1 + max |rhs|)``, and
    ``A v <= b + 1e-7 (1 + ||v||)``.  Solutions are deduplicated on
    ``np.round(v, 9)`` in subset order, and the active set of a vertex is
    every row with slack at most ``1e-7 (1 + |b_i|)``.  The slacks of a
    block's new vertices come from one stacked product, which makes one
    matrix-vector call per vertex and so rounds exactly as ``A.dot(v)``.
    """
    if p._vertices is not None:
        return p._vertices
    check_oracle_limits(p)
    m, n = p.num_rows, p.dim
    combos = itertools.combinations(range(m), n)
    vertices = []
    seen = set()
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _BLOCK)), dtype=np.intp
        )
        if flat.size == 0:
            break
        subsets = flat.reshape(-1, n)
        rows, rhs = p.A[subsets], p.b[subsets]
        regular = np.linalg.slogdet(rows)[0] != 0
        rows, rhs = rows[regular], rhs[regular]
        v = np.linalg.solve(rows, rhs[..., None])[..., 0]
        finite = np.isfinite(v).all(axis=1)
        rows, rhs, v = rows[finite], rhs[finite], v[finite]
        resid = np.abs(np.einsum("kij,kj->ki", rows, v) - rhs).max(axis=1)
        v = v[resid <= 1e-8 * (1.0 + np.abs(rhs).max(axis=1))]
        tol = 1e-7 * (1.0 + np.linalg.norm(v, axis=1))
        v = v[(v @ p.A.T <= p.b + tol[:, None]).all(axis=1)]
        new = []
        for j, key in enumerate(map(tuple, np.round(v, 9).tolist())):
            if key not in seen:
                seen.add(key)
                new.append(j)
        v = v[new]
        v.flags.writeable = False
        slack = np.abs((p.A @ v[..., None])[..., 0] - p.b)
        for vertex, mask in zip(v, slack <= 1e-7 * (1.0 + np.abs(p.b))):
            vertices.append((vertex, tuple(np.flatnonzero(mask).tolist())))
    object.__setattr__(p, "_vertices", tuple(vertices))
    return p._vertices


def vertex_oracle(p: Polyhedron, c) -> tuple[float, np.ndarray]:
    """Brute-force LP solve over :func:`feasible_vertices`.

    Returns ``(optimum, argmin_vertex)``, the vertex a copy.  Raises
    :class:`TooLarge` beyond desk scale (n > 8 or m > 24), before any
    enumeration.  When ``-c`` is not in the cone of the rows, the objective
    decreases along a recession direction of the polyhedron if it is
    nonempty.  One projection of the origin
    (:func:`~altproj.qp._project_from`) decides that, for rows of any rank:
    it raises :class:`EmptyPolyhedron` on an empty polyhedron, and every
    other such case raises :class:`Unbounded`.  A bounded objective raises
    :class:`EmptyPolyhedron` when no vertex exists.
    """
    c = as_point(c, p.dim)
    check_oracle_limits(p)
    # Bounded below on a nonempty polyhedron iff -c lies in the cone of the
    # outward row normals (dual feasibility).
    nc = _entry_norm(c)
    if nc <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    if unit_cone_distance(-c / nc, np.ascontiguousarray(p.A.T)) > 1e-8:
        _project_from(p, np.zeros(p.dim), None)
        raise Unbounded("objective decreases along a recession direction")

    best_obj = np.inf
    best_vertex = None
    for v, _ in feasible_vertices(p):
        obj = float(c.dot(v))
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_vertex = v
    if best_vertex is None:
        raise EmptyPolyhedron("no feasible vertex (empty or non-pointed feasible set)")
    return best_obj, best_vertex.copy()
