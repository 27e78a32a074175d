"""Computable convergence constants for a polyhedron / half-space pair.

For ``A = {x : <c, x> <= M}`` and ``B = {x : Ax <= b}`` the angle constant

    alpha = 0.5 * min(1, min_K d(-c/||c||, K))

taken over the realizable proximal normal cones ``K`` of B that do not
contain ``-c`` (min over an empty family is +inf) drives a per-cycle
contraction of the step gaps by ``1 - alpha^2``.  That yields a finite
bound on the number of projections needed to attain the minimum distance,
a threshold under which a single projection pair suffices, and a shift of
the half-space that forces that threshold.

alpha is read off the LP optimum: at a simple optimal vertex ``x*`` the
least distance is that from ``-c/||c||`` to the boundary of the normal
cone of ``x*``, its nearest facet hyperplane, read off one QR factor of the
vertex's n working rows.  No vertex list is read and nothing is kept.  The
pairs whose optimum is not a simple vertex, whose working rows are nearly
dependent, or whose walk is unbounded, take a kept table of candidate
cones instead, read by one least-squares solve per cone: the nearest point
of a polyhedral cone is the least-squares projection onto the rows of one
of its faces with every coefficient positive, and the family holds every
such face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDistance, NotPolyhedralPair, Unbounded
from .linalg import _dot_row_norms, _dot_rows, _entry_norm, _norm, _real_scalar, as_point, unit_cone_distance
from .qp import _kept_walk, _walk_to_optimum, project_polyhedron
from .sets import ACTIVE_TOL, HalfSpace, Polyhedron, _active, _check_dims, _check_start
from .vertices import feasible_vertices

# Margin for strict-inequality tests on normalized inner products, so that
# floating-point ties cannot silently flip membership decisions.
_STRICT_MARGIN = 1e-10
# Cones at most this far from -c/||c|| contain it: optimal-face geometry,
# left out of alpha.
_CONTAINS_TOL = 1e-9
# Unit rows count as independent when every diagonal entry of their R factor
# is at least this, which keeps the span residual within about 1e-10 of its
# exact value.
_RANK_TOL = 1e-6


@dataclass(frozen=True)
class TransversalityReport:
    """Constants and bounds for one pair and one starting point.

    ``max_steps = 2 N + 1`` bounds the number of individual projections
    needed to attain the minimum distance; ``one_step`` is the exact test
    ``d_x0_B < d_AB / (1 - alpha^2)`` under which the first projection
    pair already attains it.  The JSON form also carries ``"beta": 0.0``
    and ``"condition": "polyhedral"``: the bound uses no second angle
    constant, and alpha is the pair-specific constant above.
    """

    alpha: float
    rate: float
    d_AB: float
    d_x0_B: float
    N: int
    max_steps: int
    one_step: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": 0.0,
            "rate": self.rate,
            "d_AB": self.d_AB,
            "d_x0_B": self.d_x0_B,
            "N": self.N,
            "max_steps": self.max_steps,
            "one_step": self.one_step,
            "condition": "polyhedral",
        }


def _check_pair(A, B) -> None:
    if not isinstance(A, HalfSpace) or not isinstance(B, Polyhedron):
        raise NotPolyhedralPair("bound requires setA to be a half-space and setB a polyhedron")


def _check_alpha(alpha) -> float:
    alpha = _real_scalar(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_distance(d, name: str) -> float:
    # Every distance passed to a bound is a number by ``_real_scalar``'s
    # rule, and finite: NaN passes no comparison and infinity every upper
    # one, so either would give a step count or a shift that means nothing.
    d = _real_scalar(d, name)
    if not math.isfinite(d):
        raise InvalidDistance(f"{name} must be finite, got {d}")
    return d


def alpha_polyhedron_halfspace(B: Polyhedron, A: HalfSpace) -> float:
    """Angle constant of the pair; always in (0, 1/2].

    Half the least distance from ``v = -c/||c||`` to a realizable proximal
    normal cone of B that does not contain it, capped at 1/2.  The
    realizable cones are the normal cones of B's faces.  A cone at most
    ``_CONTAINS_TOL`` from ``v`` counts as containing it: such cones arise
    only at the face nearest the half-space, where no contraction is
    required.

    The constant is read off the LP optimum: off B's kept walk when it
    went along the same ``c``, from whatever start (that of
    :func:`bound_report` or of a shifted solve), else off a walk from the
    origin along ``-c``, as :func:`polyhedron_halfspace_distance` walks
    (:func:`~altproj.qp._walk_to_optimum`), which B then keeps.  The normal
    cones of a polyhedron's faces meet only on their boundaries (the normal
    fan; Ziegler, *Lectures on Polytopes*, 1995, ch. 7).  At a simple
    optimal vertex ``x*``, ``v`` lies inside ``N_x*``, so the segment from ``v`` to
    the nearest point of any other realizable cone crosses the boundary of
    ``N_x*``.  Each facet of ``N_x*`` is the normal cone of an edge from
    ``x*``: it lies in the cone of the edge's other vertex, or is
    realizable itself when the edge is unbounded.  So the least distance is
    the distance from ``v`` to the boundary of ``N_x*``, its nearest facet
    hyperplane, which :func:`_face_alpha` reads off one QR factor of the n
    working rows.  That route reads no vertex list, makes no cone solve and
    keeps nothing, at every n and for every number of rows, and it holds for
    an unbounded but pointed B too.

    The face cannot give alpha when the walk is unbounded, when ``x*`` is
    not a simple vertex (fewer than n working rows, or more rows tight at
    ``x*`` than working rows), when the working rows are nearly dependent
    (a diagonal entry of their R factor below ``_RANK_TOL``), when a
    multiplier of ``v`` on the working rows is not positive, or when a
    facet of ``N_x*`` lies within ``_CONTAINS_TOL`` of ``v``.  Those pairs
    take the cone table of :func:`_table_alpha`, whose family holds every
    realizable cone and some that are not (every pair of rows, every subset
    of a degenerate vertex's active rows), so it can only be lower where
    both apply.

    Raises :class:`NotPolyhedralPair` for any other pair of set types and
    :class:`DimensionMismatch` for sets of two dimensions, then what the
    walk raises (:class:`EmptyPolyhedron`, :class:`NotConverged`).  Only
    the table route, at n >= 3, reads B's vertex list, and raises
    :class:`TooLarge` past the oracle's limits (n <= 8, m <= 24).
    """
    _check_pair(A, B)
    _check_dims(A, B)
    try:
        _, end, face = _kept_walk(B, A.c) or _walk_to_optimum(B, np.zeros(B.dim), A.c)
    except Unbounded:
        return _table_alpha(B, A)
    return _alpha_at(B, A, end.point, face)


def _alpha_at(B: Polyhedron, A: HalfSpace, x: np.ndarray, face) -> float:
    """alpha read off the optimum ``x`` of the walk along ``-c`` and the
    ``_Face`` it ended on, or by the cone table where the face cannot give it."""
    alpha = _face_alpha(B, A, x, face)
    return _table_alpha(B, A) if alpha is None else alpha


def _face_alpha(B: Polyhedron, A: HalfSpace, x: np.ndarray, face) -> float | None:
    """Half the distance from ``v = -c/||c||`` to the boundary of the
    normal cone of the simple optimal vertex ``x``, or None.

    The working unit rows are factored afresh in sorted row order,
    ``U_W' = Q R``, so the bits depend on the vertex and not on the walk
    that reached it.  With ``v = U_W' mu``, the distance from ``v`` to the
    hyperplane of the facet of ``N_x`` opposite row i is ``mu_i / ||e_i'
    R^-1||``.  None when ``x`` is not a simple vertex (fewer than n working
    rows, or more rows tight there than working rows), when a diagonal
    entry of R is below ``_RANK_TOL``, when some ``mu_i`` is not positive,
    or when a facet lies within ``_CONTAINS_TOL`` of ``v``.  The rank test
    is the table's own independence split: below it ``mu`` and the rows of
    ``R^-1`` lose about as many digits as ``1 / R_ii`` has, which the
    table's cone solve does not.  Above it each distance still errs by
    about 1e-16 absolute, so a small alpha loses relative digits (5e-11
    relative at a distance of 3.5e-6).
    """
    W = face.W
    if len(W) < B.dim:
        return None
    tight = _active(B, x, ACTIVE_TOL)
    if tight is None or int(tight.sum()) > len(W):
        return None
    Q, R = np.linalg.qr(B._units[sorted(W)].T)
    if np.abs(np.diagonal(R)).min() < _RANK_TOL:
        return None
    R_inv = np.linalg.inv(R)
    mu = R_inv.dot((-A._unit).dot(Q))
    if not (mu > 0.0).all():
        return None
    dist = float((mu / _dot_row_norms(R_inv)).min())
    if not dist > _CONTAINS_TOL:
        return None
    return 0.5 * min(1.0, dist)


def _table_alpha(B: Polyhedron, A: HalfSpace) -> float:
    """alpha over a candidate family of cones, the route of the pairs whose
    optimum's face cannot give it (:func:`alpha_polyhedron_halfspace`).

    The candidate cones are the single qualifying rows (those with
    ``<a_i, c> > -||a_i|| ||c||``; a row antiparallel to ``c`` is never
    active away from the optimal face) plus, for n >= 3, every combination
    of two or more rows active together at a vertex and every pair of
    qualifying rows (two-row faces of an unbounded polyhedron need not
    touch a vertex).  Cones within ``_CONTAINS_TOL`` of ``v`` are skipped.
    In the plane the family is the qualifying rows, so alpha is their
    row-wise minimum ``0.5 * min(1, min_i d(a_i/||a_i||, ray(-c)))``, a
    redundant row included.

    The minimum is read off least-squares solves, with no search.  The
    nearest point of a polyhedral cone lies in the relative interior of one
    of its faces, and by Caratheodory's theorem it is a positive
    combination of independent rows of that face: it is the least-squares
    projection onto their span, with every coefficient positive.  The
    family holds every subset of each of its cones, so it holds that
    subset.  So a cone of 2..n independent rows adds its span residual
    ``||v - U' lam||`` when every least-squares coefficient ``lam_i`` is
    positive, and nothing otherwise, since its nearest point then lies on a
    proper face that is a candidate of its own; each single row adds its
    ray distance; and a cone of more than n rows adds nothing, because its
    rows are dependent and their subsets of n rows or fewer cover it.  A
    cone whose rows are numerically dependent (a diagonal entry of their R
    factor below ``_RANK_TOL``) is measured by :func:`unit_cone_distance`,
    except an exactly antiparallel pair: it spans a line, whose nearest
    point lies on one of its two rays.

    Every row is read in the polyhedron's normal form, its unit row, and
    ``c`` as the half-space's unit normal (the cones and their distances do
    not depend on how long the rows or ``c`` are written).  What does not
    depend on ``c`` is made once per polyhedron and kept on it as
    ``B._cones`` (built by the first call): for n >= 3, the candidate
    family over all rows with the inverses ``R^-1`` of the R factors of its
    independent cones, every size in one stack padded to n rows
    (:func:`_cone_table`); in the plane it is empty.  Each call reads the
    cosines and ray distances of the unit rows from stacked products, then
    the coefficients ``lam = R^-1 R^-T U v`` of every cone of the stack in
    one pass, with the same NumPy calls at every n (n = 8 adds one
    product), and counts the cones whose rows all qualify (exactly the
    family above); that filter runs only when some row does not qualify.
    A pad adds exact zeros to every sum, so each coefficient and distance
    has the bits of a read size by size, each size with its own ``k x k``
    products.  The inverse Gram matrix ``(U U')^-1`` is the
    same product, but kept whole it rounds each coefficient by its condition
    number, the square of R's: on a cone at the split its nearest point
    errs by about 1e-5, where the two triangular factors keep it near
    1e-11.  So the first call for a polyhedron pays for the family, and
    every later call, under any objective, only for its products; alpha's
    bits do not depend on which call built the family.
    The family stays on B for as long as B lives: at n = 8, m = 24 (about
    38,000 cones) it holds about 22 MB, mostly the padded inverse R
    factors, and a repeat call takes 5 to 11 ms on a 2-vCPU Xeon.

    For n >= 3 the cones come from B's :func:`feasible_vertices`, read
    only by the call that builds the family; it keeps the oracle's limits
    (n <= 8, m <= 24, :class:`TooLarge` past them), checked before a family
    is kept.  The plane needs no limit and no family.
    """
    neg_chat = -A._unit
    table = B._cones
    if table is None:
        table = _cone_table(B, feasible_vertices(B) if B.dim >= 3 else ())
        object.__setattr__(B, "_cones", table)
    units = B._units
    # A row qualifies when ``<a_i, c> > -||a_i|| ||c||``, read on the unit
    # rows and the half-space's unit normal.  The ray distances of the
    # qualifying rows are formed as unit_distance_to_ray forms them, with
    # ``neg_chat`` as the ray's unit vector.
    uv = _dot_rows(units, neg_chat)
    qualifying = uv < 1.0 - _STRICT_MARGIN
    ray = np.where(uv <= 0.0, 1.0, np.minimum(1.0, _dot_row_norms(units - uv[:, None] * neg_chat)))
    best = float(ray[qualifying].min(initial=math.inf))
    if not table:
        return 0.5 * min(1.0, best)
    dist, dependent = _stack_distances(table, uv, qualifying, neg_chat)
    best = min(best, float(dist[dist > _CONTAINS_TOL].min(initial=math.inf)))
    for cone in dependent:
        dist = unit_cone_distance(neg_chat, np.ascontiguousarray(units[cone[cone < B.num_rows]].T))
        if dist > _CONTAINS_TOL:
            best = min(best, dist)
    return 0.5 * min(1.0, best)


def _stack_distances(table: tuple, uv: np.ndarray, qualifying: np.ndarray, neg_chat: np.ndarray) -> tuple:
    """The span residuals ``||v - U' lam||`` of the independent cones of
    :func:`_cone_table`'s stack whose rows all qualify and whose
    coefficients are all positive, in the stack's order, and the dependent
    cones whose rows all qualify.  ``uv`` holds the cosines of the unit rows
    with ``neg_chat``."""
    padded_units, rows, inverses, pads, dependent, full = table
    lam = _coefficients(rows, inverses, full, uv)
    inside = (lam > 0.0) | pads
    if not qualifying.all():
        # Only the cones whose rows all qualify; the pad index m qualifies.
        kept = np.append(qualifying, True)
        inside &= kept[rows]
        dependent = dependent[kept[dependent].all(axis=1)]
    # Each cone's test is reduced down a column of the transpose: NumPy
    # reduces many short rows about four times slower.
    inside = np.ascontiguousarray(inside.T).all(axis=0)
    # The residual is a small difference of unit-scale vectors, so it is
    # formed in long double: in doubles it errs by about 1e-16 absolute.
    # (On a platform whose long double is a double it rounds as one.)  The
    # unit rows are kept in long double, so the product casts nothing.
    point = np.einsum("gk,gkn->gn", lam[inside].astype(np.longdouble), padded_units[rows[inside]])
    resid = neg_chat - point
    dist = np.sqrt(np.einsum("gn,gn->g", resid, resid)).astype(float)
    return dist, dependent


def _coefficients(rows: np.ndarray, inverses: np.ndarray, full: int, uv: np.ndarray) -> np.ndarray:
    """The least-squares coefficients ``lam = R^-1 R^-T U v`` of every cone
    of :func:`_cone_table`'s stack, padded as ``rows``."""
    # A pad reads 0 from ``uv`` and a zero row and column of its inverse, so
    # its coefficient is 0 and every real sum only gains exact zeros.  But
    # NumPy sums eight or more terms in another order than fewer (an
    # unrolled loop), so each cone is summed over at most seven terms, and
    # at n = 8 the cones of eight rows are summed again, over eight.
    t = np.einsum("gjk,gj->gk", inverses, np.append(uv, 0.0)[rows])
    lam = np.einsum("gkj,gj->gk", inverses[:, :, :7], t[:, :7])
    if t.shape[1] == 8:
        lam[full:] = np.einsum("gkj,gj->gk", inverses[full:], t[full:])
    return lam


def _cone_table(B: Polyhedron, vertices) -> tuple:
    """B's candidate cones of 2..n rows over all rows, from its
    :func:`feasible_vertices`: every pair of rows, and every subset of 3..n
    rows active together at one of ``vertices``.  In the plane the table is
    empty.

    The table is ``(padded_units, rows, inverses, pads, dependent, full)``,
    every size in one stack.  ``padded_units`` is B's unit rows with a zero
    row appended, at index ``m``, in long double (an exact cast).  ``rows``
    holds the sorted row indices of the cones with independent unit rows,
    one row per cone, padded to ``n`` entries with ``m``: in increasing
    size, and in lexicographic order within a size.  ``inverses`` holds the
    inverses of their R factors (``U_S' = Q R``), upper triangular, each in
    the leading ``k x k`` block of an ``n x n`` block of zeros; ``pads``
    marks the entries of ``rows`` that are ``m``, and ``full`` counts the
    cones of fewer than n rows, which come first.  ``dependent`` holds the
    other cones, padded as ``rows``, which are measured, less the exactly
    antiparallel pairs.  Each size is factored and inverted in one stacked
    call of its own.

    A sorted k-subset is keyed by the integer ``sum_i idx_i m^(k-1-i)``,
    below ``24^8`` at the oracle limit and so an int64.  The keys order as
    the subsets do, so one sort of each size's keys orders it and brings
    its repeats together.  (``np.unique`` would do the same, but from NumPy
    2.3 it hashes first, which took ten times as long as the sort on the
    126,000 keys of one size at n = 8, m = 24.)
    """
    m, n = B.num_rows, B.dim
    if n < 3:
        return ()
    actives = {}
    for _, active in vertices:
        actives.setdefault(len(active), []).append(active)
    actives = {size: np.array(rows) for size, rows in actives.items()}
    family = [np.column_stack(np.triu_indices(m, 1))]
    for k in range(3, n + 1):
        powers = m ** np.arange(k - 1, -1, -1)
        keys = [
            rows[:, list(itertools.combinations(range(size), k))].dot(powers).ravel()
            for size, rows in actives.items()
            if size >= k
        ]
        if keys:
            keys = np.sort(np.concatenate(keys))
            family.append(keys[np.r_[True, keys[1:] != keys[:-1]]][:, None] // powers % m)
    units = B._units
    independent, inverses, dependent = [], [], []
    for idx in filter(len, family):
        R = np.linalg.qr(units[idx].transpose(0, 2, 1), mode="r")
        full_rank = np.abs(np.diagonal(R, axis1=1, axis2=2)).min(axis=1) >= _RANK_TOL
        measured = ~full_rank
        if idx.shape[1] == 2:
            measured &= ~(units[idx[:, 0]] == -units[idx[:, 1]]).all(axis=1)
        independent.append(idx[full_rank])
        inverses.append(np.linalg.inv(R[full_rank]))
        dependent.append(idx[measured])
    rows = _stacked(independent, (n,), m)
    padded_units = np.append(units, np.zeros((1, n)), axis=0).astype(np.longdouble)
    pads = rows == m
    dependent = _stacked(dependent, (n,), m)
    return padded_units, rows, _stacked(inverses, (n, n), 0.0), pads, dependent, int(pads[:, -1].sum())


def _stacked(blocks, shape: tuple, fill) -> np.ndarray:
    """``blocks`` stacked along their first axis, each in the leading
    entries of ``shape`` and ``fill`` in the others."""
    stack = np.full((sum(map(len, blocks)), *shape), fill)
    start = 0
    for block in blocks:
        stack[(slice(start, start + len(block)), *map(slice, block.shape[1:]))] = block
        start += len(block)
    return stack


def iteration_bound(alpha: float, d_AB: float, d_x0_B: float) -> TransversalityReport:
    """Finite-step bound ``N = floor(log_{1-alpha^2}(d_AB / d_x0_B))``.

    Each argument is a number by the rule that reads a point's entries
    (``ValueError`` otherwise).  Requires ``0 < alpha < 1`` (``ValueError``)
    and finite ``0 < d_AB <= d_x0_B`` (a starting point in A can never be
    closer to B than the sets are to each other); :class:`InvalidDistance`
    otherwise.
    """
    alpha = _check_alpha(alpha)
    d_AB = _check_distance(d_AB, "d_AB")
    d_x0_B = _check_distance(d_x0_B, "d_x0_B")
    if d_AB <= 0.0:
        raise InvalidDistance("d_AB must be positive")
    if d_x0_B < d_AB - _STRICT_MARGIN:
        raise InvalidDistance("d(x0, B) cannot be smaller than d(A, B)")
    rate = 1.0 - alpha * alpha
    ratio = min(1.0, d_AB / max(d_x0_B, d_AB))
    n = 0 if ratio >= 1.0 else _log_steps(ratio, alpha)
    one_step = d_x0_B < d_AB / rate
    return TransversalityReport(
        alpha=alpha,
        rate=rate,
        d_AB=d_AB,
        d_x0_B=d_x0_B,
        N=n,
        max_steps=2 * n + 1,
        one_step=one_step,
    )


def _log_steps(ratio: float, alpha: float) -> int:
    """``max(0, floor(log(ratio) / log(1 - alpha^2)))`` for ``0 < ratio < 1``.

    ``log1p`` keeps the divisor nonzero when ``1 - alpha^2`` rounds to 1.
    Below about ``alpha = 1e-154`` the square underflows to 0 or the
    quotient overflows; there the quotient is taken exactly, with
    ``-alpha^2`` in place of ``log(1 - alpha^2)``.  That divisor is smaller
    in magnitude, so the step count can only round up.
    """
    a2 = alpha * alpha
    if a2 > 0.0:
        q = math.log(ratio) / math.log1p(-a2)
        if math.isfinite(q):
            return max(0, math.floor(q))
    return max(0, math.floor(Fraction(math.log(ratio)) / -(Fraction(alpha) ** 2)))


def one_step_shift(
    A: HalfSpace, B: Polyhedron, x0, alpha: float, d_AB: float
) -> tuple[float, HalfSpace]:
    """Shift magnitude ``mu`` and the half-space translated by ``-mu c``.

    ``mu`` exceeds ``((1 - alpha^2) d(x0, B) - d_AB) / (alpha^2 ||c||)`` by
    a small margin, which guarantees that the shifted pair satisfies the
    strict one-step threshold when the run starts from ``x0 - mu c``.
    ``d(x0, B)`` is computed by projecting ``x0`` onto ``B``.  ``alpha``
    and ``d_AB`` are read as :func:`iteration_bound` reads them; ``d_AB``
    must be finite and nonnegative (:class:`InvalidDistance` otherwise).
    Raises ``ValueError`` when the shift is not finite, which happens once
    ``alpha^2 ||c||`` underflows or the quotient overflows.  The shifted
    LP solve does not call it: it walks ``t -> P(x0 - t c)`` to where the
    projection stops moving, which the one-step threshold puts by ``mu``.
    """
    _check_pair(A, B)
    x0 = as_point(x0, A.dim)
    alpha = _check_alpha(alpha)
    d_AB = _check_distance(d_AB, "d_AB")
    if d_AB < 0.0:
        raise InvalidDistance("d_AB must be nonnegative")
    _check_start(A, x0)
    nc = _norm(A.c)
    d_x0 = _norm(x0 - project_polyhedron(B, x0).point)
    rate = 1.0 - alpha * alpha
    scale = alpha * alpha * nc
    base = max(0.0, (rate * d_x0 - d_AB) / scale) if scale > 0.0 else math.inf
    mu = base + 1e-6 * (1.0 + base)
    offset = A.M - mu * nc * nc
    if not math.isfinite(offset):
        raise ValueError(f"alpha = {alpha} gives a shift that is not finite")
    return mu, HalfSpace(A.c, offset)


def polyhedron_halfspace_distance(B: Polyhedron, A: HalfSpace) -> float:
    """Exact ``d(A, B) = max(0, min_B <c, x> - M) / ||c||``.

    The minimum is the end of the walk from ``P_B(0)`` along ``-c``
    (:func:`~altproj.qp._walk_to_optimum`), the optimum that the shifted
    LP solve reads.  No vertex list is read, so neither the size of B nor a
    polyhedron without a vertex limits it.  A walk that moves on forever
    means the objective is unbounded below on B, so B reaches into A and
    the distance is 0.  Raises :class:`EmptyPolyhedron` for an empty B and
    :class:`NotConverged` for a walk past its cap.
    """
    _check_pair(A, B)
    return _distances(B, A, np.zeros(B.dim))[1]


def _distances(B: Polyhedron, A: HalfSpace, x) -> tuple:
    """``d(x, B)`` from the projection of ``x``, ``d(A, B)`` from the walk on
    from it, and the walk's end point and face.

    ``x`` is a validated point of A's dimension; B's must match it
    (:class:`DimensionMismatch` otherwise).  An unbounded walk gives
    ``d(A, B) = 0``, NaN for ``d(x, B)``, which is then not needed, and
    None for the end and the face.
    """
    _check_dims(A, B)
    c = A.c
    try:
        start, end, face = _walk_to_optimum(B, x, c)
    except Unbounded:
        return math.nan, 0.0, None, None
    d_ab = max(0.0, float(c.dot(end.point)) - A.M) / _norm(c)
    return _entry_norm(x - start.point), d_ab, end.point, face


def bound_report(B: Polyhedron, A: HalfSpace, x0) -> TransversalityReport:
    """Compose the angle constant, exact distances, and the step bound.

    The bound covers runs that start in A: a start outside A (beyond the
    1e-8 tolerance of :func:`engine.run <altproj.engine.run>`) raises
    :class:`StartNotInA`.  ``d(x0, B)`` is raised to ``d_AB`` only to absorb
    the rounding of a start in A.  ``x0`` is validated against A, as
    :func:`engine.run <altproj.engine.run>` validates it, before anything
    else, so a bad start raises before the walk.

    ``x0`` is projected onto B once.  That projection gives ``d(x0, B)``,
    bit for bit what :func:`project_polyhedron` gives, and the walk on from
    it along ``-c`` gives ``d_AB`` as :func:`polyhedron_halfspace_distance`
    forms it: bit for bit ``(objective - M) / ||c||`` of the shifted LP
    solve from the same ``x0``.  The projection and the walk are B's kept
    walk (:func:`~altproj.qp._walk_to_optimum`) when the last one on B
    started from the same ``x0`` along the same ``c``; otherwise they are
    made and kept, and a shifted solve from that ``x0`` reads them, as
    does :func:`alpha_polyhedron_halfspace` under the same ``c``.  alpha is
    then read off the face that walk ended on, as the public alpha reads
    it off any walk to the optimum: the two agree bit for bit.  Only the
    pairs that take alpha's cone table read B's vertex list, and only for
    n >= 3.

    After the checks of the pair, of ``x0`` and of the dimensions
    (:class:`NotPolyhedralPair`, ``x0``'s own errors,
    :class:`StartNotInA`, :class:`DimensionMismatch`), it raises what the
    projection of ``x0`` and the walk raise (:class:`EmptyPolyhedron`,
    :class:`NotConverged`), then :class:`InvalidDistance` when the walk is
    unbounded or ends in A, with no alpha computed.  Only then is alpha
    read, and only its table route can raise: :class:`TooLarge` past the
    vertex oracle's limits.  A pair whose alpha the face gives raises no
    :class:`TooLarge`, whatever its size.
    """
    _check_pair(A, B)
    x0 = as_point(x0, A.dim)
    _check_start(A, x0)
    d_x0, d_ab, end, face = _distances(B, A, x0)
    if d_ab <= 0.0:
        raise InvalidDistance("the sets intersect; no finite-step bound applies")
    return iteration_bound(_alpha_at(B, A, end, face), d_ab, max(d_x0, d_ab))
