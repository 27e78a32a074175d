"""Computable convergence constants for a polyhedron / half-space pair.

For ``A = {x : <c, x> <= M}`` and ``B = {x : Ax <= b}`` the angle constant

    alpha = 0.5 * min(1, min_K d(-c/||c||, K))

taken over the realizable proximal normal cones ``K`` of B that do not
contain ``-c`` (min over an empty family is +inf) drives a per-cycle
contraction of the step gaps by ``1 - alpha^2``.  That yields a finite
bound on the number of projections needed to attain the minimum distance,
a threshold under which a single projection pair suffices, and a shift of
the half-space that forces that threshold.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDistance, NotPolyhedralPair, Unbounded
from .linalg import _dot_row_norms, _dot_rows, _norm, as_point, unit_cone_distance
from .qp import project_polyhedron
from .sets import HalfSpace, Polyhedron, _check_start
from .vertices import feasible_vertices, vertex_oracle

# Margin for strict-inequality tests on normalized inner products, so that
# floating-point ties cannot silently flip membership decisions.
_STRICT_MARGIN = 1e-10
# Cones at most this far from -c/||c|| contain it: optimal-face geometry,
# left out of alpha.
_CONTAINS_TOL = 1e-9
# alpha_polyhedron_halfspace's screen.  A cone is measured when its screened
# value is within _SCREEN_MARGIN of the least distance found so far.  Unit
# rows count as independent when every diagonal entry of their R factor is
# at least _SCREEN_RANK_TOL, which keeps the span residual within about
# 1e-10 of its exact value, and a least-squares coefficient below
# -_SCREEN_COEF_TOL puts the nearest point of the span outside the cone.
_SCREEN_MARGIN = 1e-9
_SCREEN_RANK_TOL = 1e-6
_SCREEN_COEF_TOL = 1e-9


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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def alpha_polyhedron_halfspace(B: Polyhedron, A: HalfSpace) -> float:
    """Angle constant of the pair; always in (0, 1/2].

    Half the least distance from ``-c/||c||`` to a realizable proximal
    normal cone of B that does not contain it.  The candidate cones are the
    single qualifying rows (those with ``<a_i, c> > -||a_i|| ||c||``; a row
    antiparallel to ``c`` is never active away from the optimal face) plus,
    for n >= 3, every combination of two or more rows active together at a
    vertex and every pair of qualifying rows (two-row faces of an unbounded
    polyhedron need not touch a vertex).  Cones containing ``-c`` (distance
    at most ``_CONTAINS_TOL``) arise only on the face nearest the
    half-space, where no contraction is required, and are skipped.

    In the plane this equals the row-wise minimum
    ``0.5 * min(1, min_i d(a_i/||a_i||, ray(-c)))`` because the distance
    from a direction outside a planar sector is attained at an edge ray; in
    higher dimension combinations of active rows can point much closer to
    ``-c`` than any single row does, and the cone minimum is the constant
    the contraction argument actually needs.

    Each cone is measured by one NNLS solve (:func:`unit_cone_distance`:
    the least-squares shortcut, or the projection onto the polar cone of
    the unit rows), but only where the minimum can lie.  A screen first
    gives every candidate a lower bound on its distance, from one stacked
    QR factorisation of the unit rows per cone size (:func:`_screen`):

    - one row: its ray distance, the exact value alpha takes for it;
    - independent rows: the residual against their span, which holds the
      cone;
    - independent rows with a least-squares coefficient below
      ``-_SCREEN_COEF_TOL``: the nearest point of the span lies outside
      the cone, so the nearest point of the cone lies on a proper face;
    - more rows than n: they are dependent, and by Caratheodory's theorem
      every point of the cone lies in the cone of an independent subset;
    - in the last two cases, the least screened value of the rows'
      (k-1)-subsets when each has one.  The faces of a polyhedral cone are
      cones of subsets of its rows, so the cone's distance is the least
      distance over those subsets, which their values bound from below;
    - two exactly antiparallel rows span a line, the union of their rays,
      so the smaller ray distance; two nearly parallel rows at unit
      distance ``e`` apart, the smaller ray distance less ``2 e``;
    - otherwise no value, and the cone is always measured: other
      dependent rows, and more than n rows with a subset without a value.

    So the screen never exceeds a cone's distance by more than its
    rounding, and NNLS never returns less than the distance by more than
    its own rounding: its coefficients are nonnegative, so its residual is
    that of a point of the cone.  The screened cones are measured in
    ascending order until the next value exceeds the least distance found
    so far by more than ``_SCREEN_MARGIN``.  That margin is far above both
    roundings (about 1e-10 at the rank cut-off), so every cone left
    unmeasured is farther than the minimum, and alpha is bit-identical to
    measuring every candidate.  A vertex cone that contains ``-c`` needs no
    descent into its faces: each face of two or more rows is a candidate
    of its own, each single row enters through its ray distance, and the
    screen bounds every face from below, so a face that could hold the
    minimum is measured before the loop stops.

    What does not depend on ``c`` is made once per polyhedron and kept on
    it (:class:`_ConeTable`, built by the first call): the unit rows and
    their norms and, for n >= 3, the candidate family over all rows with
    the QR factors of its cones.  Each call then reads the cosines and ray
    distances of the rows from stacked products, keeps the cones whose
    rows all qualify (exactly the family above), screens them against the
    kept factors and measures them in the order above.  So the first call
    for a polyhedron pays for the table, and every later call, under any
    objective, only for its own pass; alpha's bits do not depend on which
    call built the table.  The table stays on B for as long as B lives: at
    n = 8, m = 24 (about 38,000 cones) it holds about 28 MB, mostly the QR
    factors, which the screen reads on every call.

    For n >= 3 the cones come from B's :func:`feasible_vertices`, read on
    every call; it keeps the oracle's limits (n <= 8, m <= 24).  The plane
    needs no limit and no family: its alpha is the row-wise minimum for any
    number of rows.  Both ``c``'s length and the limits are checked before
    a table is kept.
    """
    _check_pair(A, B)
    c = as_point(A.c, B.dim)
    vertices = feasible_vertices(B) if B.dim >= 3 else ()
    table = B._cones
    if table is None:
        table = _cone_table(B, vertices)
        object.__setattr__(B, "_cones", table)
    nc = float(np.linalg.norm(c))
    neg_c = -c
    neg_chat = neg_c / nc
    qualifying = _dot_rows(B.A, c) / (table.norms * nc) > -1.0 + _STRICT_MARGIN
    # The ray distances of the qualifying rows, each as unit_distance_to_ray
    # gives it, and NaN for the others.
    uhat = neg_c / _norm(neg_c)
    rejection = table.units - _dot_rows(table.units, uhat)[:, None] * uhat
    ray = np.where(
        _dot_rows(table.units, neg_c) <= 0.0, 1.0, np.minimum(1.0, _dot_row_norms(rejection))
    )
    ray[~qualifying] = math.nan
    best = float(ray[qualifying].min(initial=math.inf))
    if not table.groups:
        return 0.5 * min(1.0, best)

    kept = np.flatnonzero(np.concatenate([qualifying[g.idx].all(axis=1) for g in table.groups]))
    screened = np.concatenate(_screen(table, neg_chat, ray))
    # Cones without a value rank first and never end the loop (NaN > x is
    # false), so each of them is measured.
    order = np.argsort(np.nan_to_num(screened[kept], nan=-math.inf), kind="stable")
    for j in kept[order].tolist():
        if screened[j] > best + _SCREEN_MARGIN:
            break
        rows = table.cone(j)
        dist = unit_cone_distance(neg_chat, np.ascontiguousarray(B.A[rows].T))
        if dist > _CONTAINS_TOL:
            best = min(best, dist)
    return 0.5 * min(1.0, best)


@dataclass(frozen=True, eq=False)
class _ConeGroup:
    """The candidate cones of one size k, with what of their screen is fixed by B.

    ``idx`` holds the cones' sorted row indices, one row per cone.  For
    k >= 3, ``faces[g]`` are the positions of cone g's (k-1)-row faces in
    the group before.  For k <= n, ``Q`` and ``R`` are the QR factors of
    the cones with independent unit rows (``independent``).  For k = 2,
    ``antiparallel`` and ``acute`` mark the pairs with ``u = -w`` and
    ``u.w > 0``, and ``gap2`` is ``2 ||u - w||``.
    """

    idx: np.ndarray
    faces: np.ndarray | None = None
    independent: np.ndarray | None = None
    Q: np.ndarray | None = None
    R: np.ndarray | None = None
    antiparallel: np.ndarray | None = None
    acute: np.ndarray | None = None
    gap2: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class _ConeTable:
    """The part of :func:`alpha_polyhedron_halfspace` that B alone fixes.

    ``units`` and ``norms`` are the unit rows and the row norms.  For
    n >= 3, ``groups`` holds the candidate family over all rows (every pair
    of rows and every subset of two or more rows active together at a
    vertex), sorted by ``(len, cone)`` and grouped by size, and ``starts``
    each group's first position in that order.  In the plane the family is
    empty.
    """

    units: np.ndarray
    norms: np.ndarray
    groups: tuple
    starts: tuple

    def cone(self, j: int) -> np.ndarray:
        """Row indices of the cone at position ``j`` of the family."""
        g = bisect.bisect_right(self.starts, j) - 1
        return self.groups[g].idx[j - self.starts[g]]


def _cone_table(B: Polyhedron, vertices) -> _ConeTable:
    """Build B's :class:`_ConeTable` from its :func:`feasible_vertices` (none in the plane)."""
    norms = _dot_row_norms(B.A)
    units = B.A / norms[:, None]
    if B.dim < 3:
        return _ConeTable(units, norms, (), ())
    cones = set(itertools.combinations(range(B.num_rows), 2))
    for _, active in vertices:
        for size in range(2, len(active) + 1):
            cones.update(itertools.combinations(active, size))
    cones = sorted(cones, key=lambda cone: (len(cone), cone))
    # Each cone's row bitmask (m <= 24 here), to find its faces by.
    groups, masks, starts = [], [], []
    for k, group in itertools.groupby(cones, key=len):
        idx = np.array(list(group))
        bits = np.left_shift(1, idx)
        group_masks = bits.sum(axis=1)
        parts = {}
        if k >= 3:
            # Each (k-1)-row face, found by its row bitmask in the group
            # before; the family holds every face of its cones.
            order = np.argsort(masks[-1])
            at = np.searchsorted(masks[-1], group_masks[:, None] - bits, sorter=order)
            parts["faces"] = order[at]
        if k <= B.dim:
            Q, R = np.linalg.qr(units[idx].transpose(0, 2, 1))
            diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
            independent = diag.min(axis=1) >= _SCREEN_RANK_TOL
            parts.update(independent=independent, Q=Q[independent], R=R[independent])
        if k == 2:
            u, w = units[idx[:, 0]], units[idx[:, 1]]
            parts.update(
                antiparallel=(u == -w).all(axis=1),
                acute=np.einsum("gi,gi->g", u, w) > 0.0,
                gap2=2.0 * np.linalg.norm(u - w, axis=1),
            )
        starts.append(sum(m.size for m in masks))
        groups.append(_ConeGroup(idx, **parts))
        masks.append(group_masks)
    return _ConeTable(units, norms, tuple(groups), tuple(starts))


def _screen(table: _ConeTable, vhat, ray) -> list:
    """Lower bounds on ``d(vhat, cone)``, by the rules of :func:`alpha_polyhedron_halfspace`.

    Screens every cone of ``table``'s family, one value array per group
    (NaN where a cone has no value); ``ray`` holds each row's ray distance,
    NaN for a row that does not qualify.  Only the objective's part runs
    here: ``Q' vhat`` and the span residual from the kept ``Q``, the
    least-squares coefficients from the kept ``R``, and the face minima by
    the kept face positions.  Each value is formed cone by cone, so a
    cone's value does not depend on the other cones of its group, and a
    cone whose rows all qualify reads only faces whose rows qualify.
    """
    n = vhat.shape[0]
    values = []
    for group in table.groups:
        k = group.idx.shape[1]
        if k == 2:
            least = ray[group.idx].min(axis=1)
        else:
            least = values[-1][group.faces].min(axis=1)
        if k > n:
            values.append(least)
            continue
        if k == 2:
            parallel = np.where(group.acute, least - group.gap2, math.nan)
            vals = np.where(group.antiparallel, least, parallel)
        else:
            vals = np.full(least.shape, math.nan)
        if group.Q.shape[0]:
            qy = np.einsum("gik,i->gk", group.Q, vhat)
            resid = np.linalg.norm(vhat - np.einsum("gik,gk->gi", group.Q, qy), axis=1)
            coef = np.linalg.solve(group.R, qy[..., None])[..., 0]
            least_ind = least[group.independent]
            outside = (coef < -_SCREEN_COEF_TOL).any(axis=1) & ~np.isnan(least_ind)
            vals[group.independent] = np.where(outside, least_ind, resid)
        values.append(vals)
    return values


def iteration_bound(alpha: float, d_AB: float, d_x0_B: float) -> TransversalityReport:
    """Finite-step bound ``N = floor(log_{1-alpha^2}(d_AB / d_x0_B))``.

    Requires ``0 < alpha < 1`` and ``0 < d_AB <= d_x0_B`` (a starting point
    in A can never be closer to B than the sets are to each other).
    """
    _check_alpha(alpha)
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
    ``d(x0, B)`` is computed by projecting ``x0`` onto ``B``.  Raises
    ``ValueError`` when the shift is not finite, which happens once
    ``alpha^2 ||c||`` underflows or the quotient overflows.  The shifted
    LP solve does not call it: it walks ``t -> P(x0 - t c)`` to where the
    projection stops moving, which the one-step threshold puts by ``mu``.
    """
    _check_pair(A, B)
    x0 = as_point(x0, A.dim)
    _check_alpha(alpha)
    if d_AB < 0.0:
        raise InvalidDistance("d_AB must be nonnegative")
    _check_start(A, x0)
    nc = float(np.linalg.norm(A.c))
    d_x0 = float(np.linalg.norm(x0 - project_polyhedron(B, x0).point))
    rate = 1.0 - alpha * alpha
    scale = alpha * alpha * nc
    base = max(0.0, (rate * d_x0 - d_AB) / scale) if scale > 0.0 else math.inf
    mu = base + 1e-6 * (1.0 + base)
    offset = A.M - mu * nc * nc
    if not math.isfinite(offset):
        raise ValueError(f"alpha = {alpha} gives a shift that is not finite")
    return mu, HalfSpace(A.c, offset)


def polyhedron_halfspace_distance(B: Polyhedron, A: HalfSpace) -> float:
    """Exact ``d(A, B)`` via the vertex oracle: ``max(0, min_B <c,x> - M)/||c||``."""
    _check_pair(A, B)
    try:
        optimum, _ = vertex_oracle(B, A.c)
    except Unbounded:
        # The objective is unbounded below on B, so B reaches into A.
        return 0.0
    return max(0.0, optimum - A.M) / float(np.linalg.norm(A.c))


def bound_report(B: Polyhedron, A: HalfSpace, x0) -> TransversalityReport:
    """Compose the angle constant, exact distances, and the step bound.

    The bound covers runs that start in A: a start outside A (beyond the
    1e-8 tolerance of :func:`engine.run <altproj.engine.run>`) raises
    :class:`StartNotInA`.  ``d(x0, B)`` is raised to ``d_AB`` only to absorb
    the rounding of a start in A.  ``x0`` is validated against A, as
    :func:`engine.run <altproj.engine.run>` validates it, before the alpha
    search, so a bad start raises before any cone is measured.

    Then it raises what :func:`alpha_polyhedron_halfspace` and
    :func:`polyhedron_halfspace_distance` raise, in that order; both read
    B's one vertex list.  Any other pair of set types raises
    :class:`NotPolyhedralPair` first.
    """
    _check_pair(A, B)
    x0 = as_point(x0, A.dim)
    _check_start(A, x0)
    alpha = alpha_polyhedron_halfspace(B, A)
    d_ab = polyhedron_halfspace_distance(B, A)
    if d_ab <= 0.0:
        raise InvalidDistance("the sets intersect; no finite-step bound applies")
    d_x0 = float(np.linalg.norm(x0 - project_polyhedron(B, x0).point))
    return iteration_bound(alpha, d_ab, max(d_x0, d_ab))
