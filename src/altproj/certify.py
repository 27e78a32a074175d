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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDistance, StartNotInA, Unbounded
from .linalg import as_point, unit_cone_distance, unit_distance_to_ray
from .qp import project_polyhedron
from .sets import HalfSpace, Polyhedron, _contains_point
from .vertices import feasible_vertices, vertex_oracle

# Margin for strict-inequality tests on normalized inner products, so that
# floating-point ties cannot silently flip membership decisions.
_STRICT_MARGIN = 1e-10
# Slack on the cone-inclusion pruning of alpha_polyhedron_halfspace, far
# above the rounding of one NNLS residual (about 1e-16).
_PRUNE_MARGIN = 1e-12


@dataclass(frozen=True)
class TransversalityReport:
    """Constants and bounds for one pair and one starting point.

    ``max_steps = 2 N + 1`` bounds the number of individual projections
    needed to attain the minimum distance; ``one_step`` is the exact test
    ``d_x0_B < d_AB / (1 - alpha^2)`` under which the first projection
    pair already attains it.  ``condition`` labels the justification route
    ("polyhedral" for the pair-specific constant above, "global" when the
    same formula is applied under a set-wide angle bound).
    """

    alpha: float
    beta: float
    rate: float
    d_AB: float
    d_x0_B: float
    N: int
    max_steps: int
    one_step: bool
    condition: str = "polyhedral"

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "rate": self.rate,
            "d_AB": self.d_AB,
            "d_x0_B": self.d_x0_B,
            "N": self.N,
            "max_steps": self.max_steps,
            "one_step": self.one_step,
            "condition": self.condition,
        }


def alpha_polyhedron_halfspace(B: Polyhedron, A: HalfSpace) -> float:
    """Angle constant of the pair; always in (0, 1/2].

    Half the least distance from ``-c/||c||`` to a realizable proximal
    normal cone of B that does not contain it.  The candidate cones are the
    single qualifying rows (those with ``<a_i, c> > -||a_i|| ||c||``; a row
    antiparallel to ``c`` is never active away from the optimal face) plus
    every combination of rows active together at a vertex.  Cones containing
    ``-c`` arise only on the face nearest the half-space, where no
    contraction is required, and are skipped.

    In the plane this equals the row-wise minimum
    ``0.5 * min(1, min_i d(a_i/||a_i||, ray(-c)))`` because the distance
    from a direction outside a planar sector is attained at an edge ray; in
    higher dimension combinations of active rows can point much closer to
    ``-c`` than any single row does, and the cone minimum is the constant
    the contraction argument actually needs.

    The search skips cones that cannot hold the minimum.  The cone of each
    vertex's full qualifying active set ``T`` is measured first, at
    distance ``d_T``.  For ``S`` a subset of ``T``, ``cone S`` lies inside
    ``cone T``, so ``d(-c/||c||, cone S) >= d_T``.  Hence when ``d_T``
    exceeds the least distance found so far (which only falls) by more
    than ``_PRUNE_MARGIN``, no proper subset of ``T``, and in the closing
    pair loop no row pair inside ``T``, can lower the minimum, and they are
    not measured.  The margin absorbs the rounding of the NNLS residuals
    (about 1e-16), so the constant is bit-identical to a search of every
    subset.  A cone containing ``-c`` has ``d_T <= 1e-9``, below every
    distance the minimum takes, so its subsets are always searched.

    Shares the vertex enumeration limits of the LP oracle (n <= 8, m <= 24).
    """
    c = as_point(A.c, B.dim)
    nc = float(np.linalg.norm(c))
    neg_c = -c
    neg_chat = neg_c / nc
    qualifying = []
    best = math.inf
    for i in range(B.num_rows):
        row = B.A[i]
        nrow = float(np.linalg.norm(row))
        cos = float(row @ c) / (nrow * nc)
        if cos > -1.0 + _STRICT_MARGIN:
            qualifying.append(i)
            best = min(best, unit_distance_to_ray(row / nrow, neg_c))
    qualifying_set = set(qualifying)
    if B.dim >= 3:
        dists = {}

        def measure(subset):
            if subset in dists:
                return
            dist = unit_cone_distance(neg_chat, np.ascontiguousarray(B.A[list(subset)].T))
            dists[subset] = dist
            if dist > 1e-9:  # cones containing -c are optimal-face geometry
                nonlocal best
                best = min(best, dist)

        full_sets = []
        for _, active in feasible_vertices(B):
            rows = tuple(i for i in active if i in qualifying_set)
            if len(rows) >= 2:
                full_sets.append(rows)
                measure(rows)
        for rows in full_sets:
            if dists[rows] <= best + _PRUNE_MARGIN:
                for size in range(2, len(rows)):
                    for subset in itertools.combinations(rows, size):
                        measure(subset)
        # Two-row faces of an unbounded polyhedron need not touch a vertex;
        # covering all pairs keeps the constant valid there too.
        skip = {
            pair
            for rows in full_sets
            if dists[rows] > best + _PRUNE_MARGIN
            for pair in itertools.combinations(rows, 2)
        }
        for pair in itertools.combinations(qualifying, 2):
            if pair not in skip:
                measure(pair)
    return 0.5 * min(1.0, best)


def iteration_bound(alpha: float, d_AB: float, d_x0_B: float) -> TransversalityReport:
    """Finite-step bound ``N = floor(log_{1-alpha^2}(d_AB / d_x0_B))``.

    Requires ``0 < alpha < 1`` and ``0 < d_AB <= d_x0_B`` (a starting point
    in A can never be closer to B than the sets are to each other).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
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
        beta=0.0,
        rate=rate,
        d_AB=d_AB,
        d_x0_B=d_x0_B,
        N=n,
        max_steps=2 * n + 1,
        one_step=one_step,
    )


def beta_bound(alpha: float, beta: float, d_AB: float, gap0: float) -> int:
    """Step bound ``floor(log_{1-alpha^2}(d (1-beta) / (gap0 - beta d)))``.

    ``gap0`` is the length of the first projection step.  With ``beta = 0``
    this reduces to :func:`iteration_bound` with ``gap0`` in place of the
    starting distance.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if d_AB <= 0.0:
        raise InvalidDistance("d_AB must be positive")
    if gap0 < d_AB - _STRICT_MARGIN:
        raise InvalidDistance("the first gap cannot be smaller than d(A, B)")
    numer = d_AB * (1.0 - beta)
    denom = max(gap0, d_AB) - beta * d_AB
    ratio = min(1.0, numer / denom)
    if ratio >= 1.0:
        return 0
    return _log_steps(ratio, alpha)


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
    ``d(x0, B)`` is computed by projecting ``x0`` onto ``B``.
    """
    x0 = as_point(x0, A.dim)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if d_AB < 0.0:
        raise InvalidDistance("d_AB must be nonnegative")
    if not _contains_point(A, x0, 1e-8):
        raise StartNotInA("x0 must belong to the half-space")
    nc = float(np.linalg.norm(A.c))
    d_x0 = float(np.linalg.norm(x0 - project_polyhedron(B, x0).point))
    rate = 1.0 - alpha * alpha
    base = max(0.0, (rate * d_x0 - d_AB) / (alpha * alpha * nc))
    mu = base + 1e-6 * (1.0 + base)
    shifted = HalfSpace(A.c, A.M - mu * nc * nc)
    return mu, shifted


def polyhedron_halfspace_distance(B: Polyhedron, A: HalfSpace) -> float:
    """Exact ``d(A, B)`` via the vertex oracle: ``max(0, min_B <c,x> - M)/||c||``."""
    try:
        optimum, _ = vertex_oracle(B, A.c)
    except Unbounded:
        # The objective is unbounded below on B, so B reaches into A.
        return 0.0
    return max(0.0, optimum - A.M) / float(np.linalg.norm(A.c))


def bound_report(B: Polyhedron, A: HalfSpace, x0) -> TransversalityReport:
    """Compose the angle constant, exact distances, and the step bound."""
    alpha = alpha_polyhedron_halfspace(B, A)
    d_ab = polyhedron_halfspace_distance(B, A)
    if d_ab <= 0.0:
        raise InvalidDistance("the sets intersect; no finite-step bound applies")
    x0 = as_point(x0, B.dim)
    d_x0 = float(np.linalg.norm(x0 - project_polyhedron(B, x0).point))
    return iteration_bound(alpha, d_ab, max(d_x0, d_ab))
