"""Alternating projections between two projectable sets.

The driver records every iterate, checks the nearest-pair optimality
certificate after each full A-B cycle, and stops on the first of:
certificate holds, gap decrease stalled, or the cycle cap.

For a pair of closed convex sets, points ``a`` in A and ``b`` in B are a
minimum-distance pair exactly when ``b - a`` lies in the proximal normal
cone of A at ``a`` and ``a - b`` in that of B at ``b``; the certificate
measures both cone distances.  For nonconvex sets the inclusion is only a
necessary condition, so a certified stop there means "stationary pair".

Cycles on one face.  When A is a half-space ``{<c, x> <= M}`` and B a
polyhedron, a run can spend thousands of cycles creeping along one face
``F`` of B, the rows whose projection multipliers are positive.  While the
B-projection stays on ``F`` it is the projection onto the affine hull of
``F``.  With ``V`` the null space of ``A_F``, ``P_V`` the projection onto
it and ``s_k = (<c, b_k> - M)/||c||^2`` the A-step of cycle ``k``, one
cycle maps ``b_{k+1} = b_k - s_k P_V c`` and ``s_{k+1} = rho s_k`` with
``rho = 1 - q`` and ``q = ||P_V c||^2/||c||^2``.  After ``j`` cycles

    b_{k+j} = b_k - s_k g(j) P_V c,   g(j) = (1 - rho^j)/q,
    a_{k+j+1} = b_{k+j} - s_k rho^j c.

The multipliers are ``s_k rho^j`` times a fixed vector, so their signs do
not change; the path leaves ``F`` only when an inactive row becomes tight.
When two consecutive B-projections have the same face, :func:`run` finds
the first cycle at which one of five events could happen:

- an approaching inactive row's slack falls to ``10 * ACTIVE_TOL``;
- the gap ``s_k rho^j ||c||`` falls to the certificate tolerance (the
  pair witnesses a common point);
- the A-point's violation of the face rows, ``s_k rho^j max(-A_F c)``,
  falls to the feasibility tolerance of the polyhedron projection, which
  then returns the A-point unchanged (a common point by rounding);
- the gap-stall difference ``s_k rho^(j-1) ||P_r c|| (1 - ||P_r c||/||c||)``,
  with ``P_r = I - P_V``, falls below ``GAP_STALL_TOL``;
- the cycle cap.

It then generates every cycle up to two before that one from the closed
form, iterates and gaps included, and resumes ordinary cycles, so every
face change, certificate and stop decision still comes from real
projections.  This is done at most once per visit to a face.  Other pairs,
and a polyhedron A with a half-space B, run ordinary cycles throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PointNotInSet, StartNotInA, ZeroVector
from .linalg import ZERO_TOL, as_point, unit_cone_distance
from .qp import _FEAS_TOL, project_polyhedron
from .sets import (
    ACTIVE_TOL,
    HalfSpace,
    Polyhedron,
    ProjectableSet,
    _contains_point,
    normal_cone_columns,
    project,
)

# Decrease of the step gap below which the run is declared stalled; guards
# fixtures whose convergence is asymptotic only.
GAP_STALL_TOL = 1e-14


class StopReason(enum.Enum):
    CERTIFIED = "Certified"
    GAP_STALLED = "GapStalled"
    MAX_ITERS = "MaxIters"


@dataclass
class Certificate:
    """Result of the nearest-pair optimality check for ``(a, b)``.

    ``residual_A`` is the distance from ``(b - a)/||b - a||`` to the
    proximal normal cone of A at ``a``; ``residual_B`` symmetrically.  When
    ``||a - b||`` is below tolerance the pair witnesses a common point and
    both residuals are 0 by convention.
    """

    a: np.ndarray
    b: np.ndarray
    residual_A: float
    residual_B: float
    holds: bool


@dataclass
class Trace:
    """Full record of one alternating-projections run.

    ``iterates`` holds ``(index, label, point)`` with labels alternating
    A, B, A, B, ...; ``gaps[n]`` is the distance between iterates n and
    n + 1.  ``steps_to_converge`` counts individual projections until the
    minimum distance was attained, i.e. the index of the projection that
    produced the first certified pair's B-point (the A-projection that
    completes the pair confirms it but is not counted).
    ``generated_cycles`` counts the cycles whose iterates and gaps were
    generated in closed form on one face of a polyhedron (see the module
    docstring) instead of projected; they are part of ``iterates`` and
    ``gaps`` like every other cycle.
    """

    iterates: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    stop_reason: StopReason = StopReason.MAX_ITERS
    steps_to_converge: int | None = None
    certificate: Certificate | None = None
    generated_cycles: int = 0

    def final_pair(self):
        """Last (A-point, B-point) of the run."""
        a = next(p for _, lab, p in reversed(self.iterates) if lab == "A")
        b = next(p for _, lab, p in reversed(self.iterates) if lab == "B")
        return a, b

    @property
    def final_gap(self) -> float:
        return self.gaps[-1] if self.gaps else 0.0

    def to_json_dict(self) -> dict:
        """Report fields of the run; the iterates and gaps are not included."""
        cert = None
        if self.certificate is not None:
            cert = {
                "residual_A": self.certificate.residual_A,
                "residual_B": self.certificate.residual_B,
                "holds": self.certificate.holds,
            }
        return {
            "stop_reason": self.stop_reason.value,
            "steps_to_converge": self.steps_to_converge,
            "num_iterates": len(self.iterates),
            "final_gap": self.final_gap,
            "certificate": cert,
        }


def check_certificate(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a,
    b,
    tol: float = 1e-8,
) -> Certificate:
    """Check whether ``(a, b)`` is a nearest pair of ``(set_a, set_b)``.

    The two sets must share a dimension (``DimensionMismatch`` otherwise).
    Each point is validated once, against its set's dimension; membership
    and the cone distances below work on the validated arrays.
    ``residual_A`` is the distance from the unit vector
    ``u = (b - a)/||b - a||`` to the proximal normal cone of A at ``a``
    (``residual_B`` from ``-u`` at ``b``): 1 for an empty cone, the
    closed-form ray rejection for one generator, NNLS otherwise.
    """
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(f"sets have dimensions {set_a.dim} and {set_b.dim}")
    a = as_point(a, set_a.dim)
    b = as_point(b, set_b.dim)
    if not _contains_point(set_a, a, 1e-6):
        raise PointNotInSet("first point is not in the first set")
    if not _contains_point(set_b, b, 1e-6):
        raise PointNotInSet("second point is not in the second set")
    d = b - a
    gap = float(np.linalg.norm(d))
    if gap <= tol:
        # Consistent case: the pair witnesses a common point.
        return Certificate(a, b, 0.0, 0.0, True)
    normals_a = normal_cone_columns(set_a, a)
    normals_b = normal_cone_columns(set_b, b)
    if gap <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    u = d / gap
    res_a = unit_cone_distance(u, normals_a)
    res_b = unit_cone_distance(-u, normals_b)
    return Certificate(a, b, res_a, res_b, res_a <= tol and res_b <= tol)


def run(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    x0,
    max_iters: int = 1000,
    cert_tol: float = 1e-8,
) -> Trace:
    """Alternate projections from ``x0`` in A until a stop rule fires.

    Parameters
    ----------
    set_a, set_b : ProjectableSet
        The two closed sets; iterates with label "A" belong to ``set_a``.
    x0 : array_like
        Starting point, must lie in ``set_a`` (tolerance 1e-8).
    max_iters : int
        Cap on full A-B cycles (two projections each).
    cert_tol : float
        Residual threshold for the optimality certificate, checked after
        every completed cycle.

    Returns
    -------
    Trace
    """
    x0 = as_point(x0, set_a.dim)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not _contains_point(set_a, x0, 1e-8):
        raise StartNotInA("x0 must belong to the first set")

    trace = Trace()
    trace.iterates.append((0, "A", x0.copy()))
    # On a half-space/polyhedron pair the B-projection's multipliers name
    # the face it lands on; a repeated face is walked in closed form.
    walk = isinstance(set_a, HalfSpace) and isinstance(set_b, Polyhedron)
    last_face, walked = None, False
    current = x0
    step = 0
    cycle = 0
    while cycle < max_iters:
        if walk:
            res = project_polyhedron(set_b, current)
            b, face = res.point, res.dual > 0.0
        else:
            b = project(set_b, current)
        step += 1
        trace.iterates.append((step, "B", b))
        trace.gaps.append(float(np.linalg.norm(b - current)))

        a = project(set_a, b)
        step += 1
        trace.iterates.append((step, "A", a))
        trace.gaps.append(float(np.linalg.norm(a - b)))

        cert = check_certificate(set_a, set_b, a, b, cert_tol)
        trace.certificate = cert
        if cert.holds:
            trace.stop_reason = StopReason.CERTIFIED
            # The B-projection of this cycle attained the minimum distance;
            # the closing A-projection confirmed it.
            trace.steps_to_converge = 2 * cycle + 1
            return trace
        if len(trace.gaps) >= 2 and trace.gaps[-2] - trace.gaps[-1] < GAP_STALL_TOL:
            trace.stop_reason = StopReason.GAP_STALLED
            return trace
        current = a
        cycle += 1
        if not walk:
            continue
        key = face.tobytes()
        if key != last_face:
            last_face, walked = key, False
        elif not walked:
            walked = True
            b_prev = trace.iterates[-4][2]  # the B-point one cycle back
            bs, as_ = _face_jump(set_a, set_b, face, b, b_prev, max_iters - cycle, cert_tol)
            if len(bs):
                for pb, pa in zip(bs, as_):
                    trace.iterates.append((step + 1, "B", pb))
                    trace.iterates.append((step + 2, "A", pa))
                    step += 2
                gaps = np.empty(2 * len(bs))
                gaps[0::2] = np.linalg.norm(bs - np.vstack([current, as_[:-1]]), axis=1)
                gaps[1::2] = np.linalg.norm(as_ - bs, axis=1)
                trace.gaps.extend(gaps.tolist())
                trace.generated_cycles += len(bs)
                cycle += len(bs)
                current = as_[-1]

    trace.stop_reason = StopReason.MAX_ITERS
    return trace


def _face_jump(
    h: HalfSpace,
    poly: Polyhedron,
    face: np.ndarray,
    b: np.ndarray,
    b_prev: np.ndarray,
    cycles_left: int,
    cert_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """B- and A-points of the cycles after ``b`` that stay on ``face``.

    ``b`` is the B-point of the cycle just completed and ``b_prev`` that of
    the cycle before, both on the face whose rows ``face`` marks;
    ``cycles_left`` cycles remain under the cap.  Row ``j - 1`` of the two
    ``(J, n)`` arrays holds ``b_{k+j}`` and ``a_{k+j+1}`` (module
    docstring), for ``J`` two short of the first cycle at which the face
    could change or a stop rule could fire.  ``J`` is 0
    when the face does not move the run (``||P_V c||`` is below
    ``ZERO_TOL ||c||`` or all of ``c``), when ``b`` is in the half-space,
    when an inactive row is already within ``10 * ACTIVE_TOL`` of tight or
    is reached within three cycles, or when the next cycle could stall or
    find the A-point feasible.
    """
    c = h.c
    cc = float(c @ c)
    s = (float(c @ b) - h.M) / cc
    none = np.empty((0, b.shape[0]))
    if not s > 0.0:
        return none, none
    # Inactive rows: slack_i(j) = slack_i + s g(j) A_i P_V c.
    margin = 10.0 * ACTIVE_TOL
    slack = poly.b - poly.A @ b
    slack[face] = math.inf
    if float(slack.min()) <= margin:
        return none, none
    # On the face the last step b - b_prev is 1/rho times the next one, with
    # rho = s/s_prev.  Continued for three cycles it shows most short visits,
    # where a row is reached before any cycle could be generated, without
    # the QR below; the exact horizon decides every other case.
    s_prev = (float(c @ b_prev) - h.M) / cc
    if s_prev > s:
        rho = s / s_prev
        ahead = (rho + rho * rho + rho**3) * (poly.A @ (b - b_prev))
        if float((slack - ahead).min()) <= margin:
            return none, none
    if face.any():
        Q, _ = np.linalg.qr(poly.A[face].T)
        pvc = c - Q @ (Q.T @ c)
        pvc -= Q @ (Q.T @ pvc)
    else:
        pvc = c.copy()
    q = float(pvc @ pvc) / cc
    if not ZERO_TOL < math.sqrt(q) < 1.0:
        return none, none
    log_rho = math.log1p(-q)
    nc = math.sqrt(cc)
    horizon = float(cycles_left + 1)  # the first cycle past the cap
    # An approaching row reaches the margin once 1 - rho^j >= t.
    closing = -(poly.A @ pvc)
    closing[face] = 0.0
    hit = closing > 0.0
    t = q * (slack[hit] - margin) / (s * closing[hit])
    t = t[t < 1.0]
    if t.size:
        horizon = min(horizon, float(np.floor(np.log1p(-t) / log_rho).min()))
    # Common point: s rho^j ||c|| <= cert_tol.
    if cert_tol > 0.0:
        horizon = min(horizon, math.floor(math.log(cert_tol / (s * nc)) / log_rho))
    # Common point by rounding: the A-point of cycle k + j violates a face
    # row by at most s rho^j max(-A_F c), and the next B-projection returns
    # it unchanged once that is within the projection's feasibility
    # tolerance; ||a|| <= ||b|| + s ||c|| (1 + 1/sqrt(q)) along the face.
    reach = float(np.linalg.norm(b)) + s * nc * (1.0 + 1.0 / math.sqrt(q))
    feas_tol = _FEAS_TOL * (1.0 + float(np.abs(poly.b).max()) + reach)
    violation = -s * float((poly.A[face] @ c).min())
    if not violation > feas_tol:
        return none, none
    horizon = min(horizon, 1 + math.floor(math.log(feas_tol / violation) / log_rho))
    # Gap stall: s rho^(j-1) ||P_r c|| (1 - ||P_r c||/||c||) < GAP_STALL_TOL.
    prc = float(np.linalg.norm(c - pvc))
    stall = s * prc * (1.0 - prc / nc)
    if not stall > GAP_STALL_TOL:
        return none, none
    horizon = min(horizon, 1 + math.floor(math.log(GAP_STALL_TOL / stall) / log_rho))
    jumps = int(horizon) - 2
    if jumps < 1:
        return none, none
    j_log_rho = np.arange(1, jumps + 1) * log_rho
    bs = b - (s * -np.expm1(j_log_rho) / q)[:, None] * pvc
    as_ = bs - (s * np.exp(j_log_rho))[:, None] * c
    return bs, as_
