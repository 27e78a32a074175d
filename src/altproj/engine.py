"""Alternating projections between two projectable sets.

The driver records every iterate, checks the nearest-pair optimality
certificate after each full A-B cycle, and stops on the first of:
certificate holds, gap decrease stalled, or the cycle cap.

For a pair of closed convex sets, points ``a`` in A and ``b`` in B are a
minimum-distance pair exactly when ``b - a`` lies in the proximal normal
cone of A at ``a`` and ``a - b`` in that of B at ``b``; the certificate
measures both cone distances.  For nonconvex sets the inclusion is only a
necessary condition, so a certified stop there means "stationary pair".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import PointNotInSet, StartNotInA, ZeroVector
from .linalg import ZERO_TOL, as_point, unit_cone_distance
from .sets import ProjectableSet, contains, normal_cone_columns, project

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
    """

    iterates: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    stop_reason: StopReason = StopReason.MAX_ITERS
    steps_to_converge: int | None = None
    certificate: Certificate | None = None

    def final_pair(self):
        """Last (A-point, B-point) of the run."""
        a = next(p for _, lab, p in reversed(self.iterates) if lab == "A")
        b = next(p for _, lab, p in reversed(self.iterates) if lab == "B")
        return a, b

    @property
    def final_gap(self) -> float:
        return self.gaps[-1] if self.gaps else 0.0

    def to_json_dict(self) -> dict:
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
            "iterates": [
                {"step": i, "label": lab, "point": p.tolist()}
                for i, lab, p in self.iterates
            ],
            "gaps": list(self.gaps),
        }


def check_certificate(
    set_a: ProjectableSet,
    set_b: ProjectableSet,
    a,
    b,
    tol: float = 1e-8,
) -> Certificate:
    """Check whether ``(a, b)`` is a nearest pair of ``(set_a, set_b)``.

    The points are validated here once; the cone distances below work on
    the validated arrays.  ``residual_A`` is the distance from the unit
    vector ``u = (b - a)/||b - a||`` to the proximal normal cone of A at
    ``a`` (``residual_B`` from ``-u`` at ``b``): 1 for an empty cone, the
    closed-form ray rejection for one generator, NNLS otherwise.
    """
    a = as_point(a)
    b = as_point(b)
    if not contains(set_a, a, 1e-6):
        raise PointNotInSet("first point is not in the first set")
    if not contains(set_b, b, 1e-6):
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
    x0 = as_point(x0)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not contains(set_a, x0, 1e-8):
        raise StartNotInA("x0 must belong to the first set")

    trace = Trace()
    trace.iterates.append((0, "A", x0.copy()))
    current = x0
    step = 0
    for cycle in range(max_iters):
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

    trace.stop_reason = StopReason.MAX_ITERS
    return trace

