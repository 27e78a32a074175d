"""Linear programs solved as minimum-distance problems.

``min <c, x> over {Ax <= b}`` becomes the search for a nearest pair of the
feasible polyhedron and the sub-level half-space ``{x : <c, x> <= M}``,
where ``M`` is a lower bound strictly below the optimal value.  Either run
the alternating-projections engine directly, or shift the half-space far
enough that a single projection of the shifted start lands on the solution.

The brute-force vertex oracle that gives independent ground truth lives in
:mod:`altproj.vertices`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify, engine
from .errors import (
    LowerBoundNotStrict,
    NotConverged,
    StartNotInA,
    ZeroVector,
)
from .linalg import ZERO_TOL, as_point
from .qp import project_along_ray
from .sets import HalfSpace, Polyhedron, project_halfspace

# ``lp.vertex_oracle`` is public API, and benchmarks/tracer.py resolves
# ``altproj.lp.feasible_vertices`` and ``altproj.lp.vertex_oracle`` by name;
# both stay bound here although nothing in this module calls them.
from .vertices import feasible_vertices, vertex_oracle  # noqa: F401

_STRICT_TOL = 1e-10

DIRECT = "DirectAP"
SHIFTED = "ShiftedOneStep"
_STRATEGY_ALIASES = {
    "direct": DIRECT,
    "directap": DIRECT,
    "shifted": SHIFTED,
    "shiftedonestep": SHIFTED,
}


@dataclass(frozen=True)
class LPProblem:
    """``min <c, x>`` over ``poly`` with strict lower bound ``M``."""

    c: np.ndarray
    poly: Polyhedron
    M: float

    def __post_init__(self):
        c = as_point(self.c, self.poly.dim)
        if float(np.linalg.norm(c)) <= ZERO_TOL:
            raise ZeroVector("objective vector must be nonzero")
        M = float(self.M)
        if not np.isfinite(M):
            raise ValueError("lower bound M must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "M", M)


@dataclass
class LPOutcome:
    """Solution with its optimality certificate.

    ``steps`` counts the polyhedron projections of the solve itself: the
    certified step count for the direct strategy, exactly 1 for the
    shifted strategy.  ``trace`` holds the full run for the direct
    strategy and is ``None`` for the shifted one.
    """

    solution: np.ndarray
    objective: float
    steps: int
    certificate: engine.Certificate
    method: str
    trace: engine.Trace | None = None


def _default_start(c: np.ndarray, M: float) -> np.ndarray:
    # Any point with <c, x0> = M - 1, obtained by scaling c.
    return ((M - 1.0) / float(c @ c)) * c


def solve_lp(
    problem: LPProblem,
    x0=None,
    strategy: str = "direct",
    max_iters: int = 5000,
    cert_tol: float = 1e-8,
) -> LPOutcome:
    """Solve the LP by alternating projections.

    ``strategy`` is ``"direct"`` (run the engine until the nearest-pair
    certificate holds; the solution is the final feasible iterate) or
    ``"shifted"`` (translate the sub-level half-space so the one-step
    threshold holds, then project the shifted start once).
    """
    method = _STRATEGY_ALIASES.get(strategy.lower())
    if method is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    c, poly, M = problem.c, problem.poly, problem.M
    if x0 is None:
        x0 = _default_start(c, M)
    else:
        x0 = as_point(x0, poly.dim)
        if float(c @ x0) > M + 1e-9:
            raise StartNotInA("x0 must satisfy <c, x0> <= M")
    halfspace = HalfSpace(c, M)

    if method == DIRECT:
        trace = engine.run(halfspace, poly, x0, max_iters=max_iters, cert_tol=cert_tol)
        _, b_star = trace.final_pair()
        if trace.final_gap <= cert_tol:
            # The run found a (near-)common point: the sets intersect, so M
            # was not strictly below the optimum.
            raise LowerBoundNotStrict(
                f"offset M={M} is not strictly below the optimal value"
            )
        _check_strict_bound(c, M, b_star)
        if trace.stop_reason is not engine.StopReason.CERTIFIED:
            raise NotConverged(
                f"direct solve stopped with {trace.stop_reason.value} "
                f"after {len(trace.gaps) // 2} cycles"
            )
        steps = trace.steps_to_converge
        certificate = trace.certificate
    else:
        alpha = certify.alpha_polyhedron_halfspace(poly, halfspace)
        # d_AB = 0 is a valid lower bound on the pair distance and yields a
        # larger (still sufficient) shift, so no distance estimate is needed.
        mu, _ = certify.one_step_shift(halfspace, poly, x0, alpha, 0.0)
        result = project_along_ray(poly, x0, -c, mu)
        b_star = result.point
        _check_strict_bound(c, M, b_star)
        # Certify b* against the unshifted half-space: the shifted pair has
        # the same direction c and the same cone at b*, but its A-point lies
        # mu ||c|| away, where rounding of <c, a*> (about mu ||c||^2 eps)
        # can exceed the activity tolerance and leave a* with no normals.
        a_star = project_halfspace(halfspace, b_star)
        certificate = engine.check_certificate(halfspace, poly, a_star, b_star, cert_tol)
        if not certificate.holds:
            raise NotConverged("shifted projection did not certify optimality")
        steps = 1

    viol = float(np.max(poly.A @ b_star - poly.b, initial=0.0))
    if viol > 1e-7:
        raise NotConverged(f"solution violates feasibility by {viol:.3e}")
    return LPOutcome(
        solution=b_star,
        objective=float(c @ b_star),
        steps=steps,
        certificate=certificate,
        method=method,
        trace=trace if method == DIRECT else None,
    )


def _check_strict_bound(c: np.ndarray, M: float, b_star: np.ndarray) -> None:
    # Distance from the solve's own feasible point to the half-space; if it
    # vanishes the offset M was not strictly below the optimum.
    gap = (float(c @ b_star) - M) / float(np.linalg.norm(c))
    if gap <= _STRICT_TOL:
        raise LowerBoundNotStrict(
            f"offset M={M} is not strictly below the optimal value"
        )


def problem_from_json(obj: dict, M=None) -> LPProblem:
    """Build an :class:`LPProblem` from ``{"c", "A", "b", "M"}``."""
    poly = Polyhedron(obj["A"], obj["b"])
    if M is None:
        if "M" not in obj:
            raise KeyError("problem JSON has no 'M' and no override was given")
        M = float(obj["M"])
    return LPProblem(obj["c"], poly, float(M))


def outcome_to_json(outcome: LPOutcome, trace_csv: str | None = None) -> dict:
    return {
        "solution": outcome.solution.tolist(),
        "objective": outcome.objective,
        "steps": outcome.steps,
        "method": outcome.method,
        "certificate": {
            "residual_A": outcome.certificate.residual_A,
            "residual_B": outcome.certificate.residual_B,
            "holds": outcome.certificate.holds,
        },
        "trace_csv": trace_csv,
    }
