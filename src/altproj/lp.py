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
from .errors import LowerBoundNotStrict, NotConverged, ZeroVector
from .linalg import ZERO_TOL, _real_scalar, as_point
from .qp import _walk_from
from .sets import HalfSpace, Polyhedron, _ValueSet, _freeze, project_halfspace

# ``lp.vertex_oracle`` is public API, and benchmarks/tracer.py resolves
# ``altproj.lp.feasible_vertices`` and ``altproj.lp.vertex_oracle`` by name;
# both stay bound here although nothing in this module calls them.
from .vertices import feasible_vertices, vertex_oracle  # noqa: F401

_STRICT_TOL = 1e-10

DIRECT = "DirectAP"
SHIFTED = "ShiftedOneStep"
_METHODS = {"direct": DIRECT, "shifted": SHIFTED}


@dataclass(frozen=True, eq=False)
class LPProblem(_ValueSet):
    """``min <c, x>`` over ``poly`` with strict lower bound ``M``.

    A value, as the sets are: two problems with equal ``c``, ``poly`` and
    ``M`` compare equal and hash alike.
    """

    c: np.ndarray
    poly: Polyhedron
    M: float

    def __post_init__(self):
        c = as_point(self.c, self.poly.dim)
        if float(np.linalg.norm(c)) <= ZERO_TOL:
            raise ZeroVector("objective vector must be nonzero")
        M = _real_scalar(self.M, "M")
        if not np.isfinite(M):
            raise ValueError("lower bound M must be finite")
        object.__setattr__(self, "c", _freeze(c))
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
    return ((M - 1.0) / float(c.dot(c))) * c


def solve_lp(
    problem: LPProblem,
    x0=None,
    strategy: str = "direct",
    max_iters: int = 10**6,
    cert_tol: float = 1e-8,
) -> LPOutcome:
    """Solve the LP by alternating projections.

    ``strategy`` is ``"direct"`` (run the engine until the nearest-pair
    certificate holds; the solution is the final feasible iterate) or
    ``"shifted"`` (translate the sub-level half-space so the one-step
    threshold holds, then project the shifted start once).  The shifted
    strategy projects ``x0`` onto the polyhedron once: the shift needs
    ``d(x0, B)``, and the walk to the shifted start's projection
    (:func:`~altproj.qp.project_along_ray`) begins from the same result,
    on its face and QR factor.  The walk raises :class:`NotConverged` past
    its step cap.  A given ``x0`` outside the half-space by more than 1e-8
    raises :class:`StartNotInA` from :func:`engine.run` or the shift.

    ``max_iters`` caps the direct strategy's cycles; it must be an integer
    of at least 1 (``ValueError`` otherwise, from :func:`engine.run`).  The
    default, ``10**6``, lets the long runs certify: on the 1,800 random LPs
    of ``random_lp_instance`` at seeds 1, 3, 7, 11, 21 and 31 the longest
    run took 133,352 cycles, all but 7 of them generated in closed form on
    one face, and no run projected more than 17 cycles.  The worst case is a
    run that projects every cycle up to the cap: at about 0.05 ms per
    projected cycle that the face factor decides, and 0.08 ms per cycle
    that takes a cone solve (n = 3 and 4, 2 vCPU), that is one to two
    minutes.
    """
    method = _METHODS.get(strategy)
    if method is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    c, poly, M = problem.c, problem.poly, problem.M
    x0 = _default_start(c, M) if x0 is None else as_point(x0, poly.dim)
    halfspace = HalfSpace(c, M)

    if method == DIRECT:
        trace = engine.run(halfspace, poly, x0, max_iters=max_iters, cert_tol=cert_tol)
        # A copy: the trace's rows are read-only views.
        b_star = trace.final_pair()[1].copy()
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
        # The shift projects x0 onto B for d(x0, B); the walk starts there,
        # on the face of that projection.
        mu, _, projected = certify._one_step_shift(halfspace, poly, x0, alpha, 0.0)
        b_star = _walk_from(poly, *projected, -c, mu).point
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

    viol = float(np.max(poly.A.dot(b_star) - poly.b, initial=0.0))
    if viol > 1e-7:
        raise NotConverged(f"solution violates feasibility by {viol:.3e}")
    return LPOutcome(
        solution=b_star,
        objective=float(c.dot(b_star)),
        steps=steps,
        certificate=certificate,
        method=method,
        trace=trace if method == DIRECT else None,
    )


def _check_strict_bound(c: np.ndarray, M: float, b_star: np.ndarray) -> None:
    # Distance from the solve's own feasible point to the half-space; if it
    # vanishes the offset M was not strictly below the optimum.
    gap = (float(c.dot(b_star)) - M) / float(np.linalg.norm(c))
    if gap <= _STRICT_TOL:
        raise LowerBoundNotStrict(
            f"offset M={M} is not strictly below the optimal value"
        )


def problem_from_json(obj: dict, M=None) -> LPProblem:
    """Build an :class:`LPProblem` from ``{"c", "A", "b", "M"}``.

    ``M`` overrides the object's bound.  ``ValueError`` when ``obj`` is not
    an object, or when ``M`` or an entry of ``c``, ``A`` or ``b`` is a
    bool, a string or null.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"LP problem must be an object, got {obj!r}")
    poly = Polyhedron(obj["A"], obj["b"])
    if M is None:
        if "M" not in obj:
            raise KeyError("problem JSON has no 'M' and no override was given")
        M = obj["M"]
    return LPProblem(obj["c"], poly, M)


def outcome_to_json(outcome: LPOutcome, trace_csv: str | None = None) -> dict:
    return {
        "solution": outcome.solution.tolist(),
        "objective": outcome.objective,
        "steps": outcome.steps,
        "method": outcome.method,
        "certificate": outcome.certificate.to_json_dict(),
        "trace_csv": trace_csv,
    }
