"""Linear programs solved as minimum-distance problems.

``min <c, x> over {Ax <= b}`` becomes the search for a nearest pair of the
feasible polyhedron and the sub-level half-space ``{x : <c, x> <= M}``,
where ``M`` is a lower bound strictly below the optimal value.  Either run
the alternating-projections engine directly, or walk the projection of the
start shifted along ``-c`` until it stops moving, at the solution.

The brute-force vertex oracle that gives independent ground truth lives in
:mod:`altproj.vertices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .errors import LowerBoundNotStrict, NotConverged, Unbounded
from .linalg import _check_tol, _norm, as_point
from .qp import _face_of, _walk_to_optimum
from .sets import HalfSpace, Polyhedron, _ValueSet, _check_start, _project_halfspace

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
    ``M`` compare equal and hash alike.  ``c`` and ``M`` are checked by
    building the half-space ``{x : <c, x> <= M}``, kept for the solves.
    """

    c: np.ndarray
    poly: Polyhedron
    M: float
    _halfspace: HalfSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        halfspace = HalfSpace(as_point(self.c, self.poly.dim), self.M)
        object.__setattr__(self, "c", halfspace.c)
        object.__setattr__(self, "M", halfspace.M)
        object.__setattr__(self, "_halfspace", halfspace)


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
    cert_tol: float = engine._CERT_TOL,
) -> LPOutcome:
    """Solve the LP by alternating projections.

    ``strategy`` is ``"direct"`` (run the engine until the nearest-pair
    certificate holds; the solution is the final feasible iterate) or
    ``"shifted"`` (project ``x0`` once, then walk ``t -> P(x0 - t c)`` as
    :func:`~altproj.qp.project_along_ray` does, to the first face where the
    point stands still and no working multiplier falls:
    :func:`~altproj.qp._walk_to_optimum`).  There it stays
    for every larger shift, the paper's one-step shift included, and it is
    the optimum by the KKT conditions.  The optimum is certified on the
    walk's final face: B's residual is read from its factor, as a direct
    run reads it, and measured by a cone solve only where the factor cannot
    decide, so no cone solve runs after the walk on the benchmark's pools.
    The walk reads no vertex list, so
    it raises no :class:`TooLarge`; a point that moves on with no face
    ahead raises :class:`LowerBoundNotStrict`, as the direct solve does on
    an unbounded LP, and a walk past its step cap :class:`NotConverged`.
    Either strategy raises :class:`LowerBoundNotStrict` by one rule when its
    solution lies within ``cert_tol`` (at least 1e-10) of the half-space
    ``{<c, x> <= M}``: the sets then meet to within the certificate's
    tolerance.  Either strategy checks ``x0`` (``StartNotInA``),
    ``max_iters`` and ``cert_tol`` (``ValueError``) by :func:`engine.run`'s
    rules first.

    ``max_iters`` caps the direct strategy's cycles.  The default,
    ``10**6``, lets the long runs certify: on the 1,800 random LPs of
    ``random_lp_instance`` at seeds 1, 3, 7, 11, 21 and 31 the longest run
    took 133,352 cycles, all but 7 of them generated in closed form on one
    face, and no run projected more than 17 cycles.  The worst case is a
    run that projects every cycle up to the cap: at about 0.027 ms per
    projected cycle that the face factor decides, and 0.11 ms per cycle
    that takes a cone solve (n = 3 and 4, 2-vCPU Xeon), that is half a
    minute to two minutes, and the run holds its 2 * 10**6 real iterates
    as it goes (some 150 bytes each at n = 4).  A generated cycle costs
    neither: the run keeps a record of a few hundred bytes per stretch,
    and the trace's ``points`` and ``gaps``, ``8 (n + 1)`` bytes per
    iterate, are built on their first read, which the solve never makes.
    """
    method = _METHODS.get(strategy)
    if method is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    halfspace, c, poly, M = problem._halfspace, problem.c, problem.poly, problem.M
    x0 = _default_start(c, M) if x0 is None else as_point(x0, poly.dim)
    max_iters = engine._check_max_iters(max_iters)
    cert_tol = _check_tol(cert_tol, "cert_tol")

    if method == DIRECT:
        trace = engine.run(halfspace, poly, x0, max_iters=max_iters, cert_tol=cert_tol)
        # A copy: the trace's rows are read-only views.
        b_star = trace.final_pair()[1].copy()
        _check_strict_bound(halfspace, b_star, cert_tol)
        if trace.stop_reason is not engine.StopReason.CERTIFIED:
            raise NotConverged(
                f"direct solve stopped with {trace.stop_reason.value} "
                f"after {trace.num_iterates // 2} cycles"
            )
        steps = trace.steps_to_converge
        certificate = trace.certificate
    else:
        _check_start(halfspace, x0)
        try:
            _, end, factor = _walk_to_optimum(poly, x0, c)
        except Unbounded:
            raise _not_strict(M) from None
        b_star = end.point
        _check_strict_bound(halfspace, b_star, cert_tol)
        # Certify b* against the unshifted half-space: the walk stopped where
        # -c lies in the cone of b*'s working rows, so B's residual is read
        # from the walk's final face wherever its factor decides.  Both
        # points are the solve's own, validated arrays.
        a_star = _project_halfspace(halfspace, b_star)
        d = a_star - b_star
        face = _face_of(poly, *factor)
        certificate = engine._certificate(halfspace, poly, a_star, b_star, d, _norm(d), cert_tol, face)
        if not certificate.holds:
            raise NotConverged("shifted projection did not certify optimality")
        steps = 1

    return LPOutcome(
        solution=b_star,
        objective=float(c.dot(b_star)),
        steps=steps,
        certificate=certificate,
        method=method,
        trace=trace if method == DIRECT else None,
    )


def _check_strict_bound(halfspace: HalfSpace, b_star: np.ndarray, cert_tol: float) -> None:
    # The one strictness test of both strategies.  The distance from the
    # solve's own feasible point to the half-space, read on its unit normal
    # and offset, must exceed the certificate tolerance (and _STRICT_TOL):
    # within it the pair witnesses a common point, the sets meet, and the
    # offset M was not strictly below the optimum.  ``b_star`` needs no
    # feasibility test of its own: the prelude of its certificate tested it
    # by the membership rule of ``sets._active``.
    gap = float(halfspace._unit.dot(b_star)) - halfspace._offset
    if gap <= max(cert_tol, _STRICT_TOL):
        raise _not_strict(halfspace.M)


def _not_strict(M: float) -> LowerBoundNotStrict:
    return LowerBoundNotStrict(f"offset M={M} is not strictly below the optimal value")


def problem_from_json(obj: dict) -> LPProblem:
    """Build an :class:`LPProblem` from ``{"c", "A", "b", "M"}``.

    ``KeyError`` when a key is missing.  ``ValueError`` when ``obj`` is not
    an object, or when ``M`` or an entry of ``c``, ``A`` or ``b`` is a
    bool, a string or null.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"LP problem must be an object, got {obj!r}")
    poly = Polyhedron(obj["A"], obj["b"])
    return LPProblem(obj["c"], poly, obj["M"])


def outcome_to_json(outcome: LPOutcome, trace_csv: str | None = None) -> dict:
    return {
        "solution": outcome.solution.tolist(),
        "objective": outcome.objective,
        "steps": outcome.steps,
        "method": outcome.method,
        "certificate": outcome.certificate.to_json_dict(),
        "trace_csv": trace_csv,
    }
