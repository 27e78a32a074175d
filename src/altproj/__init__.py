"""Alternating projections with finite-step certificates.

Projection kernels for half-spaces, polyhedra, and two planar epigraphs; an
alternating-projections engine with full trace recording and nearest-pair
optimality certificates; computable contraction constants with finite-step
and one-step bounds for polyhedron / half-space pairs; and an LP solver
that reduces ``min <c, x> over {Ax <= b}`` to a minimum-distance problem.
"""

from .certify import (
    TransversalityReport,
    alpha_polyhedron_halfspace,
    beta_bound,
    bound_report,
    iteration_bound,
    one_step_shift,
    polyhedron_halfspace_distance,
)
from .engine import Certificate, StopReason, Trace, check_certificate, run
from .errors import (
    AltprojError,
    DegenerateRow,
    DimensionMismatch,
    EmptyPolyhedron,
    InvalidDistance,
    LowerBoundNotStrict,
    NotConverged,
    NotPolyhedralPair,
    PointNotInSet,
    StartNotInA,
    TooLarge,
    Unbounded,
    ZeroVector,
)
from .linalg import Ray, as_point, distance_to_finite_cone, distance_to_ray, nnls, norm
from .lp import LPOutcome, LPProblem, solve_lp
from .qp import QPResult, project_polyhedron
from .sets import (
    EpigraphSet,
    HalfSpace,
    Polyhedron,
    ProjectableSet,
    contains,
    project,
    project_epigraph,
    project_halfspace,
    proximal_normal_generators,
    set_from_json,
    set_to_json,
    translate,
)
from .vertices import vertex_oracle

__version__ = "0.1.0"

__all__ = [
    "AltprojError",
    "Certificate",
    "DegenerateRow",
    "DimensionMismatch",
    "EmptyPolyhedron",
    "EpigraphSet",
    "HalfSpace",
    "InvalidDistance",
    "LPOutcome",
    "LPProblem",
    "LowerBoundNotStrict",
    "NotConverged",
    "NotPolyhedralPair",
    "PointNotInSet",
    "Polyhedron",
    "ProjectableSet",
    "QPResult",
    "Ray",
    "StartNotInA",
    "StopReason",
    "TooLarge",
    "Trace",
    "TransversalityReport",
    "Unbounded",
    "ZeroVector",
    "alpha_polyhedron_halfspace",
    "as_point",
    "beta_bound",
    "bound_report",
    "check_certificate",
    "contains",
    "distance_to_finite_cone",
    "distance_to_ray",
    "iteration_bound",
    "nnls",
    "norm",
    "one_step_shift",
    "polyhedron_halfspace_distance",
    "project",
    "project_epigraph",
    "project_halfspace",
    "project_polyhedron",
    "proximal_normal_generators",
    "run",
    "set_from_json",
    "set_to_json",
    "solve_lp",
    "translate",
    "vertex_oracle",
]
