"""Projectable closed sets: half-spaces, polyhedra, and two planar epigraphs.

Each set type is an immutable value object.  The module-level functions
``contains``, ``project``, ``proximal_normal_generators`` and ``translate``
dispatch on the concrete type, so callers can treat the union
:data:`ProjectableSet` uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateRow,
    DimensionMismatch,
    PointNotInSet,
    ZeroVector,
)
from .linalg import ZERO_TOL, as_point
from .qp import project_polyhedron

# Default tolerance for deciding which constraints are active at a point.
# Projections are accurate to ~1e-10, so this leaves a safety margin.
ACTIVE_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space ``{x : <c, x> <= M}`` with outward normal ``c``."""

    c: np.ndarray
    M: float

    def __post_init__(self):
        c = as_point(self.c)
        if float(np.linalg.norm(c)) <= ZERO_TOL:
            raise ZeroVector("half-space normal must be nonzero")
        M = float(self.M)
        if not np.isfinite(M):
            raise ValueError("half-space offset M must be finite")
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "M", M)

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class Polyhedron:
    """Polyhedron ``{x : A @ x <= b}``; the rows of ``A`` are outward normals."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch(f"constraint matrix has shape {A.shape}")
        b = as_point(self.b, A.shape[0])
        if not np.all(np.isfinite(A)):
            raise ValueError("constraint matrix entries must be finite")
        row_norms = np.linalg.norm(A, axis=1)
        if np.any(row_norms <= ZERO_TOL):
            raise DegenerateRow("every constraint row must be nonzero")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]


ABS = "abs"
SQUARE = "square"
_EPIGRAPH_KINDS = (ABS, SQUARE)


@dataclass(frozen=True)
class EpigraphSet:
    """Planar epigraph translated by ``shift``.

    ``kind == "abs"`` is ``{(u, v) : v >= |u|} + shift`` and
    ``kind == "square"`` is ``{(u, v) : v >= u^2} + shift``.
    """

    kind: str
    shift: np.ndarray

    def __post_init__(self):
        if self.kind not in _EPIGRAPH_KINDS:
            raise ValueError(f"unknown epigraph kind {self.kind!r}")
        shift = as_point(self.shift, 2)
        object.__setattr__(self, "shift", _freeze(shift))

    @property
    def dim(self) -> int:
        return 2


ProjectableSet = Union[HalfSpace, Polyhedron, EpigraphSet]


def contains(s: ProjectableSet, x, tol: float = ACTIVE_TOL) -> bool:
    """True iff every defining inequality of ``s`` holds at ``x`` within ``tol``."""
    return _contains_point(s, as_point(x, s.dim), tol)


def _contains_point(s: ProjectableSet, x: np.ndarray, tol: float) -> bool:
    # ``contains`` for a point already validated against ``s``.
    if isinstance(s, HalfSpace):
        return float(s.c @ x) <= s.M + tol
    if isinstance(s, Polyhedron):
        return bool((s.A @ x <= s.b + tol).all())
    z = x - s.shift
    profile = abs(z[0]) if s.kind == ABS else z[0] * z[0]
    return z[1] >= profile - tol


def translate(s: ProjectableSet, v) -> ProjectableSet:
    """The set ``s + v``."""
    v = as_point(v, s.dim)
    if isinstance(s, HalfSpace):
        return HalfSpace(s.c, s.M + float(s.c @ v))
    if isinstance(s, Polyhedron):
        return Polyhedron(s.A, s.b + s.A @ v)
    return EpigraphSet(s.kind, s.shift + v)


def project_halfspace(h: HalfSpace, x) -> np.ndarray:
    """Nearest point of the half-space; closed form."""
    x = as_point(x, h.dim)
    excess = float(h.c @ x) - h.M
    if excess <= 0.0:
        return x.copy()
    return x - (excess / float(h.c @ h.c)) * h.c


def _project_abs_base(z: np.ndarray) -> np.ndarray:
    # Epigraph of |u|.  Candidates: the two boundary rays (the apex is the
    # clamped endpoint of either).  Ties resolve to the first branch.
    if z[1] >= abs(z[0]):
        return z.copy()
    t = max(0.0, 0.5 * (z[0] + z[1]))
    right = np.array([t, t])
    sdist_r = float((right - z) @ (right - z))
    u = max(0.0, 0.5 * (z[1] - z[0]))
    left = np.array([-u, u])
    sdist_l = float((left - z) @ (left - z))
    return right if sdist_r <= sdist_l else left


def _parabola_root(z1: float, z2: float) -> float:
    # Stationarity of the squared distance over the boundary v = u^2 gives
    # the cubic g(u) = 2u^3 + (1 - 2 z2) u - z1 = 0.  For an outside point
    # the minimizing root lies between 0 and z1, where g is convex (z1 > 0)
    # or concave (z1 < 0), so guarded Newton from z1 is safe.
    if z1 == 0.0:
        return 0.0
    lin = 1.0 - 2.0 * z2

    def g(u: float) -> float:
        return 2.0 * u * u * u + lin * u - z1

    lo, hi = (0.0, z1) if z1 > 0.0 else (z1, 0.0)
    # Bracket invariant g(lo) < 0 < g(hi): g(0) = -z1 and
    # g(z1) = 2 z1 (z1^2 - z2), which has the sign of z1 outside the set.
    u = z1
    scale = 1.0 + abs(z1) + abs(z2)
    for _ in range(200):
        val = g(u)
        if abs(val) <= 1e-12 * scale:
            return u
        if val > 0.0:
            hi = u
        else:
            lo = u
        slope = 6.0 * u * u + lin
        if slope != 0.0:
            step = u - val / slope
        else:
            step = lo + 0.5 * (hi - lo)
        u = step if lo < step < hi else lo + 0.5 * (hi - lo)
        if hi - lo <= 1e-16 * scale:
            return u
    return u


def _project_square_base(z: np.ndarray) -> np.ndarray:
    if z[1] >= z[0] * z[0]:
        return z.copy()
    u = _parabola_root(float(z[0]), float(z[1]))
    return np.array([u, u * u])


def project_epigraph(e: EpigraphSet, x) -> np.ndarray:
    """Nearest point of the epigraph (unique: the set is convex)."""
    x = as_point(x, e.dim)
    z = x - e.shift
    base = _project_abs_base(z) if e.kind == ABS else _project_square_base(z)
    return base + e.shift


def project(s: ProjectableSet, x) -> np.ndarray:
    """Nearest point of ``s``; dispatches on the concrete set type."""
    if isinstance(s, HalfSpace):
        return project_halfspace(s, x)
    if isinstance(s, EpigraphSet):
        return project_epigraph(s, x)
    return project_polyhedron(s, x).point


# Proximal normal cones of an epigraph at an interior point and of the abs
# epigraph at its apex, where the cone spans both boundary normals.
_NO_PLANAR_NORMALS = _freeze(np.empty((2, 0)))
_ABS_APEX_NORMALS = _freeze(np.array([[1.0, -1.0], [-1.0, -1.0]]))


def normal_cone_columns(
    s: ProjectableSet, x: np.ndarray, tol: float = ACTIVE_TOL
) -> np.ndarray:
    """Generators of the proximal normal cone of ``s`` at ``x``, one per column.

    ``x`` must already be a finite 1-D array of the set's dimension; the
    result is ``(dim, k)`` with ``k = 0`` at interior points, and may be a
    read-only view.  Raises ``PointNotInSet`` when ``x`` is not in ``s``
    within ``tol``.
    """
    if not _contains_point(s, x, tol):
        raise PointNotInSet("point is not in the set within tolerance")
    if isinstance(s, Polyhedron):
        return s.A[np.abs(s.A @ x - s.b) <= tol].T
    if isinstance(s, HalfSpace):
        if abs(float(s.c @ x) - s.M) <= tol:
            return s.c[:, None]
        return np.empty((s.dim, 0))
    z = x - s.shift
    if s.kind == ABS:
        if z[1] > abs(z[0]) + tol:
            return _NO_PLANAR_NORMALS
        if abs(z[0]) <= tol:
            return _ABS_APEX_NORMALS
        return np.array([[1.0 if z[0] > 0 else -1.0], [-1.0]])
    if z[1] > z[0] * z[0] + tol:
        return _NO_PLANAR_NORMALS
    return np.array([[2.0 * z[0]], [-1.0]])


def proximal_normal_generators(
    s: ProjectableSet, x, tol: float = ACTIVE_TOL
) -> list[np.ndarray]:
    """Finite generator list for the proximal normal cone of ``s`` at ``x``.

    Interior points get an empty list (the cone is ``{0}``).  ``x`` must
    belong to ``s`` within ``tol``.
    """
    x = as_point(x, s.dim)
    return [g.copy() for g in normal_cone_columns(s, x, tol).T]


def set_to_json(s: ProjectableSet) -> dict:
    """JSON descriptor for a set (inverse of :func:`set_from_json`)."""
    if isinstance(s, HalfSpace):
        return {"halfspace": {"c": s.c.tolist(), "M": s.M}}
    if isinstance(s, Polyhedron):
        return {"polyhedron": {"A": s.A.tolist(), "b": s.b.tolist()}}
    return {"epigraph": {"kind": s.kind, "shift": s.shift.tolist()}}


def set_from_json(obj: dict) -> ProjectableSet:
    """Build a set from its JSON descriptor."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed set descriptor: {obj!r}")
    (tag, body), = obj.items()
    if tag == "halfspace":
        return HalfSpace(body["c"], float(body["M"]))
    if tag == "polyhedron":
        return Polyhedron(body["A"], body["b"])
    if tag == "epigraph":
        return EpigraphSet(str(body["kind"]), body["shift"])
    raise ValueError(f"unknown set descriptor tag {tag!r}")
