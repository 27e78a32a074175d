"""Projectable closed sets: half-spaces, polyhedra, and two planar epigraphs.

Each set type is an immutable value object: two sets of one type are
equal, and hash alike, when their defining arrays and numbers are equal.
The module-level functions ``contains``, ``project``,
``proximal_normal_generators`` and ``translate`` dispatch on the concrete
type, so callers can treat the union :data:`ProjectableSet` uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

from .errors import (
    DegenerateRow,
    DimensionMismatch,
    PointNotInSet,
    StartNotInA,
    ZeroVector,
)
from .linalg import ZERO_TOL, _dot_row_norms, _real_array, _real_scalar, as_point
from .qp import _project_from

# Default tolerance for deciding which constraints are active at a point.
# Projections are accurate to ~1e-10, so this leaves a safety margin.
ACTIVE_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


class _ValueSet:
    # Equality and hash by one key: the compared dataclass fields, each array
    # read as its shape and its entries (``np.array_equal``'s test), so that
    # 0.0 and -0.0 agree in both.

    def _key(self) -> tuple:
        key = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple((v.shape, *v.flat) if isinstance(v, np.ndarray) else v for v in key)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class HalfSpace(_ValueSet):
    """Closed half-space ``{x : <c, x> <= M}`` with outward normal ``c``."""

    c: np.ndarray
    M: float
    # ``<c, c>``, formed once for every projection onto the half-space, and
    # the entries of ``c`` as floats for the planar kernels.
    _cc: float = field(init=False, repr=False, compare=False)
    _c_floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = as_point(self.c)
        if float(np.linalg.norm(c)) <= ZERO_TOL:
            raise ZeroVector("half-space normal must be nonzero")
        M = _real_scalar(self.M, "M")
        if not math.isfinite(M):
            raise ValueError("half-space offset M must be finite")
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "_cc", float(c.dot(c)))
        object.__setattr__(self, "_c_floats", tuple(c.tolist()))

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class Polyhedron(_ValueSet):
    """Polyhedron ``{x : A @ x <= b}``; the rows of ``A`` are outward normals."""

    A: np.ndarray
    b: np.ndarray
    # The vertex list of :func:`altproj.vertices.feasible_vertices` and the
    # cone table of :func:`altproj.certify.alpha_polyhedron_halfspace`, each
    # made on first use and kept for as long as the polyhedron lives: ``A``
    # and ``b`` are frozen, so neither can go stale.  Neither is part of the
    # value, and a copy ``Polyhedron(A, b)`` starts without them.  Alpha
    # reads the vertex list for n >= 3 only, and the oracle reads it; no LP
    # optimum or distance does, so a planar ``bound_report`` leaves it None.
    # The cone table is the larger: about 28 MB at n = 8, m = 24, mostly QR
    # factors.
    _vertices: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _cones: object | None = field(default=None, init=False, repr=False, compare=False)
    # ``1 + max|b|``, the part of the projection's data scale
    # ``1 + max|b| + ||x||`` that does not depend on the point, formed once.
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(_real_array(self.A))
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch(f"constraint matrix has shape {A.shape}")
        b = as_point(self.b, A.shape[0])
        if not np.all(np.isfinite(A)):
            raise ValueError("constraint matrix entries must be finite")
        if np.any(_dot_row_norms(A) <= ZERO_TOL):
            raise DegenerateRow("every constraint row must be nonzero")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "_scale", 1.0 + float(np.abs(b).max()))

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]


ABS = "abs"
SQUARE = "square"
_EPIGRAPH_KINDS = (ABS, SQUARE)


@dataclass(frozen=True, eq=False)
class EpigraphSet(_ValueSet):
    """Planar epigraph translated by ``shift``.

    ``kind == "abs"`` is ``{(u, v) : v >= |u|} + shift`` and
    ``kind == "square"`` is ``{(u, v) : v >= u^2} + shift``.
    """

    kind: str
    shift: np.ndarray
    # The entries of ``shift`` as floats, for the kernels below.
    _shift_floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _EPIGRAPH_KINDS:
            raise ValueError(f"unknown epigraph kind {self.kind!r}")
        shift = as_point(self.shift, 2)
        object.__setattr__(self, "shift", _freeze(shift))
        object.__setattr__(self, "_shift_floats", tuple(shift.tolist()))

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
        return float(s.c.dot(x)) <= s.M + tol
    if isinstance(s, Polyhedron):
        return bool((s.A.dot(x) <= s.b + tol).all())
    _, z1, profile = _epigraph_offset(s, *x.tolist())
    return z1 >= profile - tol


def _check_start(s: ProjectableSet, x0: np.ndarray) -> None:
    if not _contains_point(s, x0, 1e-8):
        raise StartNotInA("x0 must belong to the first set")


def translate(s: ProjectableSet, v) -> ProjectableSet:
    """The set ``s + v``."""
    v = as_point(v, s.dim)
    if isinstance(s, HalfSpace):
        return HalfSpace(s.c, s.M + float(s.c.dot(v)))
    if isinstance(s, Polyhedron):
        return Polyhedron(s.A, s.b + s.A.dot(v))
    return EpigraphSet(s.kind, s.shift + v)


def project_halfspace(h: HalfSpace, x) -> np.ndarray:
    """Nearest point of the half-space; closed form."""
    return _project_halfspace(h, as_point(x, h.dim))


def _project_halfspace(h: HalfSpace, x: np.ndarray) -> np.ndarray:
    # ``project_halfspace`` for a point already validated against ``h``.
    excess = float(h.c.dot(x)) - h.M
    if excess <= 0.0:
        return x.copy()
    return x - (excess / h._cc) * h.c


def _project_halfplane_xy(h: HalfSpace, x0: float, x1: float) -> tuple[float, float]:
    # ``_project_halfspace`` for the 2-D point ``(x0, x1)``, on floats.
    # A BLAS product of two 2-vectors can round otherwise than
    # ``c0 x0 + c1 x1`` (OpenBLAS fuses the second product into the sum), and
    # the rounding of ``<c, x>`` enters the point.  When ``c`` has a zero
    # entry, one product is an exact zero (at a finite point) and ``<c, x>``
    # is the other product rounded once, in every summation order, fused or
    # not; only the sign of a zero sum can differ, and a zero ``excess``
    # moves no point.  So floats stand in for ``c.dot`` there, whatever the
    # BLAS.  Any other ``c`` keeps ``c.dot`` on the wrapped pair.  The rest
    # is the array code's arithmetic, entry by entry.
    c0, c1 = h._c_floats
    if c0 == 0.0 or c1 == 0.0:
        excess = c0 * x0 + c1 * x1 - h.M
    else:
        excess = float(h.c.dot(np.array((x0, x1)))) - h.M
    if excess <= 0.0:
        return x0, x1
    s = excess / h._cc
    return x0 - s * c0, x1 - s * c1


def _epigraph_offset(e: EpigraphSet, x0: float, x1: float) -> tuple[float, float, float]:
    # ``z = x - shift`` of the point ``(x0, x1)`` and the profile ``|z0|``
    # or ``z0^2`` that ``z1`` is compared with; the point is in the
    # epigraph when ``z1 >= profile``.
    s0, s1 = e._shift_floats
    z0 = x0 - s0
    return z0, x1 - s1, abs(z0) if e.kind == ABS else z0 * z0


def _project_abs_base(z0: float, z1: float) -> tuple[float, float]:
    # Epigraph of |u|, for a point ``z = (z0, z1)`` outside it.  The apex's
    # normal cone is ``{v <= -|u|}``, so a point there projects onto the
    # apex.  Any other point projects onto the boundary ray on its own side,
    # at ``t = (|z0| + z1) / 2`` along ``(sign z0, 1)``; for ``z0 < 0``,
    # ``-z0 + z1`` is ``z1 - z0`` bit for bit.
    if z1 <= -abs(z0):
        return 0.0, 0.0
    t = 0.5 * (abs(z0) + z1)
    return math.copysign(t, z0), t


def _parabola_root(z1: float, z2: float) -> float:
    # Stationarity of the squared distance over the boundary v = u^2 gives
    # the cubic 2u^3 + (1 - 2 z2) u - z1 = 0.  It is odd in (u, z1), so the
    # root is found for a = |z1| > 0, where g(u) = 2u^3 + (1 - 2 z2) u - a
    # has one positive root (g(0) = -a and g has at most one minimum on
    # u > 0), and z1's sign is restored at the end.  Past the root g is
    # convex with a positive slope, so Newton started there falls
    # monotonically onto it.  Each of a, cbrt(a/2) + sqrt(max(z2 - 1/2, 0))
    # and, when 1 - 2 z2 > 0, a / (1 - 2 z2) is such a start: g is positive
    # at each, and the last keeps (1 - 2 z2) u from overflowing when z2 is
    # far below the vertex.  The loop stops at the first step whose length
    # is not strictly below the previous one's: from there the steps are
    # rounding, and a first step that rounding lands below the root comes
    # back above it with a shorter one.  ``lin_err`` is the rounding error
    # of 1 - 2 z2 (Knuth's two-sum; 2 z2 is exact), carried in g so that
    # the root is that of the given z2.  Every root is within 2 ulps up to
    # about 5e102, where 2u^3 overflows (z2 above about 3e205): there the
    # first step is not finite and the start is returned.
    a = abs(z1)
    lin = 1.0 - 2.0 * z2
    back = lin - 1.0
    lin_err = (1.0 - (lin - back)) - (2.0 * z2 + back)
    u = min(a, (0.5 * a) ** (1.0 / 3.0) + math.sqrt(max(z2 - 0.5, 0.0)))
    if lin > 0.0:
        u = min(u, a / lin)
    last = math.inf
    while True:
        step = (2.0 * u * u * u + (lin * u - a) + lin_err * u) / (6.0 * u * u + lin)
        if not abs(step) < last:
            return math.copysign(u, z1)
        u -= step
        last = abs(step)


def project_epigraph(e: EpigraphSet, x) -> np.ndarray:
    """Nearest point of the epigraph (unique: the set is convex)."""
    return _project_epigraph(e, as_point(x, e.dim))


def _project_epigraph(e: EpigraphSet, x: np.ndarray) -> np.ndarray:
    # ``project_epigraph`` for a point already validated against ``e``.
    return np.array(_project_epigraph_xy(e, *x.tolist()))


def _project_epigraph_xy(e: EpigraphSet, x0: float, x1: float) -> tuple[float, float]:
    # The nearest point of ``e`` to ``(x0, x1)``, on floats: each entry is
    # formed by the operations an array of the two would make, so it has
    # the same bits (``x - shift``, the base projection, ``+ shift``).
    z0, z1, profile = _epigraph_offset(e, x0, x1)
    s0, s1 = e._shift_floats
    if z1 >= profile:
        return z0 + s0, z1 + s1
    if e.kind == ABS:
        p0, p1 = _project_abs_base(z0, z1)
    else:
        p0 = _parabola_root(z0, z1)
        p1 = p0 * p0
    return p0 + s0, p1 + s1


def project(s: ProjectableSet, x) -> np.ndarray:
    """Nearest point of ``s``; dispatches on the concrete set type."""
    return _project_point(s, as_point(x, s.dim))


def _project_point(s: ProjectableSet, x: np.ndarray) -> np.ndarray:
    # ``project`` for a point already validated against ``s``.
    if isinstance(s, HalfSpace):
        return _project_halfspace(s, x)
    if isinstance(s, EpigraphSet):
        return _project_epigraph(s, x)
    return _project_from(s, x, None)[0].point


# Proximal normal cones of an epigraph at an interior point and of the abs
# epigraph at its apex, where the cone spans both boundary normals.
_NO_PLANAR_NORMALS = _freeze(np.empty((2, 0)))
_ABS_APEX_GENERATORS = ((1.0, -1.0), (-1.0, -1.0))
_ABS_APEX_NORMALS = _freeze(np.array(_ABS_APEX_GENERATORS).T)


def _epigraph_generators(e: EpigraphSet, x0: float, x1: float, tol: float) -> tuple | None:
    # The epigraph branch of ``normal_cone_columns`` on floats: None when
    # ``(x0, x1)`` is not in ``e`` within ``tol``, otherwise the generators
    # of the cone as float pairs (none at an interior point, two at the abs
    # apex).
    z0, z1, profile = _epigraph_offset(e, x0, x1)
    if not z1 >= profile - tol:
        return None
    if z1 > profile + tol:
        return ()
    if e.kind == SQUARE:
        return ((2.0 * z0, -1.0),)
    if abs(z0) <= tol:
        return _ABS_APEX_GENERATORS
    return ((1.0 if z0 > 0 else -1.0, -1.0),)


def _tight_rows(p: Polyhedron, x: np.ndarray, tol: float) -> np.ndarray:
    # The polyhedron branch of ``normal_cone_columns`` as a mask: the rows
    # tight at ``x`` within ``tol``, which generate the cone.  Raises
    # ``PointNotInSet`` when ``x`` is not in ``p`` within ``tol``.
    ax = p.A.dot(x)
    if not all((ax <= p.b + tol).tolist()):
        raise PointNotInSet("point is not in the set within tolerance")
    return np.abs(ax - p.b) <= tol


def normal_cone_columns(
    s: ProjectableSet, x: np.ndarray, tol: float = ACTIVE_TOL
) -> np.ndarray:
    """Generators of the proximal normal cone of ``s`` at ``x``, one per column.

    ``x`` must already be a finite 1-D array of the set's dimension; the
    result is ``(dim, k)`` with ``k = 0`` at interior points, and may be a
    read-only view.  Raises ``PointNotInSet`` when ``x`` is not in ``s``
    within ``tol``.  Membership is decided by the comparison
    :func:`_contains_point` makes, on the same quantity (``<c, x>``,
    ``A x`` or ``x - shift``), which is computed once for both tests.
    """
    if isinstance(s, HalfSpace):
        cx = float(s.c.dot(x))
        if not cx <= s.M + tol:
            raise PointNotInSet("point is not in the set within tolerance")
        if abs(cx - s.M) <= tol:
            return s.c[:, None]
        return np.empty((s.dim, 0))
    if isinstance(s, Polyhedron):
        return s.A[_tight_rows(s, x, tol)].T
    gens = _epigraph_generators(s, *x.tolist(), tol)
    if gens is None:
        raise PointNotInSet("point is not in the set within tolerance")
    if len(gens) == 1:
        (g0, g1), = gens
        return np.array([[g0], [g1]])
    return _ABS_APEX_NORMALS if gens else _NO_PLANAR_NORMALS


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
    """Build a set from its JSON descriptor.

    ``ValueError`` when the descriptor or its body is not an object, or
    when a number or an array entry is a bool, a string or null.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed set descriptor: {obj!r}")
    (tag, body), = obj.items()
    if not isinstance(body, dict):
        raise ValueError(f"set descriptor body must be an object: {obj!r}")
    if tag == "halfspace":
        return HalfSpace(body["c"], body["M"])
    if tag == "polyhedron":
        return Polyhedron(body["A"], body["b"])
    if tag == "epigraph":
        return EpigraphSet(body["kind"], body["shift"])
    raise ValueError(f"unknown set descriptor tag {tag!r}")
