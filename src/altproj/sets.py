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
from .linalg import (
    ZERO_TOL, _check_tol, _dot_row_norms, _entry_norm, _feas_tol, _norm, _real_array, _real_scalar, as_point
)
from .qp import _project_from

# Default tolerance for deciding which constraints are active at a point.
# A half-space or a polyhedron adds its projection's rounding allowance to
# it (``_active``), so at any point scale it is a margin over rounding.
ACTIVE_TOL = 1e-8
# Norm from which a half-space normal is refused.  The kernels read the unit
# normal, but the walk along ``-c``, the LP's default start and
# ``unit_distance_to_ray`` still form ``<c, c>``, which stays below 2**1020
# and so finite for shorter normals.
_ROW_NORM_LIMIT = 2.0**510


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
    """Closed half-space ``{x : <c, x> <= M}`` with outward normal ``c``.

    ``c`` and ``M`` are kept as written.  Every kernel reads the one normal
    form made here instead, as for :class:`Polyhedron`'s rows: the unit
    normal ``c / ||c||`` and the offset ``M / ||c||``.  A positive scale of
    ``(c, M)`` leaves the half-space as it is, so it changes no projection
    and no tolerance: a tolerance on ``<c, x> <= M`` is a distance to the
    boundary hyperplane, to which membership adds the rounding allowance
    ``_feas_tol(1 + |offset|, ||x||)`` of the point ``x`` (:func:`_active`);
    ``1 + |offset|`` is kept as ``_scale``, as :class:`Polyhedron` keeps
    ``1 + max|offsets|``.  Raises :class:`ZeroVector` for a normal of norm
    ``ZERO_TOL`` or less and :class:`DegenerateRow` for one of norm 2**510
    (about 3.4e153) or more, whose square would overflow, and for an offset
    over the norm that overflows.  The norm is ``linalg._norm``'s, taken
    with no overflow warning.
    """

    c: np.ndarray
    M: float
    # The unit normal and the offset over the norm, ``1 + |_offset|``, and
    # the unit normal's entries as floats for the planar kernels.
    _unit: np.ndarray = field(init=False, repr=False, compare=False)
    _offset: float = field(init=False, repr=False, compare=False)
    _scale: float = field(init=False, repr=False, compare=False)
    _unit_floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = as_point(self.c)
        # ``hypot`` cannot overflow: a normal it puts below the limit has a
        # finite ``<c, c>``, so ``_norm`` runs bare, and only a longer one
        # pays for ``_entry_norm``'s errstate.  Both give ``_norm``'s bits.
        norm_c = _norm(c) if math.hypot(*c.tolist()) < _ROW_NORM_LIMIT else _entry_norm(c)
        if norm_c <= ZERO_TOL:
            raise ZeroVector("half-space normal must be nonzero")
        if not norm_c < _ROW_NORM_LIMIT:
            raise DegenerateRow(
                f"half-space normal is too long: its norm must be below 2**510 (about {_ROW_NORM_LIMIT:.2g})"
            )
        M = _real_scalar(self.M, "M")
        if not math.isfinite(M):
            raise ValueError("half-space offset M must be finite")
        offset = M / norm_c
        if not math.isfinite(offset):
            raise DegenerateRow("half-space offset over the normal's norm must be finite")
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "_unit", _freeze(c / norm_c))
        object.__setattr__(self, "_offset", offset)
        object.__setattr__(self, "_scale", 1.0 + abs(offset))
        object.__setattr__(self, "_unit_floats", tuple(self._unit.tolist()))

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True, eq=False)
class Polyhedron(_ValueSet):
    """Polyhedron ``{x : A @ x <= b}``; the rows of ``A`` are outward normals.

    ``A`` and ``b`` are kept as written.  Every kernel reads the one normal
    form of the rows instead, made here: the unit rows ``A_i / ||A_i||``
    and the offsets ``b_i / ||A_i||``.  A positive scale of a row leaves the
    polyhedron as it is, so it changes no projection, no active set and no
    tolerance: each tolerance on a row is a distance to its hyperplane.
    Raises :class:`DegenerateRow` for a row of norm ``ZERO_TOL`` or less and
    for a row without a finite normal form: a norm that overflows, or an
    offset over the norm that does.
    """

    A: np.ndarray
    b: np.ndarray
    # Two records, made on use and kept with the polyhedron: ``A`` and
    # ``b`` are frozen, so neither can go stale.  None is part of the value,
    # and a copy ``Polyhedron(A, b)`` starts without them.
    # - The vertex list of :func:`altproj.vertices.feasible_vertices`.  The
    #   oracle reads it, and alpha's cone table for n >= 3, which builds its
    #   family from it on each call and keeps nothing else; no LP optimum or
    #   distance does, nor alpha read off the optimum's face, so a
    #   ``bound_report`` at a simple optimum leaves it None.
    # - The last walk of :func:`altproj.qp._walk_to_optimum` with the start
    #   and objective it was made for, so ``bound_report`` and the shifted
    #   solve from one ``x0``, and alpha under the same objective, walk once.
    #   A new walk replaces it.  Two ``QPResult``s and the ``_Face`` the walk
    #   ended on: 2,176 bytes of arrays at n = 8, m = 24 with eight working
    #   rows.
    _vertices: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _walk: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # The row norms, the unit rows and the offsets over the norms, and
    # ``1 + max|_offsets|``, the part of the projection's data scale
    # ``1 + max|_offsets| + ||x||`` that does not depend on the point.
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    _units: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(_real_array(self.A))
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionMismatch(f"constraint matrix has shape {A.shape}")
        b = as_point(self.b, A.shape[0])
        if not np.all(np.isfinite(A)):
            raise ValueError("constraint matrix entries must be finite")
        norms = _dot_row_norms(A)
        if np.any(norms <= ZERO_TOL):
            raise DegenerateRow("every constraint row must be nonzero")
        with np.errstate(over="ignore"):
            offsets = b / norms
        if not (np.isfinite(norms).all() and np.isfinite(offsets).all()):
            raise DegenerateRow("every constraint row must have a finite norm and a finite offset over it")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "_norms", _freeze(norms))
        object.__setattr__(self, "_units", _freeze(A / norms[:, None]))
        object.__setattr__(self, "_offsets", _freeze(offsets))
        object.__setattr__(self, "_scale", 1.0 + float(np.abs(offsets).max()))

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
    """True iff every defining inequality of ``s`` holds at ``x`` within ``tol``.

    For a half-space or a polyhedron ``tol`` is a distance to each boundary
    hyperplane, whatever scale its inequality is written at, and carries
    the rounding allowance of the set's projection at ``x``:
    ``1e-13 (1 + |offset| + ||x||)``, with the largest ``|offset|`` of a
    polyhedron (:func:`_active`), which grows with the point as the
    rounding of a slack does.  ``tol`` must be a finite, nonnegative number
    (``ValueError`` otherwise).
    """
    return _active(s, as_point(x, s.dim), _check_tol(tol, "tol")) is not None


def _check_start(s: ProjectableSet, x0: np.ndarray) -> None:
    if _active(s, x0, ACTIVE_TOL) is None:
        raise StartNotInA("x0 must belong to the first set")


def _check_dims(set_a: ProjectableSet, set_b: ProjectableSet) -> None:
    if set_a.dim != set_b.dim:
        raise DimensionMismatch(f"sets have dimensions {set_a.dim} and {set_b.dim}")


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
    # ``project_halfspace`` for a point already validated against ``h``:
    # ``excess`` is the distance of ``x`` past the boundary.
    excess = float(h._unit.dot(x)) - h._offset
    if excess <= 0.0:
        return x.copy()
    return x - excess * h._unit


def _project_halfplane_xy(h: HalfSpace, x0: float, x1: float) -> tuple[float, float]:
    # ``_project_halfspace`` for the 2-D point ``(x0, x1)``, on floats, with
    # ``u`` the unit normal.  A BLAS product of two 2-vectors can round
    # otherwise than ``u0 x0 + u1 x1`` (OpenBLAS fuses the second product
    # into the sum), and the rounding of ``<u, x>`` enters the point.  When
    # ``u`` has a zero entry, one product is an exact zero (at a finite
    # point) and ``<u, x>`` is the other product rounded once, in every
    # summation order, fused or not; only the sign of a zero sum can
    # differ, and a zero ``excess`` moves no point.  So floats stand in for
    # ``u.dot`` there, whatever the BLAS.  Any other ``u`` keeps ``u.dot``
    # on the wrapped pair.  The rest is the array code's arithmetic, entry
    # by entry.
    u0, u1 = h._unit_floats
    if u0 == 0.0 or u1 == 0.0:
        excess = u0 * x0 + u1 * x1 - h._offset
    else:
        excess = float(h._unit.dot(np.array((x0, x1)))) - h._offset
    if excess <= 0.0:
        return x0, x1
    return x0 - excess * u0, x1 - excess * u1


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
    # the root is that of the given z2.  Above about 5e102 (z2 above about
    # 3e205, or |z1| near the largest float) 2u^3 overflows and the first
    # step is not finite; there the same iteration runs on w = u / s, for s
    # the power of two at the start, on g(s w) / s^3, whose coefficients are
    # g's divided by powers of two: exactly, or, past the smallest normal,
    # with an error far under an ulp of the root.  Every root is within 2
    # ulps up to z2 of about 9e307, where 1 - 2 z2 overflows.
    a = abs(z1)
    lin = 1.0 - 2.0 * z2
    back = lin - 1.0
    lin_err = (1.0 - (lin - back)) - (2.0 * z2 + back)
    u = min(a, (0.5 * a) ** (1.0 / 3.0) + math.sqrt(max(z2 - 0.5, 0.0)))
    if lin > 0.0:
        u = min(u, a / lin)
    root = _cubic_newton(u, lin, lin_err, a)
    if root is None:
        s = math.ldexp(1.0, math.frexp(u)[1] - 1)
        w = _cubic_newton(u / s, lin / s / s, lin_err / s / s, a / s / s / s)
        root = u if w is None else s * w
    return math.copysign(root, z1)


def _cubic_newton(u: float, lin: float, lin_err: float, a: float) -> float | None:
    # Newton on 2u^3 + (lin + lin_err) u - a from u past the root, to the
    # first step whose length is not strictly below the previous one's (see
    # ``_parabola_root``); None when the first step is not finite.
    last = math.inf
    while True:
        step = (2.0 * u * u * u + (lin * u - a) + lin_err * u) / (6.0 * u * u + lin)
        if not abs(step) < last:
            return None if last == math.inf else u
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


def _active(s: ProjectableSet, x, tol: float):
    """What is tight at ``x`` in ``s`` within ``tol``, or None when ``x`` is not in ``s``.

    The one membership and activity rule of the three set types, read by
    :func:`contains`, :func:`_check_start`, :func:`normal_cone_columns` and
    the engine's cycle decision; the engine's planar loop makes the tests
    of its epigraph branch on floats.  ``x`` is a
    validated point of the set's dimension.  It is in ``s`` within ``tol``
    when ``<u, x> <= o + tol``, every ``u_i x <= o_i + tol``, or
    ``z1 >= p - tol`` for ``z = x - shift`` and the profile ``p`` (``|z0|``
    or ``z0^2``); a NaN entry is in no set.  A half-space and a polyhedron
    are read in their normal form, the unit normal ``u`` and offset ``o``
    of :class:`HalfSpace` and the unit rows ``u_i`` and offsets ``o_i`` of
    :class:`Polyhedron`, so there ``tol`` is a distance to each
    hyperplane, whatever scale it was written at.  Their ``tol`` also
    carries the rounding allowance ``linalg._feas_tol(s._scale, ||x||)``
    that the polyhedron projection grants its own output, with ``_scale``
    one plus the largest ``|o_i|``.  A slack rounds with the size of its
    terms, so an absolute tolerance refuses the projections of far points;
    with the allowance, a problem scaled by up to 1e12 keeps its stops and
    step counts (``tests/test_point_scale.py``).  ``||x||`` is
    ``math.hypot``'s, which raises no overflow warning for a far point.
    What is tight there is, for a half-space, the bool
    ``|<u, x> - o| <= tol``; for a polyhedron, the mask of the rows with
    ``|u_i x - o_i| <= tol``, each with the allowance; for an epigraph, the
    generators of the cone as float pairs: none at an interior point
    (``z1 > p + tol``), two at the abs apex (``|z0| <= tol``), one
    elsewhere.  Each quantity (``<u, x>``, ``U x`` or ``z``) is formed once
    for both tests.
    """
    if isinstance(s, EpigraphSet):
        # An epigraph takes no allowance.  None is needed: half-plane/abs
        # runs from points 1e8 to 1e15 away certify without one, because the
        # point that fell outside its set there was the half-plane's, whose
        # slack rounds with ``<u, x>``.
        z0, z1, profile = _epigraph_offset(s, *x.tolist())
        if not z1 >= profile - tol:
            return None
        if z1 > profile + tol:
            return ()
        if s.kind == SQUARE:
            return ((2.0 * z0, -1.0),)
        if abs(z0) <= tol:
            return _ABS_APEX_GENERATORS
        return ((1.0 if z0 > 0 else -1.0, -1.0),)
    tol += _feas_tol(s._scale, math.hypot(*x.tolist()))
    if isinstance(s, HalfSpace):
        ux = float(s._unit.dot(x))
        return abs(ux - s._offset) <= tol if ux <= s._offset + tol else None
    ux = s._units.dot(x)
    return np.abs(ux - s._offsets) <= tol if all((ux <= s._offsets + tol).tolist()) else None


def _active_columns(s: ProjectableSet, active) -> np.ndarray:
    """The generators of a proximal normal cone of ``s``, one per column.

    ``active`` is what :func:`_active` found tight at a point of ``s`` (not
    None): the normal ``c`` of a tight half-space, a polyhedron's tight
    rows as written (a row's scale leaves the cone as it is) or an
    epigraph's float pairs.  The result is ``(dim, k)`` and may
    be a read-only view.
    """
    if isinstance(s, HalfSpace):
        return s.c[:, None] if active else np.empty((s.dim, 0))
    if isinstance(s, Polyhedron):
        return s.A[active].T
    if len(active) == 1:
        (g0, g1), = active
        return np.array([[g0], [g1]])
    return _ABS_APEX_NORMALS if active else _NO_PLANAR_NORMALS


def normal_cone_columns(
    s: ProjectableSet, x: np.ndarray, tol: float = ACTIVE_TOL
) -> np.ndarray:
    """Generators of the proximal normal cone of ``s`` at ``x``, one per column.

    ``x`` must already be a finite 1-D array of the set's dimension; the
    result is ``(dim, k)`` with ``k = 0`` at interior points, and may be a
    read-only view.  Raises ``PointNotInSet`` when ``x`` is not in ``s``
    within ``tol``, a finite, nonnegative number (``ValueError``
    otherwise).  Membership and the tight constraints are those of
    :func:`_active`, the rule :func:`contains` reads: for a half-space or a
    polyhedron ``tol`` carries the rounding allowance at ``x``, so a
    constraint counts as tight within ``tol + 1e-13 (1 + max|o_i| +
    ||x||)`` of its hyperplane.
    """
    active = _active(s, x, _check_tol(tol, "tol"))
    if active is None:
        raise PointNotInSet("point is not in the set within tolerance")
    return _active_columns(s, active)


def proximal_normal_generators(
    s: ProjectableSet, x, tol: float = ACTIVE_TOL
) -> list[np.ndarray]:
    """Finite generator list for the proximal normal cone of ``s`` at ``x``.

    Interior points get an empty list (the cone is ``{0}``).  ``x`` must
    belong to ``s`` within ``tol``, which :func:`normal_cone_columns` reads.
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
