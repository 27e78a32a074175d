"""Euclidean projection onto a polyhedron ``{x : A x <= b}``.

:func:`project_polyhedron` solves

    min 0.5 ||z - x||^2  s.t.  A z <= b

by the dual active-set method of Goldfarb & Idnani (1983) with identity
Hessian.  It starts from the unconstrained minimum ``z = x`` with an empty
working set and adds the most violated row.  Each step solves one small
least-squares problem on the working rows; it gives the part of the new
row that the working rows cannot cancel (the direction in which ``z``
moves) and the rates at which the working multipliers fall.  The step is
either full, which makes the new row tight and adds it to the working set,
or partial, which drops the working row whose multiplier reaches zero
first.  A violated row that the working rows span, while no working
multiplier can fall, proves the polyhedron empty.  Every full step
strictly raises the dual objective and partial steps only shrink the
working set, so no working set recurs and the method ends after finitely
many steps; the point and multipliers are then recomputed once from the
final working set, whose factor (:class:`_Face`) the caller may keep.  All
arithmetic is at the scale of ``x``, so the cost does not grow with the
distance from ``x`` to the polyhedron.

The method may start from any dual-feasible working set: rows ``W`` with
nonnegative multipliers and ``z`` the projection of ``x`` onto the face
where they are tight.  The empty set with ``z = x`` is one such start, and
the face of an earlier projection is another whenever the multipliers of
``x`` on it are nonnegative (:func:`_project_from`, which the engine uses
from cycle to cycle).  Whatever the start, a feasible ``x`` is tested
first and comes back unchanged, so a warm face never replaces it by a
point of the face.

:func:`project_along_ray` follows the piecewise-linear path
``t -> P(base + t * direction)`` face by face, which keeps huge offsets at
the scale of the polyhedron.  Its rates on a face come from the same
least-squares step, :func:`_face_step`; its only fallback is a step cap,
past which it projects the far point directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import EmptyPolyhedron, NotConverged

# ``nnls`` has no caller here; the binding stays because benchmarks/tracer.py
# resolves ``altproj.qp.nnls`` by name.
from .linalg import as_point, nnls  # noqa: F401

if TYPE_CHECKING:
    from .sets import Polyhedron

# A row counts as violated when its slack exceeds this fraction of the data
# scale ``1 + max|b| + ||x||``; rounding in the incremental updates of ``z``
# stays well below it, so degenerate vertices do not cycle.
_FEAS_TOL = 1e-13
# A new row counts as spanned by the working rows when the part the working
# rows cannot cancel is below this fraction of the terms that formed it.
_DEP_TOL = 1e-13
# Active-set steps granted per row and per coordinate.
_STEPS_PER_DIM = 50


@dataclass
class QPResult:
    """Projection onto a polyhedron together with its KKT multipliers.

    ``point`` is the nearest feasible point, ``dual`` the multipliers with
    ``x - point = A' dual``, and ``iterations`` the number of active-set
    steps (full and partial; 0 when ``x`` is already feasible, and 0 when
    the face of an earlier projection is accepted as it is).  For
    :func:`project_along_ray`, ``iterations`` is the active-set steps of
    the projection of the base point plus one per face walked; past the
    step cap it is that of the direct projection.
    """

    point: np.ndarray
    dual: np.ndarray
    iterations: int


def _face_step(Aw, v) -> tuple[np.ndarray, np.ndarray]:
    """Split ``v`` against the rows ``Aw`` of a face: ``(r, v - Aw' r)``.

    ``r`` minimises ``||Aw' r - v||`` (the minimum-norm minimiser when the
    rows are dependent), so the residual is the part of ``v`` that the rows
    cannot cancel, its projection onto their null space.  This is the one
    face step of the package: the Goldfarb-Idnani step, the face walk's
    rates and the engine's closed-form cycles all take it.  With no rows,
    ``r`` is empty and the residual is ``v``.
    """
    r, *_ = np.linalg.lstsq(Aw.T, v, rcond=None)
    return r, v - Aw.T.dot(r)


def _working_set(A, b, feas_tol, W, u, z) -> tuple[list[int], int]:
    """Final working rows of a projection and the steps taken.

    ``(W, u, z)`` is a dual-feasible start: ``z`` is the projection of the
    point onto the face where the rows ``W`` are tight, with multipliers
    ``u >= 0`` in ``W`` order.  The cold start is ``([], [], x)``.  ``W``
    and ``z`` are updated in place.
    """
    m, n = A.shape
    max_steps = _STEPS_PER_DIM * (m + n)
    steps = 0
    while True:
        slack = A.dot(z) - b
        p = int(np.argmax(slack))
        if slack[p] <= feas_tol:
            return W, steps
        a = A[p]
        u_p = 0.0
        while True:  # raise the multiplier of row p until row p is tight
            steps += 1
            if steps > max_steps:
                raise NotConverged(f"projection took more than {max_steps} active-set steps")
            if W:
                Aw = A[W]
                r, d = _face_step(Aw, a)
                spanned_tol = _DEP_TOL * (
                    float(np.linalg.norm(a)) + float(np.linalg.norm(np.abs(Aw.T).dot(np.abs(r))))
                )
            else:
                r, d, spanned_tol = u, a, 0.0
            dd = float(d.dot(d))
            spanned = math.sqrt(dd) <= spanned_tol
            t_full = math.inf if spanned else max(float(a.dot(z)) - float(b[p]), 0.0) / dd
            falling = np.flatnonzero(r > 0.0)
            t_part, k = math.inf, -1
            if falling.size:
                ratios = u[falling] / r[falling]
                j = int(np.argmin(ratios))
                t_part, k = float(ratios[j]), int(falling[j])
            if spanned and k < 0:
                raise EmptyPolyhedron(
                    "a violated row is spanned by the working rows with no multiplier "
                    "free to fall; the polyhedron is empty"
                )
            t = min(t_full, t_part)
            if not spanned:
                z -= t * d
            u = u - t * r
            u_p += t
            if t_full <= t_part:
                W.append(p)
                u = np.append(u, u_p)
                break
            del W[k]
            u = np.delete(u, k)


class _Face(NamedTuple):
    """Factor of the face where the rows ``W`` are tight.

    ``A_W' = Q R`` and ``w = R^-T b_W``.  It depends on the polyhedron and
    ``W`` only, so the projections of any number of points onto the face
    share it (:func:`_on_face`).
    """

    W: list[int]
    Q: np.ndarray
    R: np.ndarray
    w: np.ndarray


def _factor(A, b, W) -> _Face:
    Q, R = np.linalg.qr(A[W].T)
    return _Face(W, Q, R, np.linalg.solve(R.T, b[W]))


def _on_face(face: _Face, x) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and projection of ``x`` on ``face``: ``(R^-1 y, x - Q y)``.

    ``y = Q' x - w``.  Forming ``y`` this way keeps the condition number of
    ``R`` off the large term ``Q' x``, so far points lose only
    ``eps ||x||``.  The multipliers are not clamped.
    """
    y = face.Q.T.dot(x) - face.w
    return np.linalg.solve(face.R, y), x - face.Q.dot(y)


def project_polyhedron(p: Polyhedron, x) -> QPResult:
    """Project ``x`` onto the polyhedron ``p``.

    A feasible ``x`` comes back as a copy with a zero dual and 0 iterations.
    Raises :class:`EmptyPolyhedron` when ``p`` has no point and
    :class:`NotConverged` past ``50 (m + n)`` active-set steps.
    """
    return _project_from(p, x, None)[0]


def _project_from(p: Polyhedron, x, face: _Face | None) -> tuple[QPResult, _Face | None]:
    """:func:`project_polyhedron` tried first on ``face``; also its final face.

    ``face`` is the factor of an earlier projection onto ``p`` (None for a
    cold start).  A feasible ``x`` returns first, as in the cold case.  When
    the multipliers of ``x`` on ``face`` are nonnegative, the projection
    onto the face is the answer if it is feasible (the KKT conditions hold,
    so it takes no active-set step), and otherwise the dual-feasible start
    of the active-set method.  A negative multiplier starts it from the
    empty working set.  The second value is the factor of the final face,
    None for a feasible ``x``.
    """
    x = as_point(x, p.dim)
    A, b = p.A, p.b
    feas_tol = _FEAS_TOL * (1.0 + float(np.abs(b).max()) + float(np.linalg.norm(x)))
    lam = np.zeros(A.shape[0])
    if float(np.max(A.dot(x) - b)) <= feas_tol:
        return QPResult(x.copy(), lam, 0), None
    start = [], np.zeros(0), x.copy()
    if face is not None:
        u, z = _on_face(face, x)
        if (u >= 0.0).all():
            if float(np.max(A.dot(z) - b)) <= feas_tol:
                lam[face.W] = u
                return QPResult(z, lam, 0), face
            start = list(face.W), u, z
    W, steps = _working_set(A, b, feas_tol, *start)
    face = _factor(A, b, W)
    u, z = _on_face(face, x)
    lam[W] = np.maximum(u, 0.0)
    return QPResult(z, lam, steps), face


def project_along_ray(
    p: Polyhedron,
    base,
    direction,
    t_target: float,
) -> QPResult:
    """Projection of ``base + t_target * direction`` onto ``p``.

    A direct projection of a very distant point is accurate only relative
    to its distance, so the solver projects ``base`` and then walks the
    piecewise-linear path ``t -> P(base + t * direction)`` exactly.  On a
    fixed set ``W`` of tight rows the point and multipliers move linearly
    in t, at the rates of the face step (:func:`_face_step`): split against
    the rows of ``W``, ``direction`` leaves the multiplier rates as its
    least-squares coefficients (the minimum-norm ones for dependent rows)
    and the point's rate as its residual.  The walk switches faces when a
    multiplier hits zero (drop) or an inactive row becomes tight (add).  The
    point goes stationary once ``-direction`` enters the cone of the tight
    rows; all arithmetic stays at the scale of the polyhedron regardless of
    ``t_target``.  A negative ``t_target`` walks along ``-direction``.

    The only fallback is the step cap: a walk that changes faces
    ``40 (m + 1)`` times (cycling at a degenerate vertex) returns the direct
    projection of the far point.  :class:`QPResult` says what
    ``iterations`` counts here.
    """
    base = as_point(base, p.dim)
    direction = as_point(direction, p.dim)
    t_target = float(t_target)
    if not math.isfinite(t_target):
        raise ValueError("t_target must be finite")
    if t_target < 0.0:
        direction, t_target = -direction, -t_target
    return _walk_from(p, base, project_polyhedron(p, base), direction, t_target)


def _walk_from(p: Polyhedron, base, start: QPResult, direction, t_target: float) -> QPResult:
    """:func:`project_along_ray`'s walk from ``start``, the projection of ``base``.

    Takes validated points and a finite ``t_target >= 0``; a caller that
    has already projected ``base`` passes its result instead of projecting
    it again.
    """
    if t_target == 0.0 or not direction.any():
        return start
    A, b = p.A, p.b
    m = p.num_rows
    z = start.point.copy()
    lam = start.dual.copy()
    act_tol = 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))
    W = (b - A.dot(z) <= act_tol) | (lam > 1e-12)
    t = 0.0
    iterations = start.iterations
    for _ in range(40 * (m + 1)):
        iterations += 1
        rate = np.zeros(m)
        rate[W], dz = _face_step(A[W], direction)
        if np.linalg.norm(dz) <= 1e-12 * np.linalg.norm(direction):
            # Stationary face: the point no longer moves, only the
            # multipliers do; zeroing dz keeps the large remaining step
            # from injecting rounding noise into z.
            dz = np.zeros_like(dz)
        # Next face change along the path: the first working multiplier to
        # reach zero or the first inactive row to become tight.
        dt = np.full(m, math.inf)
        drop = W & (rate < -1e-13)
        dt[drop] = lam[drop] / -rate[drop]
        approach = A.dot(dz)
        add = ~W & (approach > 1e-13)
        dt[add] = np.maximum((b - A.dot(z))[add], 0.0) / approach[add]
        i = int(np.argmin(dt))
        remaining = t_target - t
        event = dt[i] < remaining - 1e-15
        step = dt[i] if event else remaining
        z = z + step * dz
        lam = np.maximum(lam + step * rate, 0.0)
        if not event:
            return QPResult(z, lam, iterations)
        t += step
        if W[i]:
            lam[i] = 0.0
        W[i] = not W[i]
    # Degenerate face walk: last resort is the direct solve.
    return project_polyhedron(p, base + t_target * direction)
