"""Euclidean projection onto a polyhedron ``{x : A x <= b}``.

:func:`project_polyhedron` solves

    min 0.5 ||z - x||^2  s.t.  A z <= b

by the dual active-set method of Goldfarb & Idnani (1983) with identity
Hessian.  It starts from the unconstrained minimum ``z = x`` with an empty
working set and adds the most violated row.  The method keeps the QR factor
of its working rows, ``A_W' = Q_1 R`` with ``Q = (Q_1, Q_2)`` orthogonal,
and updates it in place: adding a row applies one Householder reflection to
the columns of ``Q_2`` and appends a column to ``R``; dropping one deletes
its column of ``R`` and restores the triangle by Givens rotations, applied
to ``Q`` as well.  Each step reads ``h = Q' a`` for the new row ``a``:
``Q_2 h_2`` is the part of ``a`` that the working rows cannot cancel (the
direction in which ``z`` moves), and one triangular solve ``R r = h_1``
gives the rates at which the working multipliers fall.  The step is either
full, which makes the new row tight and adds it to the working set, or
partial, which drops the working row whose multiplier reaches zero first.
A violated row that the working rows span, while no working multiplier can
fall, proves the polyhedron empty; the row ``a`` counts as spanned when
``||Q_2' a||`` is at most ``1e-13 (1 + sum_i |r_i|)``, with ``r`` the
rates.  One step, factor update included, costs about 15 us at
n = 2..4.  Every full step strictly raises the
dual objective and partial steps only shrink the working set, so no working
set recurs and the method ends after finitely many steps.  The point and
multipliers are then recomputed once from ``x`` on the final face, with the
factor kept through the steps (:class:`_Face`, which the caller may keep),
and the point is refined once on the working rows.  All arithmetic is at
the scale of ``x``, so the cost does not grow with the distance from ``x``
to the polyhedron.

The method runs on the polyhedron's normal form, the unit rows and the
offsets over the row norms that :class:`~altproj.sets.Polyhedron` forms
once, never on the rows as written: a row's scale changes neither the
polyhedron nor any step, and every tolerance on a row is a distance.  The
factor, the working multipliers and every :class:`_Face` belong to the unit
rows.  The public :func:`project_polyhedron` and :func:`project_along_ray`
divide the multipliers by the row norms once, at the end
(:func:`_written`), so that their ``dual`` is that of the written rows.

The steps and the factor updates (``_working_set``, ``_add_column``,
``_delete_column`` and ``_substitute``) live in :mod:`altproj.linalg`,
which also runs them to project onto polar cones for
:func:`~altproj.linalg.nnls`.  This module starts them, reads the answer
from the final face and walks rays.

The method may start from any dual-feasible working set: rows ``W`` with
nonnegative multipliers and ``z`` the projection of ``x`` onto the face
where they are tight.  The empty set with ``z = x`` is one such start, and
the face of an earlier projection is another whenever the multipliers of
``x`` on it are nonnegative (:func:`_project_from`, which the engine uses
from cycle to cycle); the method then continues from a copy of that face's
factor.  Whatever the start, a feasible ``x`` is tested first and comes
back unchanged, so a warm face never replaces it by a point of the face.

The kept factor also serves the engine: on a face whose working rows are
exactly its positive-multiplier rows, ``Q_1`` spans those rows, so the
projection of a vector onto the face's null space is ``v - Q_1 (Q_1' v)``,
and the engine's closed-form cycles read it from there.  Its cycle
decisions read the distance from the run's direction to the span of the
working rows, and the coefficients ``R^-1 Q_1' w`` on them, from the same
factor.

:func:`project_along_ray` follows the piecewise-linear path
``t -> P(base + t * direction)`` face by face, which keeps huge offsets at
the scale of the polyhedron.  It starts on the final face of the
projection of ``base`` and continues from a copy of its factor.  On each
face it reads ``h = Q' direction``: the working multipliers move at the
rates ``R^-1 h_1`` and the point along ``Q_2 h_2``.  A row the point
reaches is added and a row whose multiplier reaches zero is dropped, by
the same updates of the factor as above, so the working rows stay
independent.  A walk that changes faces more than ``40 (m + 1)`` times
raises :class:`NotConverged`.  Walked with no end along ``-c``, from the
projection of any start, it stops at a minimiser of ``<c, .>``
(:func:`_walk_to_optimum`): the LP optimum behind the shifted solve,
``d(A, B)`` and ``lp --auto-bound``.  :func:`_walk_from` ends as
:func:`_project_from` does: it returns its end point with the
:class:`_Face` it ended on.  There ``-c`` lies in the cone of the working
rows, and the shifted solve, the one caller that reads the face, certifies
its optimum on it.  ``d(A, B)``, ``project_along_ray`` and
``lp --auto-bound`` read the point alone.  The two kernels' ends are the
only places a face is built (:func:`_face_of`), and :func:`_continued` the
only place a face becomes the state that the steps update.

A polyhedron keeps its last walk to the optimum (``Polyhedron._walk``),
keyed by the bytes of the start and the objective.  Both are validated
vectors, C-contiguous (:func:`~altproj.linalg.as_point`), so equal bytes
are equal inputs, whatever the layout a caller passed.  A later call with
the same key returns the kept record, the very arrays the walk made and
the face it ended on, so ``bound_report`` and the shifted solve from one
``x0`` walk once and agree bit for bit.  Every kept array is read-only,
and a walk that raises keeps nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import NotConverged, Unbounded

# ``nnls`` has no caller here; the binding stays because benchmarks/tracer.py
# resolves ``altproj.qp.nnls`` by name.
from .linalg import (  # noqa: F401
    _add_column,
    _delete_column,
    _feas_tol,
    _norm,
    _real_scalar,
    _substitute,
    _working_set,
    as_point,
    nnls,
)

if TYPE_CHECKING:
    from .sets import Polyhedron

# Face changes granted to a walk per row, and once more: ``40 (m + 1)``.
_WALK_STEPS_PER_ROW = 40


@dataclass
class QPResult:
    """Projection onto a polyhedron together with its KKT multipliers.

    ``point`` is the nearest feasible point, ``dual`` the multipliers with
    ``x - point = A' dual``, and ``iterations`` the number of active-set
    steps (full and partial; 0 when ``x`` is already feasible, and 0 when
    the projection onto the face of an earlier projection is feasible).  For
    :func:`project_along_ray`, ``iterations`` is the active-set steps of
    the projection of the base point plus one per face walked.
    """

    point: np.ndarray
    dual: np.ndarray
    iterations: int


class _Face(NamedTuple):
    """Factor of the face where the rows ``W`` are tight.

    ``Q`` is n x n orthogonal, ``R`` is k x k upper triangular with
    ``A_W' = Q[:, :k] R`` (``k = len(W)``), and ``w = R^-T b_W``, for the
    unit rows ``A_W`` and offsets ``b_W`` of the polyhedron's normal form.
    It is the factor :func:`_working_set` kept up to date through its
    steps, and it depends on the polyhedron and ``W`` only, so the
    projections of any number of points onto the face share it
    (:func:`_on_face`) and the next projection may continue from it.  The
    slices that its readers take are cut once, when it is built: ``Q1`` is
    the view ``Q[:, :k]``, and ``A_W`` and ``b_W`` are copies of the
    working rows.  ``Q`` is never changed in place once the face is built
    (a continuation steps on a copy), so the view stays the factor's.
    """

    W: list[int]
    Q: np.ndarray
    R: np.ndarray
    w: np.ndarray
    Q1: np.ndarray
    A_W: np.ndarray
    b_W: np.ndarray


def _on_face(face: _Face, x) -> tuple[list[float], np.ndarray]:
    """Multipliers and projection of ``x`` on ``face``: ``(R^-1 y, x - Q_1 y)``.

    ``y = Q_1' x - w``.  Forming ``y`` this way keeps the condition number
    of ``R`` off the large term ``Q_1' x``.  The point then takes one step
    of refinement on the working rows, which removes their residual up to
    rounding at the scale of the point: without it a far ``x`` leaves the
    working rows off by ``||Q_1' Q_1 - I|| ||x||``, and that loss of
    orthogonality grows with every update of the factor.  The multipliers
    are a list of floats, not clamped.
    """
    Q1 = face.Q1
    y = x.dot(Q1) - face.w
    z = x - Q1.dot(y)
    z -= Q1.dot(_substitute(face.R.T, face.A_W.dot(z) - face.b_W, lower=True))
    return _substitute(face.R, y), z


def _continued(face: _Face | None, n: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Working rows, ``Q`` and an n x n ``R`` that continue from ``face``.

    A copy of the face's factor, ``R`` padded with zeros to the room the
    steps may fill; None gives the empty working set.  The projection and
    the walk both step on what this returns, never on the face itself.
    """
    R = np.zeros((n, n))
    if face is None:
        # The identity, filled on its diagonal: ``np.eye`` costs twice as much.
        Q = np.zeros((n, n))
        Q.ravel()[:: n + 1] = 1.0
        return [], Q, R
    R[: len(face.W), : len(face.W)] = face.R
    return list(face.W), face.Q.copy(), R


def _face_of(p: Polyhedron, W: list[int], Q: np.ndarray, R: np.ndarray) -> _Face:
    """The :class:`_Face` of ``p``'s working rows ``W`` with the factor ``Q``, ``R``.

    ``R`` is the padded triangle that the steps filled; its leading
    ``k x k`` block (``k = len(W)``) is the face's.  ``W``, ``Q`` and ``R``
    become the face's own, so the caller steps on them no more.
    """
    k = len(W)
    R = R[:k, :k]
    # ``take`` copies the working rows as ``A[W]`` does, at a third of the cost.
    b_W = p._offsets.take(W)
    w = np.array(_substitute(R.T, b_W, lower=True))
    return _Face(W, Q, R, w, Q[:, :k], p._units.take(W, 0), b_W)


def project_polyhedron(p: Polyhedron, x) -> QPResult:
    """Project ``x`` onto the polyhedron ``p``.

    A feasible ``x`` comes back as a copy with a zero dual and 0 iterations.
    Raises :class:`EmptyPolyhedron` when ``p`` has no point and
    :class:`NotConverged` past ``50 (m + n)`` active-set steps.
    """
    return _written(p, _project_from(p, as_point(x, p.dim), None)[0])


def _written(p: Polyhedron, res: QPResult) -> QPResult:
    """``res`` with its multipliers of ``p``'s unit rows turned into those of
    the rows as written: ``x - z = U' lam = A' (lam / ||A_i||)``."""
    return QPResult(res.point, res.dual / p._norms, res.iterations)


def _project_from(p: Polyhedron, x, face: _Face | None) -> tuple[QPResult, _Face | None]:
    """:func:`project_polyhedron` tried first on ``face``; also its final face.

    ``x`` is a validated point: ``project_polyhedron``, ``sets.project``
    and the engine validate once, at the boundary.  ``face`` is the factor
    of an earlier projection onto ``p`` (None for a cold start).  A feasible
    ``x`` returns first, as in the cold case.  When the multipliers of ``x``
    on ``face`` are nonnegative, the projection onto the face is the
    dual-feasible start of the active-set method, which continues from a
    copy of the face's factor; if that start is feasible the KKT conditions
    hold and the method ends at its first test, with no step.  A negative
    multiplier starts it from the empty working set.  The second value is
    the factor of the final face, None for a feasible ``x``.  The
    multipliers are those of the unit rows.
    """
    A, b = p._units, p._offsets
    n = x.shape[0]
    # ``hypot`` cannot overflow on a far ``x``, where ``x.dot(x)`` would warn.
    feas_tol = _feas_tol(p._scale, math.hypot(*x.tolist()))
    lam = np.zeros(A.shape[0])
    # Python's ``max`` of a list skips a NaN that is not first, so the
    # feasibility test reads every entry: a NaN excess is not feasible.  The
    # slack of the start point starts the active-set method, whose first
    # test takes a feasible start on the face as it is.
    slack = A.dot(x) - b
    if all(v <= feas_tol for v in slack.tolist()):
        return QPResult(x.copy(), lam, 0), None
    warm = False
    if face is not None:
        u_f, z_f = _on_face(face, x)
        warm = all(v >= 0.0 for v in u_f)
    W, Q, R = _continued(face if warm else None, n)
    if warm:
        u, z = u_f, z_f
        slack = A.dot(z) - b
    else:
        u, z = [], x.copy()
    steps = _working_set(A, b, feas_tol, W, Q, R, u, z, slack)
    face = _face_of(p, W, Q, R)
    u, z = _on_face(face, x)
    lam[W] = _clamped(u)
    return QPResult(z, lam, steps), face


def _clamped(u: list[float]) -> list[float]:
    """``np.maximum(u, 0.0)`` on a list of floats, bit for bit.

    A NaN stays and -0.0 becomes 0.0; ``max(v, 0.0)`` would keep -0.0.
    On floats it skips building an array from the list.
    """
    return [v if v > 0.0 or v != v else 0.0 for v in u]


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
    fixed set ``W`` of working rows the point and multipliers move linearly
    in t: with the factor ``A_W' = Q_1 R`` of the projection and
    ``h = Q' direction``, the multipliers at the rates ``R^-1 h_1`` and the
    point along ``Q_2 h_2``.  The walk switches faces when a multiplier hits
    zero (drop) or an inactive row becomes tight (add), and updates the
    factor as the projection does.  The point goes stationary once
    ``-direction`` enters the cone of the working rows; all arithmetic stays
    at the scale of the polyhedron regardless of ``t_target``.  A negative
    ``t_target`` walks along ``-direction``.

    ``t_target`` is a finite number by the rule that reads a point's entries
    (``ValueError`` otherwise).  Raises :class:`NotConverged` when the walk
    changes faces more than ``40 (m + 1)`` times, and what
    :func:`project_polyhedron` raises for ``base``.  :class:`QPResult` says
    what ``iterations`` counts here.
    """
    base = as_point(base, p.dim)
    direction = as_point(direction, p.dim)
    t_target = _real_scalar(t_target, "t_target")
    if not math.isfinite(t_target):
        raise ValueError("t_target must be finite")
    if t_target < 0.0:
        direction, t_target = -direction, -t_target
    return _written(p, _walk_from(p, *_project_from(p, base, None), direction, t_target)[0])


def _walk_to_optimum(p: Polyhedron, x, c) -> tuple[QPResult, QPResult, _Face]:
    """The projection of ``x`` onto ``p``, the end of the walk on from it along ``-c``, and its face.

    The package's one LP optimum.  The walk ``t -> P(x - t c)`` has no end
    and stops on the first face where the point stands still and no working
    multiplier falls; there ``-c`` lies in the cone of the working rows, so
    the point minimises ``<c, .>`` over ``p`` by the KKT conditions.  It
    reads no vertex list, so it has no size limit and takes polyhedra
    without a vertex.  Takes a validated ``x`` and ``c``; raises
    :class:`Unbounded` when the point moves on with no face ahead, and what
    :func:`_project_from` and :func:`_walk_from` raise.  The face is the
    walk's final one: there ``-c`` lies in the cone of its working rows, so
    it holds the optimum's certificate.

    The walk is kept on ``p`` (``Polyhedron._walk``), in place of the one
    before, under the key ``(x.tobytes(), c.tobytes())``.  A call with the
    key of the kept walk returns its record, the same three values as the
    walk that made it, with every array read-only, the face's ``Q1`` view
    too; a ``-0.0`` for a ``0.0`` is another key and walks again.  A walk
    that raises keeps nothing.
    """
    key = (x.tobytes(), c.tobytes())
    kept = p._walk
    if kept is not None and kept[0] == key:
        return kept[1]
    start, face = _project_from(p, x, None)
    end, face = _walk_from(p, start, face, -c, math.inf)
    # ``Q1`` is a view of ``Q`` taken before ``Q`` is frozen, and such a view
    # stays writable, so each array of the face is frozen by itself.
    for array in (start.point, start.dual, end.point, end.dual, face.Q, face.R, face.w, face.Q1, face.A_W, face.b_W):
        array.flags.writeable = False
    walk = start, end, face
    object.__setattr__(p, "_walk", (key, walk))
    return walk


def _kept_walk(p: Polyhedron, c):
    """The record of ``p``'s kept walk (:func:`_walk_to_optimum`) when it
    went along ``-c``, from whatever start, else None."""
    kept = p._walk
    return kept[1] if kept is not None and kept[0][1] == c.tobytes() else None


def _walk_from(
    p: Polyhedron, start: QPResult, face: _Face | None, direction, t_target: float
) -> tuple[QPResult, _Face | None]:
    """:func:`project_along_ray`'s walk from ``start`` on ``face``; also its final face.

    ``start`` and ``face`` are what :func:`_project_from` returned for the
    base point, so a caller that has already projected it walks on.  Takes
    a validated ``direction`` and ``t_target >= 0``.  An endless walk stops
    on the first face where the point stands still and no working
    multiplier falls; a point that moves on with no event ahead raises
    :class:`Unbounded`.  The second value is the :class:`_Face` the walk
    ends on, built as :func:`_project_from` builds its own; a walk that
    does not move returns ``start`` and ``face`` as it was given them.  It
    runs on the unit rows, and its multipliers are theirs.
    """
    if t_target == 0.0 or not direction.any():
        return start, face
    A, b = p._units, p._offsets
    m, n = A.shape
    W, Q, R = _continued(face, n)
    u = start.dual[W].tolist()
    z = start.point
    t = 0.0
    # A point rate below 1e-12 of the direction is rounding: the face is
    # stationary and only the multipliers move.  Moving the point would
    # inject that noise, times the large remaining step, into z.
    still = 1e-12 * _norm(direction)
    for steps in range(1, _WALK_STEPS_PER_ROW * (m + 1) + 1):
        k = len(W)
        h = direction.dot(Q)
        r = _substitute(R[:k, :k], h[:k]) if k else []
        # None on a still face, whose point moves by ``step * 0.0``.
        dz = Q[:, k:].dot(h[k:]) if _norm(h[k:]) > still else None
        i, dt_i = _next_event(A, b, W, u, r, z, dz)
        remaining = t_target - t
        event = dt_i < remaining - 1e-15
        if not event and remaining == math.inf:
            # No event ahead on an endless walk: a still point stays put for
            # every t and ends the walk with a zero step; a moving one never
            # stops.
            if dz is not None and dz.any():
                raise Unbounded("the point moves forever along the walk")
            remaining = 0.0
        step = dt_i if event else remaining
        z = z + step * (0.0 if dz is None else dz)
        u = [max(u_i + step * r_i, 0.0) for u_i, r_i in zip(u, r)]
        if not event:
            lam = np.zeros(m)
            lam[W] = u
            return QPResult(z, lam, start.iterations + steps), _face_of(p, W, Q, R)
        t += step
        if i in W:
            j = W.index(i)
            _delete_column(Q, R, k, j)
            del W[j], u[j]
        else:
            h_i = A[i].dot(Q)
            _add_column(Q, R, k, h_i, float(h_i[k:].dot(h_i[k:])))
            W.append(i)
            u.append(0.0)
    raise NotConverged(f"the walk changed faces more than {_WALK_STEPS_PER_ROW * (m + 1)} times")


def _next_event(A, b, W: list[int], u: list[float], r: list[float], z, dz) -> tuple[int, float]:
    """The walk's next face change on the face of the working rows ``W``: its row and step.

    The first working multiplier ``u_i`` to reach zero at its rate ``r_i``
    (one below ``-1e-13``), or the first inactive row of ``A`` to become
    tight as ``z`` moves along ``dz`` (one approaching faster than
    ``1e-13``), its slack ``b - A z`` clamped at zero as :func:`_clamped`
    does.  ``dz`` is None on a still face, where no row approaches.  The
    step of every other row is ``inf``, and the row is the first with the
    least step, or the first whose step is NaN, as ``argmin`` takes it on
    the array of all ``m`` steps; a NaN or infinite step is no event.  The
    ratio test runs on floats; ``A.dot(dz)`` and ``A.dot(z)`` stay one
    product each, formed only when needed (``linalg``'s module docstring,
    "Ratio tests and substitutions on floats").
    """
    dt = [math.inf] * A.shape[0]
    for w, u_w, r_w in zip(W, u, r):
        if r_w < -1e-13:
            dt[w] = u_w / -r_w
    if dz is not None:
        approach = A.dot(dz).tolist()
        rows = [j for j, a_j in enumerate(approach) if a_j > 1e-13 and j not in W]
        if rows:
            slack = (b - A.dot(z)).tolist()
            for j in rows:
                s_j = slack[j]
                dt[j] = (s_j if s_j > 0.0 or s_j != s_j else 0.0) / approach[j]
    i, best = 0, dt[0]
    for j, v in enumerate(dt):
        if v < best:
            i, best = j, v
        elif v != v:
            return j, v
    return i, best
