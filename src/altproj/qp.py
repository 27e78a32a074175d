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
final working set.  All arithmetic is at the scale of ``x``, so
the cost does not grow with the distance from ``x`` to the polyhedron.

:func:`project_along_ray` follows the piecewise-linear path
``t -> P(base + t * direction)`` face by face, which keeps huge offsets at
the scale of the polyhedron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, EmptyPolyhedron, NotConverged

# ``nnls`` has no caller here; the binding stays because benchmarks/tracer.py
# resolves ``altproj.qp.nnls`` by name.
from .linalg import as_point, nnls, norm  # noqa: F401

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
# Ridge for the face walk's normal equations on singular working rows.
_RIDGE = 1e-12


@dataclass
class QPResult:
    """Projection onto a polyhedron together with its KKT certificate.

    ``point`` is the nearest feasible point, ``dual`` the multipliers with
    ``x - point = A' dual``, ``iterations`` the number of active-set steps
    (full and partial; 0 when ``x`` is already feasible), and ``residual``
    the larger of the final primal violation and complementarity gap.
    """

    point: np.ndarray
    dual: np.ndarray
    iterations: int
    residual: float


def _check_point(p: Polyhedron, x) -> np.ndarray:
    x = as_point(x)
    if x.shape[0] != p.dim:
        raise DimensionMismatch(f"point has dimension {x.shape[0]}, set has {p.dim}")
    return x


def _kkt_residual(A, b, lam, z) -> float:
    slack = A @ z - b
    viol = float(np.max(slack, initial=0.0))
    comp = float(np.max(np.abs(lam * slack), initial=0.0))
    return max(viol, 0.0, comp)


def _working_set(A, b, x) -> tuple[list[int], int]:
    """Final working rows of the projection of ``x`` and the steps taken."""
    m, n = A.shape
    feas_tol = _FEAS_TOL * (1.0 + float(np.abs(b).max()) + float(np.linalg.norm(x)))
    max_steps = _STEPS_PER_DIM * (m + n)
    z = x.copy()
    W: list[int] = []
    u = np.zeros(0)  # multipliers of the working rows, in W order
    steps = 0
    while True:
        slack = A @ z - b
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
                Awt = A[W].T
                r, *_ = np.linalg.lstsq(Awt, a, rcond=None)
                d = a - Awt @ r
                spanned_tol = _DEP_TOL * (
                    float(np.linalg.norm(a)) + float(np.linalg.norm(np.abs(Awt) @ np.abs(r)))
                )
            else:
                r, d, spanned_tol = u, a, 0.0
            dd = float(d @ d)
            spanned = math.sqrt(dd) <= spanned_tol
            t_full = math.inf if spanned else max(float(a @ z) - float(b[p]), 0.0) / dd
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


def _face_point(A, b, x, W) -> tuple[np.ndarray, np.ndarray]:
    """Projection of ``x`` onto the face where the rows ``W`` are tight.

    With ``A_W' = Q R``, the point is ``x - Q y`` and the multipliers are
    ``R^-1 y`` (clamped at zero) for ``y = Q' x - R^-T b_W``.  Forming ``y``
    this way keeps the condition number of ``R`` off the large term ``Q' x``,
    so far points lose only ``eps ||x||``.
    """
    lam = np.zeros(A.shape[0])
    if not W:
        return x.copy(), lam
    Q, R = np.linalg.qr(A[W].T)
    y = Q.T @ x - np.linalg.solve(R.T, b[W])
    lam[W] = np.maximum(np.linalg.solve(R, y), 0.0)
    return x - Q @ y, lam


def project_polyhedron(p: Polyhedron, x) -> QPResult:
    """Project ``x`` onto the polyhedron ``p``.

    A feasible ``x`` comes back as a copy with a zero dual and 0 iterations.
    Raises :class:`EmptyPolyhedron` when ``p`` has no point and
    :class:`NotConverged` past ``50 (m + n)`` active-set steps.
    """
    x = _check_point(p, x)
    A, b = p.A, p.b
    W, steps = _working_set(A, b, x)
    z, lam = _face_point(A, b, x, W)
    return QPResult(z, lam, steps, _kkt_residual(A, b, lam, z))


def _working_rates(A, W, direction):
    """Path derivatives on working set ``W``: ``dz/dt`` and ``dlam/dt``.

    While ``W`` stays tight, ``z(t) = x(t) - A_W' G^-1 (A_W x(t) - b_W)``
    with ``G = A_W A_W'``, so ``dz = direction - A_W' G^-1 A_W direction``
    and ``dlam = G^-1 A_W direction``.  Returns ``None`` when the working
    rows are too ill-conditioned to trust.
    """
    if not W:
        return direction.copy(), np.zeros(0)
    Aw = A[W]
    G = Aw @ Aw.T
    rhs = Aw @ direction
    try:
        dlam = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        dlam = np.linalg.solve(G + _RIDGE * np.eye(len(W)), rhs)
    if not np.allclose(G @ dlam, rhs, atol=1e-7 * (1.0 + float(np.abs(rhs).max(initial=0.0)))):
        return None
    return direction - Aw.T @ dlam, dlam


def project_along_ray(
    p: Polyhedron,
    base,
    direction,
    t_target: float,
) -> QPResult:
    """Projection of ``base + t_target * direction`` onto ``p``.

    A direct projection of a very distant point is accurate only relative
    to its distance, so the solver projects ``base`` and then walks the piecewise-linear path ``t -> P(base + t * direction)``
    exactly: on a fixed set of tight rows the point and multipliers move
    linearly in t, and the walk switches faces when a multiplier hits zero
    (drop) or an inactive row becomes tight (add).  The point goes
    stationary once ``-direction`` enters the cone of the tight rows; all
    arithmetic stays at the scale of the polyhedron regardless of
    ``t_target``.  A negative ``t_target`` walks along ``-direction``.
    """
    base = _check_point(p, base)
    direction = _check_point(p, direction)
    t_target = float(t_target)
    if not math.isfinite(t_target):
        raise ValueError("t_target must be finite")
    if t_target < 0.0:
        direction, t_target = -direction, -t_target
    start = project_polyhedron(p, base)
    if t_target == 0.0 or not direction.any():
        return start
    A, b = p.A, p.b
    m = p.num_rows
    z = start.point.copy()
    lam = start.dual.copy()
    act_tol = 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))
    W = sorted(
        set(np.flatnonzero(b - A @ z <= act_tol).tolist())
        | set(np.flatnonzero(lam > 1e-12).tolist())
    )
    t = 0.0
    iterations = start.iterations
    for _ in range(40 * (m + 1)):
        iterations += 1
        rates = _working_rates(A, W, direction)
        if rates is None:
            break  # ill-conditioned face: fall back to the direct solve
        dz, dlam = rates
        if norm(dz) <= 1e-12 * norm(direction):
            # Stationary face: the point no longer moves, only the
            # multipliers do; zeroing dz keeps the large remaining step
            # from injecting rounding noise into z.
            dz = np.zeros_like(dz)
        remaining = t_target - t
        # Next face change along the path.
        step = remaining
        event = None
        for k, i in enumerate(W):
            if dlam[k] < -1e-13:
                dt = lam[i] / (-dlam[k])
                if dt < step - 1e-15:
                    step, event = dt, ("drop", i)
        approach = A @ dz
        slack = b - A @ z
        for j in range(m):
            if j in W:
                continue
            if approach[j] > 1e-13:
                dt = max(slack[j], 0.0) / approach[j]
                if dt < step - 1e-15:
                    step, event = dt, ("add", j)
        z = z + step * dz
        for k, i in enumerate(W):
            lam[i] = max(0.0, lam[i] + step * dlam[k])
        t += step
        if event is None:
            viol = float(np.max(A @ z - b, initial=0.0))
            return QPResult(z, lam, iterations, max(viol, 0.0))
        kind, idx = event
        if kind == "drop":
            lam[idx] = 0.0
            W.remove(idx)
        else:
            W.append(idx)
            W.sort()
    # Degenerate face walk: last resort is the direct solve.
    return project_polyhedron(p, base + t_target * direction)
