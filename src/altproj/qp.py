"""Euclidean projection onto a polyhedron ``{x : A x <= b}``.

The solver runs Hildreth's cyclic dual coordinate descent on

    min_{lam >= 0}  0.5 lam' A A' lam - lam' (A x - b)

and recovers the primal point ``z = x - A' lam``.  After every sweep it
attempts an active-set polish: solve the equality-constrained projection on
the rows the dual iterate identifies as active, which is exact at a face
and terminates the otherwise linearly convergent dual iteration early.

Points far from the polyhedron get a second pass: the dual multipliers
scale with the distance and the primal recovery ``x - A' lam`` cancels
catastrophically, so the solver re-projects from a point at unit distance
along the recovered normal direction, which restores full precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyPolyhedron, NotConverged
from .linalg import as_point, nnls, norm
from .sets import Polyhedron

# Dual iterates beyond this norm signal an empty feasible set.
_DIVERGENCE_LIMIT = 1e12
_RIDGE = 1e-12
_FAR_FACTOR = 10.0
# Hildreth sweeps granted before the least-distance fallback takes over.
_LDP_SWEEP_BUDGET = 150


@dataclass
class QPResult:
    """Projection onto a polyhedron together with its KKT certificate.

    ``point`` is the nearest feasible point, ``dual`` the multipliers with
    ``x - point = A' dual``, ``iterations`` the number of Hildreth sweeps,
    and ``residual`` the larger of the final primal violation and
    complementarity gap.
    """

    point: np.ndarray
    dual: np.ndarray
    iterations: int
    residual: float


def _kkt_residual(A, b, lam, z) -> float:
    slack = A @ z - b
    viol = float(np.max(slack, initial=0.0))
    comp = float(np.max(np.abs(lam * slack), initial=0.0))
    return max(viol, 0.0, comp)


def _polish(A, b, x, active, feas_tol):
    """Exact projection onto the face spanned by ``active`` row indices.

    Returns ``(z, lam)`` on success, ``None`` when the candidate active set
    cannot be refined into a KKT point within a few passes.
    """
    m, _ = A.shape
    active = sorted(set(active))
    for _ in range(4 * m + 4):
        if not active:
            z = x.copy()
            nu = np.zeros(0)
        else:
            Aa = A[active]
            G = Aa @ Aa.T
            rhs = Aa @ x - b[active]
            try:
                nu = np.linalg.solve(G, rhs)
                ok = np.allclose(G @ nu, rhs, atol=1e-9 * (1.0 + np.abs(rhs).max()))
            except np.linalg.LinAlgError:
                ok = False
            if not ok:
                # Rank-deficient active rows: ridge-regularized normal equations.
                nu = np.linalg.solve(G + _RIDGE * np.eye(len(active)), rhs)
            if nu.size and float(nu.min()) < -1e-10:
                active.pop(int(np.argmin(nu)))
                continue
            z = x - Aa.T @ nu
        slack = A @ z - b
        worst = int(np.argmax(slack))
        if float(slack[worst]) > feas_tol:
            if worst in active:
                return None
            active.append(worst)
            active.sort()
            continue
        lam = np.zeros(m)
        for i, idx in enumerate(active):
            lam[idx] += max(float(nu[i]), 0.0)
        return z, lam
    return None


def _ldp_solve(A, b, x, feas_tol):
    """Exact projection via the least-distance-programming reduction.

    ``min ||z - x|| s.t. A z <= b`` becomes ``min ||w|| s.t. (-A) w >= q``
    with ``q = A x - b``, which one nonnegative least-squares solve settles:
    stack ``H = [-A', q']`` column-wise, fit the unit vector ``e_{n+1}``,
    and read ``w`` off the residual.  Returns ``(z, lam)`` or ``None`` when
    the residual signals an empty feasible set or the recovered point is
    not feasible to tolerance.
    """
    m, n = A.shape
    q = A @ x - b
    H = np.vstack([-A.T, q.reshape(1, -1)])
    target = np.zeros(n + 1)
    target[n] = 1.0
    u, _ = nnls(H, target, max_iter=100 * m)
    r = H @ u - target
    if float(np.linalg.norm(r)) <= 1e-10:
        # The stacked system reproduces the unit vector exactly, which
        # happens iff no point satisfies the constraints.
        raise EmptyPolyhedron("least-distance reduction signals an empty set")
    denom = float(r[n])
    if abs(denom) <= 1e-13:
        return None
    z = x - r[:n] / denom
    slack = A @ z - b
    if float(np.max(slack, initial=0.0)) > feas_tol:
        return None
    # Multipliers supported on the tight rows; exact by LDP optimality.
    active = np.flatnonzero(np.abs(slack) <= 1e-7 * (1.0 + np.abs(b)))
    lam = np.zeros(m)
    if active.size:
        w_fit, _ = nnls(A[active].T, x - z)
        lam[active] = w_fit
    return z, lam


def _hildreth_solve(A, b, x, tol, max_iter, dual_history):
    m = A.shape[0]
    slack0 = A @ x - b
    if float(np.max(slack0)) <= 0.0:
        return x.copy(), np.zeros(m), 0, 0.0
    data_scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.linalg.norm(x))
    conv_tol = tol * data_scale
    row_sq = np.einsum("ij,ij->i", A, A)
    gram = A @ A.T
    q = slack0
    lam = np.zeros(m)
    z = x.copy()
    prev_obj = np.inf

    for sweep in range(1, max_iter + 1):
        for i in range(m):
            r = float(A[i] @ z) - float(b[i])
            new = lam[i] + r / row_sq[i]
            if new < 0.0:
                new = 0.0
            delta = new - lam[i]
            if delta != 0.0:
                lam[i] = new
                z -= delta * A[i]
        obj = 0.5 * float(lam @ (gram @ lam)) - float(lam @ q)
        if dual_history is not None:
            dual_history.append(obj)
        # Exact coordinate minimization cannot increase the dual objective.
        if obj > prev_obj + 1e-9 * (1.0 + abs(prev_obj)):
            raise NotConverged("dual objective increased during a sweep")
        prev_obj = obj
        if float(np.abs(lam).max()) > _DIVERGENCE_LIMIT:
            raise EmptyPolyhedron("dual iterate diverged; feasible set looks empty")

        lam_max = float(lam.max(initial=0.0))
        candidates = set(np.flatnonzero(lam > 1e-12 + 1e-9 * lam_max).tolist())
        slack = A @ z - b
        candidates |= set(np.flatnonzero(np.abs(slack) <= conv_tol).tolist())
        polished = _polish(A, b, x, candidates, conv_tol)
        if polished is not None:
            # A successful polish is a KKT point by construction: the
            # multipliers are supported exactly on the rows the equality
            # solve made tight, so complementarity holds structurally and
            # only the primal violation needs checking.
            z_pol, lam_pol = polished
            viol = float(np.max(A @ z_pol - b, initial=0.0))
            if viol <= conv_tol:
                return z_pol, lam_pol, sweep, max(viol, 0.0)
        res = _kkt_residual(A, b, lam, z)
        if res <= conv_tol:
            return z.copy(), lam.copy(), sweep, res
        if sweep % _LDP_SWEEP_BUDGET == 0:
            # Ill-conditioned geometry can stall both the sweeps and the
            # polish; the least-distance fallback settles it exactly.
            settled = _ldp_solve(A, b, x, conv_tol)
            if settled is not None:
                z_ldp, lam_ldp = settled
                viol = float(np.max(A @ z_ldp - b, initial=0.0))
                return z_ldp, lam_ldp, sweep, max(viol, 0.0)

    raise NotConverged(f"projection did not reach tol={tol} in {max_iter} sweeps")


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
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> QPResult:
    """Projection of ``base + t_target * direction`` onto ``p``.

    Projecting a very distant point directly hits the double-precision
    wall, so the solver computes the near projection of ``base`` and then
    walks the piecewise-linear path ``t -> P(base + t * direction)``
    exactly: on a fixed set of tight rows the point and multipliers move
    linearly in t, and the walk switches faces when a multiplier hits zero
    (drop) or an inactive row becomes tight (add).  The point goes
    stationary once ``-direction`` enters the cone of the tight rows; all
    arithmetic stays at the scale of the polyhedron regardless of
    ``t_target``.
    """
    base = as_point(base)
    direction = as_point(direction)
    if norm(direction) <= 0.0 or t_target <= 0.0:
        return project_polyhedron(p, base, tol, max_iter)
    A, b = p.A, p.b
    m = p.num_rows
    start = project_polyhedron(p, base, tol, max_iter)
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
    # Degenerate face walk: last resort is the direct (scale-limited) solve.
    return project_polyhedron(p, base + t_target * direction, tol, max_iter)


def project_polyhedron(
    p: Polyhedron,
    x,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    dual_history: list | None = None,
) -> QPResult:
    """Project ``x`` onto the polyhedron ``p``.

    Parameters
    ----------
    p : Polyhedron
        Target set, assumed nonempty (divergence of the dual iteration is
        reported as :class:`EmptyPolyhedron`).
    x : array_like
        Point to project.
    tol : float
        Convergence threshold, relative to the data scale, on both the
        primal violation and the complementarity gap.
    max_iter : int
        Cap on Hildreth sweeps.
    dual_history : list, optional
        If given, the dual objective value after each sweep is appended;
        the sequence is nonincreasing within each solve pass.

    Returns
    -------
    QPResult
    """
    x = as_point(x)
    if x.shape[0] != p.dim:
        raise DimensionMismatch(f"point has dimension {x.shape[0]}, set has {p.dim}")
    z, lam, sweeps, res = _hildreth_solve(p.A, p.b, x, tol, max_iter, dual_history)
    dist = norm(x - z)
    near_radius = 1.0 + norm(z)
    if dist > _FAR_FACTOR * near_radius:
        x_near = z + (x - z) * (near_radius / dist)
        z2, lam2, sweeps2, _ = _hildreth_solve(
            p.A, p.b, x_near, tol, max_iter, dual_history
        )
        z = z2
        lam = lam2 * (dist / near_radius)
        sweeps += sweeps2
        res = _kkt_residual(p.A, p.b, lam, z)
    return QPResult(z, lam, sweeps, res)
