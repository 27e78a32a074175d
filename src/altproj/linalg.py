"""Dense vector kernels: norms, ray distances, and nonnegative least squares.

Everything in this module is a pure function on small dense vectors
(problems of interest have n <= 100, usually n <= 10).  Vectors are plain
1-D ``numpy.ndarray`` objects; :func:`as_point` is the single entry point
that coerces and validates user input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroVector

# Norm below which a vector counts as zero; double precision leaves ample
# headroom at desk scale.
ZERO_TOL = 1e-12


def as_point(values) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float array."""
    p = np.asarray(values, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("vector entries must be finite")
    return p


def norm(p) -> float:
    """Euclidean norm of a vector."""
    return float(np.linalg.norm(as_point(p)))


def check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


@dataclass(frozen=True)
class Ray:
    """Half line ``{t * direction : t >= 0}`` spanned by a nonzero vector."""

    direction: np.ndarray

    def __post_init__(self):
        d = as_point(self.direction)
        if float(np.linalg.norm(d)) <= ZERO_TOL:
            raise ZeroVector("ray direction must be nonzero")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)


def distance_to_ray(v, ray: Ray) -> float:
    """Distance from ``v/||v||`` to the closed ray spanned by ``ray.direction``.

    Equals ``sqrt(1 - <v,u>^2 / (||u||^2 ||v||^2))`` when ``<u,v> > 0`` and
    1 otherwise, so the result always lies in [0, 1].  Evaluated as the norm
    of the orthogonal rejection of ``v/||v||`` from the ray, which stays
    accurate for nearly parallel vectors where the textbook form cancels.
    """
    v = as_point(v)
    u = ray.direction
    check_same_dim(v, u)
    nv = float(np.linalg.norm(v))
    if nv <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    return unit_distance_to_ray(v / nv, u)


def unit_distance_to_ray(vhat: np.ndarray, u: np.ndarray) -> float:
    """:func:`distance_to_ray` for a unit vector ``vhat`` and a nonzero ``u``.

    Does no validation: both are finite 1-D arrays of the same length.
    """
    if float(vhat @ u) <= 0.0:
        return 1.0
    uhat = u / float(np.linalg.norm(u))
    rejection = vhat - float(vhat @ uhat) * uhat
    return min(1.0, float(np.linalg.norm(rejection)))


def nnls(G: np.ndarray, y: np.ndarray):
    """Solve ``min_{lam >= 0} ||G @ lam - y||`` by the Lawson-Hanson method.

    When every column makes an acute angle with ``y``, as it does for most
    targets inside the cone and few outside it, the unconstrained
    least-squares solution on all columns is tried first: if every
    coefficient is strictly positive it satisfies the optimality conditions
    of the constrained problem and is returned as is.  That is the same
    solve Lawson-Hanson ends with when it finishes with every column
    passive, so the result is then bit-identical.  Otherwise Lawson-Hanson
    runs from ``lam = 0``, for at most ``50 m`` outer iterations.

    Parameters
    ----------
    G : ndarray, shape (n, m)
        Columns are the generators the target is expanded over.
    y : ndarray, shape (n,)
        Target vector.

    Returns
    -------
    lam : ndarray, shape (m,)
        Nonnegative coefficients at termination.
    rnorm : float
        Residual norm ``||G @ lam - y||``.
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = G.shape

    # Dual feasibility tolerance, scaled to the data.
    tol = 1e-11 * max(1.0, float(np.abs(G).max(initial=0.0))) * max(
        1.0, float(np.linalg.norm(y))
    )
    # The angle test keeps the extra solve off most targets outside the
    # cone, where it would fail.  With no columns it returns [] and ||y||.
    if (G.T @ y > tol).all():
        lam, *_ = np.linalg.lstsq(G, y, rcond=None)
        if (lam > 0.0).all():
            return lam, float(np.linalg.norm(y - G @ lam))

    lam = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    resid = y.copy()

    for _ in range(50 * max(m, 1)):
        w = G.T @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        passive[j] = True
        while True:
            idx = np.flatnonzero(passive)
            s_sub, *_ = np.linalg.lstsq(G[:, idx], y, rcond=None)
            if np.all(s_sub > 0.0):
                lam = np.zeros(m)
                lam[idx] = s_sub
                break
            # Step toward s until the first coefficient hits zero.
            s = np.zeros(m)
            s[idx] = s_sub
            mask = passive & (s <= 0.0)
            ratios = lam[mask] / (lam[mask] - s[mask])
            step = float(np.min(ratios))
            lam = lam + step * (s - lam)
            passive &= lam > ZERO_TOL
            lam[~passive] = 0.0
            if not np.any(passive):
                break
        resid = y - G @ lam
    return lam, float(np.linalg.norm(resid))


def unit_cone_distance(vhat: np.ndarray, G: np.ndarray) -> float:
    """Distance from the unit vector ``vhat`` to the cone spanned by ``G``'s columns.

    Does no validation: ``G`` is ``(n, k)`` with finite, nonzero columns of
    the length of ``vhat``.  No columns means the cone is ``{0}`` (distance
    1); one column is the closed-form ray rejection; more take one NNLS.
    """
    k = G.shape[1]
    if k == 0:
        return 1.0
    if k == 1:
        return unit_distance_to_ray(vhat, G[:, 0])
    _, rnorm = nnls(G, vhat)
    return min(rnorm, 1.0)


def distance_to_finite_cone(v, generators) -> float:
    """Distance from ``v/||v||`` to the cone generated by ``generators``.

    Solves the nonnegative least-squares problem
    ``min_{lam >= 0} ||v/||v|| - sum_i lam_i g_i||``.  An empty generator
    list means the cone is ``{0}`` and the distance is 1; zero generators
    are ignored.
    """
    v = as_point(v)
    nv = float(np.linalg.norm(v))
    if nv <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    gens = [as_point(g) for g in generators]
    gens = [g for g in gens if float(np.linalg.norm(g)) > ZERO_TOL]
    for g in gens:
        check_same_dim(v, g)
    G = np.column_stack(gens) if gens else np.empty((v.shape[0], 0))
    return unit_cone_distance(v / nv, G)
