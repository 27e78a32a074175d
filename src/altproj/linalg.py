"""Dense vector kernels: validation, norms, ray and cone distances, and NNLS.

Everything in this module is a pure function on small dense vectors
(problems of interest have n <= 100, usually n <= 10).  Vectors are plain
1-D ``numpy.ndarray`` objects.  :func:`as_point` is the one place in the
package that coerces and validates a vector; ``Polyhedron`` reads its matrix
by the same entry rule, and ``_real_scalar`` reads a number by it (a
half-space's or an LP's offset ``M``, the certificate tolerance).  A public
function passes each vector argument through ``as_point(x, dim)``, which
also checks the length against the set or space the vector belongs to, and
from then on works on the validated array.  The rule for loops follows from
it: a point is validated once, where it enters the package, and the loop
runs on kernels that take validated arrays.  The kernels that do no
validation here are :func:`unit_distance_to_ray`,
:func:`unit_cone_distance`, ``_norm``, ``_dot_row_norms`` and
``_dot_rows``; ``sets``, ``engine`` and ``qp`` keep their own
(``_project_point``, ``_certificate``, ``_certified``, ``_project_from``
and the kernels behind them).

Products.  Every vector-vector and matrix-vector product in the package is
written ``x.dot(y)``, not ``x @ y``.  Both call the same BLAS routine and
give the same bits on the layouts the package makes (contiguous, transposed
and strided views), but at these sizes the cost is the call itself.  On
NumPy 2.4.6 (Python 3.11.7, one BLAS thread, a 2-vCPU Xeon), ``x @ y`` on
2-vectors takes about 1.3 us and ``x.dot(y)`` about 0.7 us; a 12 x 4
matrix times a vector takes 1.5 us against 0.9 us.  The only ``@`` left
are block products, one call for many rows: the two of
:func:`altproj.vertices.feasible_vertices` and the stacked
``(1, n) @ (n, 1)`` products of ``_dot_row_norms``, which give every gap
of an engine run at its stop and round each row as ``d.dot(d)`` does, and
of ``_dot_rows``, which give alpha's row cosines and ray distances and
round each row as ``M[i].dot(x)`` does.  ``tests/test_products.py`` holds
the source to this rule and checks on the installed NumPy that the two
forms give the same bits, that ``_dot_row_norms`` gives ``_norm``'s and
that ``_dot_rows`` gives ``.dot``'s.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ZeroVector

# Norm below which a vector counts as zero; double precision leaves ample
# headroom at desk scale.
ZERO_TOL = 1e-12


# The entry types of a vector that is not an int or float array; a bool is
# an int but is rejected.
_REAL = (int, float, np.integer, np.floating)


def _real_array(values) -> np.ndarray:
    # ``values`` as a float array, by the entry rule of ``as_point``.  Input
    # other than an int or float array is read entry by entry, which also
    # finds a bool that NumPy would promote (``[True, 2.5]``).
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.asarray(values, dtype=float)
    p = np.asarray(values, dtype=object)
    for v in p.flat:
        if isinstance(v, bool) or not isinstance(v, _REAL):
            raise ValueError(f"vector entries must be ints or floats, got {v!r}")
    try:
        return p.astype(float)
    except OverflowError:
        raise ValueError("vector entry is too large for a float") from None


def _real_scalar(value, name: str) -> float:
    # A number by the entry rule of ``_real_array``: an int or a float
    # (NumPy's too), not a bool, a string or None, and an int within the
    # float range.  ``ValueError`` for anything else.
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def as_point(values, dim: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float array of length ``dim``.

    Every entry must be an int or a float (NumPy's too), and an int must
    lie within the float range.  Raises :class:`DimensionMismatch` for an
    empty or non-vector input and, when ``dim`` is given, for any other
    length; ``ValueError`` for a bool, a string, a complex number or any
    other object as an entry, and for non-finite entries.
    """
    p = _real_array(values)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("vector entries must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"vector has dimension {p.shape[0]}, expected {dim}")
    return p


def _norm(d: np.ndarray) -> float:
    # Euclidean norm of a 1-D float array.  ``sqrt(d.dot(d))`` is what
    # ``np.linalg.norm`` computes for one, so the result is bit-identical to
    # it, except that a sum of squares that overflows is formed again from
    # ``d / max|d|``: a finite ``d`` then has a finite norm.  A non-finite
    # entry still gives inf or nan.
    ss = float(d.dot(d))
    if ss < math.inf:
        return math.sqrt(ss)
    big = float(np.abs(d).max())
    if not big < math.inf:
        return ss
    e = d / big
    return big * math.sqrt(float(e.dot(e)))


def _dot_row_norms(D: np.ndarray) -> np.ndarray:
    # ``_norm`` of each row of a 2-D float array, bit for bit, from one block
    # product: the stacked ``(1, n) @ (n, 1)`` products round each row's sum
    # of squares as ``d.dot(d)`` does, where ``np.linalg.norm`` along axis 1
    # need not.  A row whose sum of squares overflows is taken again by
    # ``_norm``.
    ss = (D[:, None, :] @ D[:, :, None]).reshape(-1)
    norms = np.sqrt(ss)
    for i in np.flatnonzero(np.isinf(ss)):
        norms[i] = _norm(D[i])
    return norms


def _dot_rows(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    # ``M[i].dot(x)`` for each row of a 2-D float array, bit for bit, from
    # one block product: each stacked ``(1, n) @ (n, 1)`` product is the
    # BLAS dot that ``.dot`` calls for one row.
    return (M[:, None, :] @ x[:, None]).reshape(-1)


def unit_distance_to_ray(vhat: np.ndarray, u: np.ndarray) -> float:
    """Distance from the unit vector ``vhat`` to the closed ray spanned by ``u``.

    Equals ``sqrt(1 - <vhat,u>^2 / ||u||^2)`` when ``<vhat,u> > 0`` and 1
    otherwise, so the result always lies in [0, 1].  Evaluated as the norm
    of the orthogonal rejection of ``vhat`` from the ray, which stays
    accurate for nearly parallel vectors where the textbook form cancels.
    Does no validation: both are finite 1-D arrays of the same length, and
    ``u`` is nonzero.
    """
    if float(vhat.dot(u)) <= 0.0:
        return 1.0
    uhat = u / _norm(u)
    rejection = vhat - float(vhat.dot(uhat)) * uhat
    return min(1.0, _norm(rejection))


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
    if (G.T.dot(y) > tol).all():
        lam, *_ = np.linalg.lstsq(G, y, rcond=None)
        if (lam > 0.0).all():
            return lam, float(np.linalg.norm(y - G.dot(lam)))

    lam = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    resid = y.copy()

    for _ in range(50 * max(m, 1)):
        w = G.T.dot(resid)
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
        resid = y - G.dot(lam)
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
    are ignored, but like the others must have the length of ``v``.
    """
    v = as_point(v)
    nv = float(np.linalg.norm(v))
    if nv <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    gens = [as_point(g, v.shape[0]) for g in generators]
    gens = [g for g in gens if float(np.linalg.norm(g)) > ZERO_TOL]
    G = np.column_stack(gens) if gens else np.empty((v.shape[0], 0))
    return unit_cone_distance(v / nv, G)
