"""Dense vector kernels: validation, norms, ray and cone distances, NNLS and
the active-set kernel.

Everything in this module is a pure function on small dense vectors
(problems of interest have n <= 100, usually n <= 10).  Vectors are plain
1-D ``numpy.ndarray`` objects.  :func:`as_point` is the one place in the
package that coerces and validates a vector; ``Polyhedron`` reads its matrix
by the same entry rule, ``_real_scalar`` reads a number by it (a
half-space's or an LP's offset ``M``, the constants and distances of the
bounds, a walk's ``t_target``) and ``_check_tol`` a tolerance (the
certificate's and that of the membership tests of ``sets``).  A public
function passes each vector argument through ``as_point(x, dim)``, which
also checks the length against the set or space the vector belongs to, and
from then on works on the validated array.  The rule for loops follows from
it: a point is validated once, where it enters the package, and the loop
runs on kernels that take validated arrays.  The kernels that do no
validation here are :func:`unit_distance_to_ray`,
:func:`unit_cone_distance`, ``_norm``, ``_dot_row_norms``, ``_dot_rows``
and ``_feas_tol``, the one reader of the feasibility tolerance
``_FEAS_TOL``; ``sets``, ``engine`` and ``qp`` keep their own
(``_active``, ``_project_point``, ``_certificate``, ``_decide``,
``_project_from`` and the kernels behind them).

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

Ratio tests and substitutions on floats.  The small loops that pick one
event or solve one triangle run on Python floats, not on NumPy arrays of a
dozen entries: the walk's next event (``qp._next_event``), the face jump's
row event (``engine._closing_ratios``) and the triangular solve
:func:`_substitute`.  They give the bits of the array forms they replaced.
A comparison, a negation and a clamp are exact, and a product or a
division of two floats rounds once, in Python as in NumPy.  A clamp at zero
follows ``np.maximum(x, 0.0)`` (NaN stays, -0.0 becomes 0.0), and a search
for the least entry takes the first one, or the first NaN, as ``argmin``
does.  Every matrix-vector product stays one ``.dot`` of the whole matrix,
read back by ``tolist``, so BLAS rounds it as before, and ``np.log1p``
stays a NumPy call because ``math.log1p`` rounds some arguments
differently.  Sums are loops from 0.0 in index order, never the builtin
``sum``, which compensates float sums from Python 3.12 on and would give
other bits there than on 3.11.  ``tests/test_float_kernels.py`` compares
each float form with its array form bit for bit.

The active-set kernel.  ``_working_set`` and its factor updates
(``_substitute``, ``_add_column``, ``_delete_column``) are the dual
active-set method of Goldfarb and Idnani that :mod:`altproj.qp` describes;
they live here, below both of their callers.  ``qp`` projects a point onto a
polyhedron with them, and :func:`nnls` projects its target onto the polar
cone of its unit generators.  That polar projection is the one route of a
cone solve of two or more generators; no least-squares solve remains in
the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, EmptyPolyhedron, NotConverged, ZeroVector

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


def _check_tol(tol, name: str) -> float:
    # A tolerance: a number by ``_real_scalar``'s rule, finite and
    # nonnegative.  An infinite tolerance would pass every test it bounds
    # (a certificate's common-point test ``gap <= tol``, a membership test);
    # NaN and negative values pass none.
    tol = _real_scalar(tol, name)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")
    return tol


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
    # Entry by entry on floats: at these sizes ``np.isfinite(p).all()``
    # costs five times as much.
    if not all(map(math.isfinite, p.tolist())):
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


def _entry_norm(d: np.ndarray) -> float:
    # ``_norm`` of a vector as a caller passed it, where a sum of squares
    # that overflows is expected, so it raises no warning.
    with np.errstate(over="ignore"):
        return _norm(d)


def _dot_row_norms(D: np.ndarray) -> np.ndarray:
    # ``_norm`` of each row of a 2-D float array, bit for bit, from one block
    # product: the stacked ``(1, n) @ (n, 1)`` products round each row's sum
    # of squares as ``d.dot(d)`` does, where ``np.linalg.norm`` along axis 1
    # need not.  A row whose sum of squares overflows is taken again by
    # ``_norm``; that overflow is expected, so it raises no warning.
    with np.errstate(over="ignore"):
        ss = (D[:, None, :] @ D[:, :, None]).reshape(-1)
        norms = np.sqrt(ss)
        for i in np.isinf(ss).nonzero()[0]:
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


# A row counts as violated when its slack exceeds this fraction of the data
# scale ``1 + max|b| + ||x||``; rounding in the incremental updates of ``z``
# stays well below it, so degenerate vertices do not cycle.
_FEAS_TOL = 1e-13
# A new unit row counts as spanned by the working rows when the part the
# working rows cannot cancel is below this fraction of the terms that formed
# it, ``1 + sum_i |r_i|`` (``_working_set``).
_DEP_TOL = 1e-13
# Active-set steps granted per row and per coordinate.
_STEPS_PER_DIM = 50


def _feas_tol(scale: float, size: float) -> float:
    # The feasibility tolerance ``_FEAS_TOL (scale + size)`` of an active-set
    # solve, with ``scale`` the part of the data scale that the point does
    # not change and ``size`` the point's norm: the package's one rounding
    # rule.  Its callers are the polyhedron projection ``qp._project_from``
    # (``1 + max|b|`` and ``||x||``, on the unit rows), the polar solve of
    # ``nnls`` (1 and ``||y||``), the engine's face events
    # (``engine._face_jump``), and membership: ``sets._active`` adds it,
    # with the set's ``_scale`` and ``||x||``, to the tolerance of a
    # half-space or a polyhedron, and ``engine._screened_generators`` to
    # that of its float test of a half-plane.
    return _FEAS_TOL * (scale + size)


def _substitute(T, y, lower=False) -> list[float]:
    # ``T^-1 y`` for a triangular ``T`` (upper unless ``lower``) by
    # substitution on Python floats.  A face has at most n rows, and at that
    # size a LAPACK call costs more than the arithmetic.  Each row sums only
    # its solved part, from 0.0 in index order (module docstring, "Ratio
    # tests and substitutions on floats"); nothing off the triangle is read.
    rows, y = T.tolist(), y.tolist()
    k = len(y)
    v = [0.0] * k
    for i in range(k) if lower else reversed(range(k)):
        row = rows[i]
        s = 0.0
        for j in range(i) if lower else range(i + 1, k):
            s += row[j] * v[j]
        v[i] = (y[i] - s) / row[i]
    return v


def _add_column(Q, R, k, h, dd) -> None:
    # Append the row with ``h = Q' a`` to the factor of ``k`` rows: one
    # Householder reflection of the trailing columns of ``Q`` maps
    # ``h[k:]`` to ``alpha e_1``, so ``a = Q[:, :k+1] (h[:k], alpha)``.  A
    # single trailing column needs no reflection.  ``dd`` is
    # ``h[k:].dot(h[k:])``, which the caller has formed for its step.  Every
    # column of ``R`` is zero below its diagonal, beyond the leading ``k``
    # too, so a drop leaves only a subdiagonal for its rotations to clear: a
    # start pads its triangle with zeros, an add writes column ``k`` down to
    # its diagonal only, and a drop clears the one subdiagonal entry each of
    # its rotations makes.
    h2 = h[k:]
    h_0 = alpha = float(h2[0])
    if h2.shape[0] > 1:
        sigma = math.sqrt(dd)
        alpha = -math.copysign(sigma, h_0)
        v = h2.copy()
        v[0] = h_0 - alpha
        Q2 = Q[:, k:]
        Q2 -= Q2.dot(v)[:, None] * (v / (sigma * (sigma + abs(h_0))))
    R[:k, k] = h[:k]
    R[k, k] = alpha


def _delete_column(Q, R, k, j) -> None:
    # Drop row ``j`` of the ``k`` in the factor: delete column ``j`` of
    # ``R``, then a Givens rotation per later column clears the subdiagonal
    # this leaves, applied to the rows of ``R`` and the columns of ``Q``.
    R[:k, j : k - 1] = R[:k, j + 1 : k]
    for i in range(j, k - 1):
        rho = math.hypot(R[i, i], R[i + 1, i])
        c, s = R[i, i] / rho, R[i + 1, i] / rho
        G = np.array([[c, s], [-s, c]])
        R[i : i + 2, i : k - 1] = G.dot(R[i : i + 2, i : k - 1])
        R[i + 1, i] = 0.0
        Q[:, i : i + 2] = Q[:, i : i + 2].dot(G.T)


def _working_set(A, b, feas_tol, W, Q, R, u, z, slack) -> int:
    """Active-set steps from a dual-feasible start to the final face.

    Every row of ``A`` is a unit row or zero: :class:`~altproj.sets.Polyhedron`
    forms its unit rows once and :func:`nnls` scales its columns, and a zero
    row is never violated.  ``z`` is the projection of the point onto the
    face where the rows ``W`` are tight and ``u >= 0`` its multipliers in
    ``W`` order.  ``Q`` (n x n, orthogonal) and the leading ``k x k`` block
    of ``R`` (``k = len(W)``, upper triangular) factor the working rows:
    ``A_W' = Q[:, :k] R[:k, :k]``.  The cold start is ``([], I, 0, [], x)``.
    ``slack`` is ``A.dot(z) - b`` at the start, which the caller has formed
    to test ``z``; each later step forms it again.  ``W``, ``Q``, ``R`` and
    ``z`` are updated in place; returns the number of steps.

    A violated row ``a`` counts as spanned by the working rows when the
    part of it they cannot cancel, ``||Q_2' a||``, is at most
    ``_DEP_TOL (1 + sum_i |r_i|)``: ``1e-13`` of the terms that formed it,
    with ``r`` the rates of the working multipliers and every row of norm
    1.  On the ``far_projection`` benchmark's polyhedra (n = 2..4, up to 12
    rows) one step costs about 15 us on a 2-vCPU Xeon, 4.5 us of it the
    factor update, and most of the rest the calls into NumPy: the products
    with ``Q``, the triangular solve and the new slack.
    """
    m, n = A.shape
    max_steps = _STEPS_PER_DIM * (m + n)
    steps = 0
    while True:
        p = int(slack.argmax())
        if slack[p] <= feas_tol:
            return steps
        a = A[p]
        u_p = 0.0
        while True:  # raise the multiplier of row p until row p is tight
            steps += 1
            if steps > max_steps:
                raise NotConverged(f"projection took more than {max_steps} active-set steps")
            k = len(W)
            # ``Q' a`` splits ``a``: the working rows cancel ``Q_1 h[:k]``
            # with the rates ``r``, and ``Q_2 h[k:]`` is left over.
            h = a.dot(Q)
            h2 = h[k:]
            dd = float(h2.dot(h2))
            r = _substitute(R[:k, :k], h[:k])
            # ``sum_i |r_i|`` from 0.0 in index order (module docstring,
            # "Ratio tests and substitutions on floats").
            size = 0.0
            for r_i in r:
                size += abs(r_i)
            spanned = math.sqrt(dd) <= _DEP_TOL * (1.0 + size)
            t_full = math.inf if spanned else max(float(a.dot(z)) - float(b[p]), 0.0) / dd
            # The first working multiplier to reach zero as row p's rises.
            t_part, j = math.inf, -1
            for i, (u_i, r_i) in enumerate(zip(u, r)):
                if r_i > 0.0 and u_i / r_i < t_part:
                    t_part, j = u_i / r_i, i
            if spanned and j < 0:
                raise EmptyPolyhedron(
                    "a violated row is spanned by the working rows with no multiplier "
                    "free to fall; the polyhedron is empty"
                )
            t = min(t_full, t_part)
            if not spanned:
                z -= t * Q[:, k:].dot(h2)
            u = [u_i - t * r_i for u_i, r_i in zip(u, r)]
            u_p += t
            if t_full <= t_part:
                _add_column(Q, R, k, h, dd)
                W.append(p)
                u.append(u_p)
                break
            _delete_column(Q, R, k, j)
            del W[j]
            del u[j]
        slack = A.dot(z) - b


def nnls(G, y):
    """Solve ``min_{lam >= 0} ||G @ lam - y||``.

    The nonzero columns are scaled to unit norm, ``G_hat``, and ``y`` is
    split by Moreau's decomposition as ``y = z + G_hat lam_hat``, where
    ``z`` is the projection of ``y`` onto the polar cone
    ``{x : G_hat' x <= 0}``.  :func:`_working_set` computes it from the
    empty working set, as it does for the polyhedron projection.  On its
    final face the tight columns factor as ``G_hat_W = Q_1 R`` and ``z`` is
    orthogonal to ``Q_1``, so ``lam_hat_W = R^-1 Q_1' y``, clamped at 0,
    and ``lam = lam_hat / ||g||``.  Unit columns keep the kernel's
    tolerances at the scale of ``y`` however the columns' norms spread.  A
    zero column gets 0, and no columns give ``([], ||y||)``.  On targets
    inside a cone of up to 5 independent columns the residual is within
    ``2 eps (||y|| + sum_i lam_i ||g_i||)`` of the exact distance, two
    units of the scale at which it is formed (``tests/test_polar_cone.py``).

    ``y`` is read by :func:`as_point` and ``G`` by the same entry rule, as
    a finite 2-D array with ``len(y)`` rows: a non-finite, bool or string
    entry raises ``ValueError``, a wrong shape :class:`DimensionMismatch`.
    The kernel's errors pass through: :class:`NotConverged` past
    ``50 (m + n)`` active-set steps, and :class:`EmptyPolyhedron`, which the
    polar cone, holding 0, could only meet by rounding.

    Parameters
    ----------
    G : array_like, shape (n, m)
        Columns are the generators the target is expanded over.
    y : array_like, shape (n,)
        Target vector.

    Returns
    -------
    lam : ndarray, shape (m,)
        Nonnegative coefficients.
    rnorm : float
        Residual norm ``||G @ lam - y||``, formed as ``||G_hat lam_hat - y||``.
    """
    y = as_point(y)
    G = _real_array(G)
    if G.ndim != 2 or G.shape[0] != len(y):
        raise DimensionMismatch(f"generator matrix has shape {G.shape}, expected {len(y)} rows")
    if not all(map(math.isfinite, G.ravel().tolist())):
        raise ValueError("generator matrix entries must be finite")
    n, m = G.shape
    ny = _entry_norm(y)
    if m == 0:
        return np.zeros(0), ny

    norms = _dot_row_norms(G.T)
    # A zero column stays a zero row of ``U``: never violated, it never
    # enters the working set, and its coefficient stays 0.
    norms[norms == 0.0] = 1.0
    U = G.T / norms[:, None]
    W, Q, R, z, b = [], np.eye(n), np.zeros((n, n)), y.copy(), np.zeros(m)
    _working_set(U, b, _feas_tol(1.0, ny), W, Q, R, [], z, U.dot(z) - b)
    k = len(W)
    lam_hat = np.zeros(m)
    lam_hat[W] = np.maximum(_substitute(R[:k, :k], y.dot(Q[:, :k])), 0.0)
    return lam_hat / norms, _norm(y - U.T.dot(lam_hat))


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
    nv = _entry_norm(v)
    if nv <= ZERO_TOL:
        raise ZeroVector("cannot normalize a zero vector")
    gens = [as_point(g, v.shape[0]) for g in generators]
    gens = [g for g in gens if _entry_norm(g) > ZERO_TOL]
    G = np.column_stack(gens) if gens else np.empty((v.shape[0], 0))
    return unit_cone_distance(v / nv, G)
