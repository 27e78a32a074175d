"""Exact rational arithmetic on floats, for checking the planar kernels and
the cone distances behind alpha.

Every float is a rational number, so ``Fraction`` evaluates a polynomial or
a squared distance at floats with no rounding at all, and integer
determinants solve a least-squares problem on floats exactly.
"""

import decimal
import math
from fractions import Fraction


def parabola_cubic(u: float, z1: float, z2: float) -> Fraction:
    """``g(u) = 2u^3 + (1 - 2 z2) u - |z1|``, the stationarity cubic of the
    parabola's projection for the base point ``(z1, z2)``, exactly."""
    u, z2 = Fraction(u), Fraction(z2)
    return 2 * u**3 + (1 - 2 * z2) * u - abs(Fraction(z1))


def floats_around(x: float, k: int) -> tuple[float, float]:
    """The floats ``k`` steps below and above ``x``."""
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def squared_distance(p, q) -> Fraction:
    """``||p - q||^2`` for two float sequences, exactly."""
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p, q))


def _det(M) -> int:
    """Determinant of a square integer matrix, exactly (Bareiss elimination)."""
    M = [list(row) for row in M]
    k, prev, sign = len(M), 1, 1
    for i in range(k - 1):
        if M[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if M[r][i]), None)
            if swap is None:
                return 0
            M[i], M[swap], sign = M[swap], M[i], -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
        prev = M[i][i]
    return sign * M[-1][-1]


def _integers(x) -> tuple[list[int], int]:
    """A float vector times a power of two, as integers (same direction)."""
    fracs = [Fraction(float(a)) for a in x]
    scale = max(f.denominator for f in fracs)
    return [int(f * scale) for f in fracs], scale


def cone_family_distance(v, rows, family, floor: float = 0.0) -> Fraction:
    """Squared distance from ``v`` to the nearest cone of a family, exactly.

    ``rows`` are float vectors and ``family`` holds tuples of row indices.
    A subset ``S`` counts when its rows are independent and every exact
    least-squares coefficient of ``v`` on them is positive; it then adds
    ``||v - G_S lam_S||^2``, the squared distance to its cone, unless that
    is at most ``floor^2`` for a positive ``floor`` (a cone that contains
    ``v``).  Over a family that
    holds every subset of its cones, the least such value is the least cone
    distance, because each cone's nearest point lies in the relative
    interior of a face, the cone of an independent subset of its rows.  The
    result is capped at 1 (the cone ``{0}`` of a unit ``v``).
    """
    # Each row may be scaled on its own (the cone does not change); v's
    # scale is divided out of the result.
    ints = [_integers(r)[0] for r in rows]
    w, scale = _integers(v)
    vecs = [w] + ints
    gram = [[sum(a * b for a, b in zip(p, q)) for q in vecs] for p in vecs]
    best, cut = Fraction(1), Fraction(floor) ** 2
    for subset in family:
        at = [1 + i for i in subset]
        M = [[gram[i][j] for j in at] for i in at]
        det = _det(M)
        if det == 0:
            continue
        g = [gram[i][0] for i in at]
        # Cramer: lam_i has the sign of det(M with column i replaced by g),
        # since det(M) > 0 for independent rows.
        if any(_det([row[:i] + [g[r]] + row[i + 1 :] for r, row in enumerate(M)]) <= 0 for i in range(len(at))):
            continue
        # The squared residual is the Schur complement det(Gram[v, S]) / det(M).
        full = [[gram[0][0]] + g] + [[g[r]] + row for r, row in enumerate(M)]
        dist2 = Fraction(_det(full), det * scale * scale)
        if not (floor > 0.0 and dist2 <= cut):
            best = min(best, dist2)
    return best


def sqrt_relative_error(x: float, q: Fraction) -> float:
    """``|x - sqrt(q)| / sqrt(q)`` to 50 digits, for ``q > 0``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        root = (decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)).sqrt()
        return float(abs(decimal.Decimal(x) - root) / root)
