"""Exact rational arithmetic on floats, for checking the planar kernels.

Every float is a rational number, so ``Fraction`` evaluates a polynomial or
a squared distance at floats with no rounding at all.
"""

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
