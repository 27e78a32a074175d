"""Exception hierarchy shared by every module in the package."""


class AltprojError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AltprojError):
    """Operands live in spaces of different dimension."""


class ZeroVector(AltprojError):
    """A direction or query vector has norm below the zero tolerance."""


class DegenerateRow(AltprojError):
    """A constraint row or half-space normal is (numerically) zero, or too
    long for a projection to square (norm 2**510, about 3.4e153, or more)."""


class PointNotInSet(AltprojError):
    """A point required to belong to a set fails the containment test."""


class StartNotInA(AltprojError):
    """The starting iterate is not a member of the first set."""


class NotConverged(AltprojError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class EmptyPolyhedron(AltprojError):
    """A polyhedron has no feasible point (or, for the vertex oracle, no vertex)."""


class InvalidDistance(AltprojError):
    """Distances passed to a bound are geometrically impossible."""


class LowerBoundNotStrict(AltprojError):
    """The sub-level offset is not strictly below the optimal value."""


class Unbounded(AltprojError):
    """The linear objective is unbounded below on the feasible set."""


class TooLarge(AltprojError):
    """Problem size exceeds the brute-force oracle's enumeration limit."""


class NotPolyhedralPair(AltprojError):
    """An operation requires a polyhedron paired with a half-space."""
