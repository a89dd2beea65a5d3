"""Exception hierarchy for orbilens.

Input-shaped problems derive from both OrbilensError and ValueError so
callers can catch either; InternalInvariant marks bugs, never bad input.
"""


class OrbilensError(Exception):
    """Base class for all orbilens errors."""


class InvalidOrder(OrbilensError, ValueError):
    """Group order q must be a positive integer."""


class ZeroRotation(OrbilensError, ValueError):
    """A rotation residue is divisible by the (reduced) order q.

    A vanishing residue means that coordinate pair is fixed by the whole
    group; model it through the padding count instead.
    """


class DimensionMismatch(OrbilensError, ValueError):
    """Two descriptors have different rotation counts or padding."""


class UnsupportedRank(OrbilensError, ValueError):
    """Operation is only defined for two rotation blocks (n = 2)."""


class UnsupportedPadding(OrbilensError, ValueError):
    """Operation is only defined for padding W in {0, 1}."""


class UnsupportedShape(OrbilensError, ValueError):
    """Descriptor shape outside the operation's domain."""


class ShapeMismatch(OrbilensError, ValueError):
    """Pair operation called on descriptors of incompatible shape."""


class PreconditionViolated(OrbilensError, ValueError):
    """Arguments do not satisfy the operation's stated precondition."""


class NotADivisor(OrbilensError, ValueError):
    """Argument k must divide the group order q."""


class CountingRangeExceeded(OrbilensError, OverflowError):
    """Requested degree would overflow the exact int64 counting range."""


class PoleEvaluation(OrbilensError, ArithmeticError):
    """Numeric evaluation requested too close to a pole."""


class InternalInvariant(OrbilensError, AssertionError):
    """An internal consistency check failed; indicates a bug."""
