"""Exception hierarchy for orbilens.

Input-shaped problems derive from both OrbilensError and ValueError so
callers can catch either, and every refusal of an input that breaks an
operation's precondition is a PreconditionViolated; InternalInvariant
marks bugs, never bad input.
"""


class OrbilensError(Exception):
    """Base class for all orbilens errors."""


class PreconditionViolated(OrbilensError, ValueError):
    """Arguments do not satisfy the operation's stated precondition."""


class InvalidOrder(PreconditionViolated):
    """Group order q must be a positive integer."""


class ZeroRotation(PreconditionViolated):
    """A rotation residue is divisible by the (reduced) order q.

    A vanishing residue means that coordinate pair is fixed by the whole
    group; model it through the padding count instead.
    """


class UnsupportedShape(PreconditionViolated):
    """Descriptor shape (rotation count or padding) outside the operation's domain."""


class ShapeMismatch(PreconditionViolated):
    """Pair operation called on descriptors of incompatible shape."""


class NotADivisor(PreconditionViolated):
    """Argument k must divide the group order q."""


class CountingRangeExceeded(OrbilensError, OverflowError):
    """Requested degree would overflow the exact int64 counting range."""


class PoleEvaluation(OrbilensError, ArithmeticError):
    """Numeric evaluation requested too close to a pole."""


class InternalInvariant(OrbilensError, AssertionError):
    """An internal consistency check failed; indicates a bug."""
