"""Domain exceptions.

Every error raised on a bad input derives from LatticeError so callers (and the
CLI) can distinguish domain errors from programming errors, such as the
InvariantViolation of a failed internal cross-check.
"""


class LatticeError(Exception):
    pass


class EmptyLattice(LatticeError):
    pass


class ZeroTwist(LatticeError):
    pass


class RankMismatch(LatticeError):
    pass


class UnknownLattice(LatticeError):
    pass


class ZeroVector(LatticeError):
    pass


class LatticeShapeMismatch(LatticeError):
    pass


class NotUnimodular(LatticeError):
    pass


class NotInHalfLattice(LatticeError):
    pass


class NotIsometry(LatticeError):
    pass


class NotIntegralReflection(LatticeError):
    pass


class IsotropicReflectionVector(LatticeError):
    pass


class NotIsotropic(LatticeError):
    pass


class NotOrthogonal(LatticeError):
    pass


class OddLattice(LatticeError):
    pass


class LatticeMismatch(LatticeError):
    pass


class NoGeneratorRecipe(LatticeError):
    pass


class NonPrimitive(LatticeError):
    pass


class EvenTypeUndefinedForOddN(LatticeError):
    pass


class OddNormInEvenLattice(LatticeError):
    pass


class LabelParityMismatch(LatticeError):
    pass


class NegativeCount(LatticeError):
    pass


class BoxTooLarge(LatticeError):
    pass


class NotInteger(LatticeError):
    """A rank, Gram entry or coordinate that is not an int (matrix.is_int)."""


class LimitExceeded(LatticeError):
    """A request past a fixed work cap other than the box walk budget."""


class InvariantViolation(AssertionError):
    """An internal cross-check failed; raised explicitly, so it survives python -O."""
