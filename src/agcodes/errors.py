"""Exception types raised across the package."""


class AGCError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePower(AGCError):
    pass


class Unsupported(AGCError):
    pass


class DivisionByZero(AGCError, ZeroDivisionError):
    pass


class DegreeTooLarge(AGCError):
    pass


class DependentForms(AGCError):
    pass


class SizeOutOfRange(AGCError):
    pass


class DimensionMismatch(AGCError):
    pass


class TooLarge(AGCError):
    pass


class OrderOutOfRange(AGCError):
    pass


class OrthogonalityViolation(AGCError):
    pass


class SingularMatrix(AGCError):
    pass


class NotSquare(AGCError):
    pass


class WMaxUnsupported(AGCError):
    pass


class WordNotInCode(AGCError):
    pass


class RankTooLow(AGCError):
    pass


class InvalidWitnessParams(AGCError):
    pass


class UsageError(AGCError):
    """Bad command-line arguments."""
