"""Exception types shared across the library.

Division by zero raises the builtin ZeroDivisionError; everything else gets a
named subclass so callers can tell a bad configuration from a failed check.
"""


class FFLabError(Exception):
    """Base class for library-specific failures."""


# field construction and arithmetic
class NotPrimeError(FFLabError):
    pass


class EvenCharacteristicError(FFLabError):
    pass


class DegreeTooLargeError(FFLabError):
    pass


class NotQuadraticExtensionError(FFLabError):
    pass


# grids and transforms
class WrongSideError(FFLabError):
    pass


class SideMismatchError(FFLabError):
    pass


# surfaces
class CharacteristicTooSmallError(FFLabError):
    pass


class UnsupportedDimensionError(FFLabError):
    pass


class WrongSurfaceKindError(FFLabError):
    pass


class DegenerateKernelError(FFLabError):
    pass


# norm estimation
class NoClosedFormError(FFLabError):
    pass


class SubspaceNotFoundError(FFLabError):
    pass


class UnknownWitnessError(FFLabError):
    pass


class MinusOneIsSquareError(FFLabError):
    pass


class SupportViolationError(FFLabError):
    pass


class NotAMajorantError(FFLabError):
    pass


# kakeya machinery
class NonZeroRequiredError(FFLabError):
    pass


class NotInjectiveError(FFLabError):
    pass


class ImproperSlopeError(FFLabError):
    pass


class DegenerateHeightsError(FFLabError):
    pass


class ConstraintViolatedError(FFLabError):
    pass


# budgets and stored results
class BudgetExceededError(FFLabError):
    pass


class VersionMismatchError(FFLabError):
    pass
