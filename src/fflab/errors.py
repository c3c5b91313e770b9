"""Exception types shared across the library.

Division by zero raises the builtin ZeroDivisionError; everything else gets a
named subclass so callers can tell a bad configuration from a failed check.
Every --budget refusal goes through require_budget, in one message form.
"""

# Work cap of every budgeted enumeration, and the default of the CLI's --budget.
DEFAULT_BUDGET = 10**9


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


# kakeya machinery
class NotInjectiveError(FFLabError):
    pass


class ImproperSlopeError(FFLabError):
    pass


class DegenerateHeightsError(FFLabError):
    pass


class ConstraintViolatedError(FFLabError):
    pass


# budgets
class BudgetExceededError(FFLabError):
    pass


def require_budget(work: int, budget: int, what: str) -> None:
    """Refuse work above budget; callers check before they allocate."""
    if work > budget:
        raise BudgetExceededError(f"{what} = {work} exceeds the budget {budget}")
