"""Exception types shared across the library.

An FFLabError is a refusal: the run's configuration is out of scope, and the
command line exits 2 with its message.  A failed check never raises; it is
reported and exits 1.  Division by zero raises the builtin ZeroDivisionError.
A subclass exists only where code catches it to tell one refusal apart.
Every --budget refusal goes through require_budget, in one message form.
"""

# Work cap of every budgeted enumeration, and the default of the CLI's --budget.
DEFAULT_BUDGET = 10**9


class FFLabError(Exception):
    """A refusal of an out-of-scope configuration."""


class NoClosedFormError(FFLabError):
    """A certificate producer does not cover this exponent pair."""


class BudgetExceededError(FFLabError):
    """The work of an enumeration is above its budget."""


def require_budget(work: int, budget: int, what: str) -> None:
    """Refuse work above budget; callers check before they allocate."""
    if work > budget:
        raise BudgetExceededError(f"{what} = {work} exceeds the budget {budget}")
