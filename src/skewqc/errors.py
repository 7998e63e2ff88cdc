"""Shared exception types, the two default work budgets and the integer
check of the parameters that price work.

DEFAULT_BUDGET bounds every scan priced before it starts, in candidates
examined: q^k messages for an exact distance or weight enumerator, and
q^min(d, s - d) monic candidates per degree for the divisor scan of x^s - 1.
DEFAULT_OPEN_BUDGET bounds the steps of the two searches whose size is only
known by running them: factorization-tree nodes and similarity witnesses.
A price is a Python int: ``as_index`` takes integer parameters in where
they enter, so a numpy integer cannot wrap q^k to 0 and pass a budget.
"""

import operator

DEFAULT_BUDGET = 2**26
DEFAULT_OPEN_BUDGET = 2**20


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its allowed work budget.

    Raised *before* starting the oversized work, with the estimated cost
    attached, so callers can either raise the budget or downgrade to a
    sampled / partial answer.
    """

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(f"{message} (needs ~{required}, budget {budget})")
        self.required = required
        self.budget = budget


def as_index(name: str, value) -> int:
    """``value`` as a Python int by operator.index (numpy integers
    included); ValueError naming the parameter ``name`` for anything else,
    such as a float or a string."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class ConsistencyError(RuntimeError):
    """An internal structural invariant failed; never silently accepted."""
