"""Shared exception types and the two default work budgets.

DEFAULT_BUDGET bounds every scan priced before it starts, in candidates
examined: q^k messages for an exact distance or weight enumerator, and
q^min(d, s - d) monic candidates per degree for the divisor scan of x^s - 1.
DEFAULT_OPEN_BUDGET bounds the steps of the two searches whose size is only
known by running them: factorization-tree nodes and similarity witnesses.
"""

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


class ConsistencyError(RuntimeError):
    """An internal structural invariant failed; never silently accepted."""
