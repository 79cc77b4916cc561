"""Error types shared across the package, and the default caps that raise them."""

from __future__ import annotations

#: Default cap on the subsets a level scan is charged.  Each level costs all
#: C(E, r) of its subsets and levels 1..E total 2^E - 1, so the default
#: decides every graph with at most 24 edges.
DEFAULT_PAIR_BUDGET = 2**24

#: Default cap on the number of subset vertices a super line graph may have.
DEFAULT_VERTEX_CAP = 10**5


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""


class BudgetExceededError(RuntimeError):
    """A level scan was refused because its subsets would pass the budget.

    Deliberately distinct from "no witness exists": when this is raised,
    nothing may be concluded about completeness at the refused level.
    """

    def __init__(self, message: str, last_decided_r: int | None = None):
        super().__init__(message)
        self.last_decided_r = last_decided_r
