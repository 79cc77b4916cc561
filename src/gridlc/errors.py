"""Error types shared across the package, and the default caps that raise them."""

from __future__ import annotations

#: Default cap on subset pairs an enumeration may decide.
DEFAULT_PAIR_BUDGET = 10**9

#: Default cap on the number of subset vertices a super line graph may have.
DEFAULT_VERTEX_CAP = 10**5


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""


class BudgetExceededError(RuntimeError):
    """An enumeration was truncated before it reached a sound answer.

    Deliberately distinct from "no witness exists": when this is raised,
    nothing may be concluded about completeness at the interrupted level.
    """

    def __init__(self, message: str, last_decided_r: int | None = None):
        super().__init__(message)
        self.last_decided_r = last_decided_r
