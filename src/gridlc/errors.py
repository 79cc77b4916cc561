"""Error types shared across the package, and the default caps that raise them."""

from __future__ import annotations

#: Default cap on the adjacency masks the witness walk may read, one per
#: prefix it tries.  A walk over E edges tries fewer than 2**E prefixes, so
#: the default decides every level of every graph with at most 24 edges.
DEFAULT_PAIR_BUDGET = 2**24

#: Default cap on the number of subset vertices a super line graph may have.
DEFAULT_VERTEX_CAP = 10**5


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""
