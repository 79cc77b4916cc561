"""Error types shared across the package, and the default caps that raise them."""

from __future__ import annotations

#: Default cap on the adjacency masks the witness walk may read, one per
#: prefix it tries.  A walk over E edges tries fewer than 2**E prefixes, so
#: the default decides every level of every graph with at most 24 edges.
DEFAULT_PAIR_BUDGET = 2**24

#: Default cap on the number of subset vertices a super line graph may have.
#: It bounds the output, up to C(cap, 2) edges: at the cap, ``superline
#: --index 1`` on the star K_1,2500 streams K_2500's 3,123,750 edges in about
#: 0.3 s and 18 MB, while ``super_line_graph`` holds them all in about 330 MB.
DEFAULT_VERTEX_CAP = 2500


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""
