"""Error types shared across the package, and the default caps that raise them."""

from __future__ import annotations

#: Default cap on the adjacency masks the witness walk may read, one per
#: prefix it tries.  A walk over E edges tries fewer than 2**E prefixes, so
#: the default decides every level of every graph with at most 24 edges.
DEFAULT_PAIR_BUDGET = 2**24

#: Default cap on the number of subset vertices a super line graph may have.
#: Construction tests all C(cap, 2) vertex pairs, and each may be an edge: at
#: the cap, ``gridlc superline --index 1`` on the star K_1,2500, whose super
#: line graph is K_2500 with 3,123,750 edges, took about 570 MB of RSS and
#: 2 s of CPU for the whole process.
DEFAULT_VERTEX_CAP = 2500


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""
