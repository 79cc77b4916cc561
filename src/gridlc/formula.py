"""Closed-form line completion numbers for grid graphs (paths included)."""

from __future__ import annotations

import enum


class GridCase(enum.Enum):
    """Which parity branch of the closed form applies to (n, m)."""

    TRIVIAL_1X1 = "trivial_1x1"
    PATH = "path_case"
    BOTH_EVEN = "both_even"
    BOTH_ODD = "both_odd"
    OPPOSITE_PARITY = "opposite_parity"


def lc_grid_formula(n: int, m: int) -> tuple[int, GridCase]:
    """The paper's five-branch closed form for lc of the n-columns-by-m-rows grid.

    When both sides are at least 2, ``best_slicing`` certifies the value as
    a lower bound on lc (two non-adjacent edge sets of size value - 1).  It
    equals lc on every grid small enough to enumerate except 3 x 3, where
    it gives 4 and lc = 5.

    Five branches, symmetric in (n, m):

    * 1 x 1: 0.
    * exactly one dimension 1 (a path): floor(max(n, m) / 2).
    * both even:            mn + 1 - (m + n)/2 - min(m, n)/2.
    * both odd:             mn     - (m + n)/2 - (min(m, n) + 1)/2.
    * opposite parity:      mn + 1 - min(m, n) - ceil(max(m, n)/2).
    """
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must both be at least 1")
    if n == 1 and m == 1:
        return 0, GridCase.TRIVIAL_1X1
    if n == 1 or m == 1:
        return max(n, m) // 2, GridCase.PATH
    smaller, larger = min(n, m), max(n, m)
    if n % 2 == 0 and m % 2 == 0:
        value = m * n + 1 - (m + n) // 2 - smaller // 2
        case = GridCase.BOTH_EVEN
    elif n % 2 == 1 and m % 2 == 1:
        value = m * n - (m + n) // 2 - (smaller + 1) // 2
        case = GridCase.BOTH_ODD
    else:
        value = m * n + 1 - smaller - (larger + 1) // 2
        case = GridCase.OPPOSITE_PARITY
    return value, case

