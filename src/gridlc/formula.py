"""Closed-form line completion numbers for grid graphs (paths included).

:func:`lc_grid_formula` names the parity branch it took with a string label.
"""

from __future__ import annotations


def lc_grid_formula(n: int, m: int) -> tuple[int, str]:
    """The paper's five-branch closed form for lc of the n-columns-by-m-rows grid.

    When both sides are at least 2, ``best_slicing`` certifies the value as
    a lower bound on lc (two non-adjacent edge sets of size value - 1).  It
    equals lc on every grid small enough to enumerate except 3 x 3, where
    it gives 4 and lc = 5.

    Five branches, symmetric in (n, m), each returned with its label:

    * ``trivial_1x1``, 1 x 1: 0.
    * ``path_case``, exactly one dimension 1: floor(max(n, m) / 2).
    * ``both_even``:       mn + 1 - (m + n)/2 - min(m, n)/2.
    * ``both_odd``:        mn     - (m + n)/2 - (min(m, n) + 1)/2.
    * ``opposite_parity``: mn + 1 - min(m, n) - ceil(max(m, n)/2).

    Both dimensions must be ints (``bool`` is refused) of at least 1.
    """
    if type(n) is not int or type(m) is not int:
        raise ValueError("grid dimensions must be integers")
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must both be at least 1")
    if n == 1 and m == 1:
        return 0, "trivial_1x1"
    if n == 1 or m == 1:
        return max(n, m) // 2, "path_case"
    smaller, larger = min(n, m), max(n, m)
    if n % 2 == 0 and m % 2 == 0:
        return m * n + 1 - (m + n) // 2 - smaller // 2, "both_even"
    if n % 2 == 1 and m % 2 == 1:
        return m * n - (m + n) // 2 - (smaller + 1) // 2, "both_odd"
    return m * n + 1 - smaller - (larger + 1) // 2, "opposite_parity"

