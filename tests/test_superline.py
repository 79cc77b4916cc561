import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gridlc import (
    BudgetExceededError,
    CapacityError,
    EdgeSet,
    Graph,
    GridSpec,
    WitnessPair,
    find_nonadjacent_pair,
    grid,
    lc_bruteforce,
    path,
    sets_adjacent,
    super_line_graph,
)
from support import (
    find_pair_naive,
    graphs,
    grids_with_at_most,
    lc_naive,
    line_graph_naive,
    random_simple_graphs,
    share_endpoint,
    subsets_adjacent_naive,
)


class TestEdgeSet:
    def test_from_indices(self):
        g = path(5)
        s = EdgeSet.from_indices(g, [0, 2])
        assert s.bits == 0b101
        assert s.cardinality == 2
        assert s.indices() == (0, 2)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            EdgeSet.from_indices(path(3), [2])

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            EdgeSet(path(3), 0b100)


class TestSetsAdjacent:
    def test_touching_pairs(self):
        g = path(5)
        s = EdgeSet.from_indices(g, [0, 1])
        t = EdgeSet.from_indices(g, [2, 3])
        assert sets_adjacent(g, s, t)

    def test_separated_singletons(self):
        g = path(5)
        assert not sets_adjacent(g, EdgeSet.from_indices(g, [0]), EdgeSet.from_indices(g, [2]))

    def test_identical_singleton_not_self_adjacent(self):
        g = path(5)
        e = EdgeSet.from_indices(g, [1])
        assert not sets_adjacent(g, e, e)

    def test_mismatched_graph_rejected(self):
        g, h = path(5), path(6)
        s = EdgeSet.from_indices(g, [0])
        with pytest.raises(ValueError):
            sets_adjacent(h, s, s)

    @given(graphs(min_edges=1), st.data())
    def test_matches_naive_and_symmetric(self, g, data):
        indices = st.lists(st.integers(0, g.edge_count - 1), unique=True, max_size=5)
        first = data.draw(indices)
        second = data.draw(indices)
        s = EdgeSet.from_indices(g, first)
        t = EdgeSet.from_indices(g, second)
        expected = subsets_adjacent_naive(g, first, second)
        assert sets_adjacent(g, s, t) == expected
        assert sets_adjacent(g, t, s) == expected


class TestSuperLineGraph:
    def test_index_two_of_path5_is_k6(self):
        g, labels = super_line_graph(path(5), 2)
        assert g.vertex_count == 6
        assert g.edge_count == 15
        assert labels == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        # Built directly, the output still passes the validating constructor.
        assert g == Graph.from_edges(g.vertex_count, g.edges, edge_cap=None)

    def test_index_one_reduces_to_line_graph(self):
        base = path(5)
        g, labels = super_line_graph(base, 1)
        assert g == line_graph_naive(base)
        assert labels == ((0,), (1,), (2,), (3,))

    def test_single_edge_gives_k1(self):
        g, labels = super_line_graph(path(2), 1)
        assert g.vertex_count == 1
        assert g.edge_count == 0
        assert labels == ((0,),)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            super_line_graph(path(5), 5)
        with pytest.raises(ValueError):
            super_line_graph(path(5), 0)

    def test_vertex_cap_names_the_binomial(self):
        g = grid(GridSpec(3, 3))
        with pytest.raises(CapacityError, match="792"):
            super_line_graph(g, 5, vertex_cap=100)

    def test_output_carries_no_masks(self):
        # 276 subset vertices and 21,355 edges: eager masks would hold
        # 21,355 masks of up to 21,355 bits, about 49 MiB.
        g = grid(GridSpec(4, 4))
        tracemalloc.start()
        try:
            result, _ = super_line_graph(g, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.edge_count == 21_355
        assert peak < 16 * 2**20

    def test_output_masks_on_first_access(self):
        result, _ = super_line_graph(grid(GridSpec(2, 3)), 2)
        assert "edge_adjacency" not in vars(result)
        assert result == Graph.from_edges(result.vertex_count, result.edges, edge_cap=None)
        for i in range(result.edge_count):
            for j in range(result.edge_count):
                expected = share_endpoint(result.edges[i], result.edges[j])
                assert bool(result.edge_adjacency[i] >> j & 1) == expected


class TestFindNonadjacentPair:
    def test_path5_singletons(self):
        pair = find_nonadjacent_pair(path(5), 1)
        assert pair.S.indices() == (0,)
        assert pair.T.indices() == (2,)
        assert pair.r == 1

    def test_path5_pairs_complete(self):
        assert find_nonadjacent_pair(path(5), 2) is None

    def test_square_opposite_edges(self):
        g = grid(GridSpec(2, 2))
        pair = find_nonadjacent_pair(g, 1)
        # the two horizontal edges of the 4-cycle
        assert pair.S.indices() == (0,)
        assert pair.T.indices() == (1,)
        assert g.edges[0] == (0, 1) and g.edges[1] == (2, 3)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            find_nonadjacent_pair(path(5), 0)
        with pytest.raises(ValueError):
            find_nonadjacent_pair(path(5), 5)

    def test_budget_error_is_distinct_from_absent(self):
        with pytest.raises(BudgetExceededError):
            find_nonadjacent_pair(path(9), 3, pair_budget=1)

    def test_budget_is_charged_the_whole_level(self):
        # path(9) has 8 edges, so level 3 holds C(8, 3) = 56 subsets; the
        # first of them already has a partner, but the level costs all 56.
        g = path(9)
        witness = find_nonadjacent_pair(g, 3, pair_budget=56)
        assert (witness.S.indices(), witness.T.indices()) == find_pair_naive(g, 3)
        with pytest.raises(BudgetExceededError) as info:
            find_nonadjacent_pair(g, 3, pair_budget=55)
        assert info.value.last_decided_r is None

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_edges=7, min_edges=1), st.data())
    def test_matches_naive_lexicographic_first(self, g, data):
        r = data.draw(st.integers(1, min(3, g.edge_count)))
        expected = find_pair_naive(g, r)
        actual = find_nonadjacent_pair(g, r)
        if expected is None:
            assert actual is None
        else:
            assert (actual.S.indices(), actual.T.indices()) == expected

    def test_complete_level_is_not_materialised(self):
        # 3x4 at r = 8 is complete, so every one of its C(17, 8) = 24,310
        # subsets is visited; holding them all would take megabytes.
        g = grid(GridSpec(3, 4))
        tracemalloc.start()
        try:
            assert find_nonadjacent_pair(g, 8) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "cols, rows, r",
        [
            (cols, rows, r)
            for cols, rows in grids_with_at_most(10)
            for r in range(1, 2 * cols * rows - cols - rows + 1)
        ],
    )
    def test_matches_naive_at_every_level_of_small_grids(self, cols, rows, r):
        g = grid(GridSpec(cols, rows))
        expected = find_pair_naive(g, r)
        actual = find_nonadjacent_pair(g, r)
        if expected is None:
            assert actual is None
        else:
            assert (actual.S.indices(), actual.T.indices()) == expected


class TestIsCompleteIndex:
    """A level is complete exactly when it has no non-adjacent pair."""

    def test_path5_at_two(self):
        assert find_nonadjacent_pair(path(5), 2) is None

    def test_path9_at_three_incomplete(self):
        assert find_nonadjacent_pair(path(9), 3) is not None

    def test_single_edge_at_one(self):
        assert find_nonadjacent_pair(path(2), 1) is None


class TestLcBruteforce:
    def test_path5(self):
        result = lc_bruteforce(path(5))
        assert result.r == 2
        witness = result.witness_at_r_minus_1
        assert witness.r == 1
        assert witness.S.indices() == (0,)
        assert witness.T.indices() == (2,)

    def test_edgeless_grid(self):
        result = lc_bruteforce(grid(GridSpec(1, 1)))
        assert result.r == 0
        assert result.witness_at_r_minus_1 is None

    def test_lc_one_has_no_witness(self):
        result = lc_bruteforce(path(3))
        assert result.r == 1
        assert result.witness_at_r_minus_1 is None

    def test_grid_2x3(self):
        assert lc_bruteforce(grid(GridSpec(2, 3))).r == 3

    def test_budget_error_carries_last_decided_level(self):
        with pytest.raises(BudgetExceededError) as info:
            lc_bruteforce(grid(GridSpec(3, 3)), pair_budget=10)
        assert info.value.last_decided_r == 0

    def test_budget_is_the_sum_of_the_scanned_levels(self):
        # lc(3x3) = 5, so the scan decides levels 1..5 of its 12 edges.
        g = grid(GridSpec(3, 3))
        needed = sum(math.comb(12, r) for r in range(1, 6))
        assert needed == 1585
        assert lc_bruteforce(g, pair_budget=needed).r == 5
        with pytest.raises(BudgetExceededError) as info:
            lc_bruteforce(g, pair_budget=needed - 1)
        assert info.value.last_decided_r == 4

    def test_default_budget_refuses_5x5_before_scanning_level_7(self):
        # Levels 1..6 of the 40 edges cost 4,598,478 subsets and level 7
        # alone costs C(40, 7) = 18,643,560, past 2^24 = 16,777,216.
        started = time.process_time()
        with pytest.raises(BudgetExceededError) as info:
            lc_bruteforce(grid(GridSpec(5, 5)))
        assert time.process_time() - started < 0.1
        assert info.value.last_decided_r == 6
        assert str(info.value) == (
            "level r = 7 needs 18643560 subsets; 4598478 of the budget of "
            "16777216 are already charged"
        )

    @pytest.mark.parametrize(
        "g",
        [path(2), path(3), path(5), path(7), grid(GridSpec(2, 2)), grid(GridSpec(3, 2))],
        ids=["p2", "p3", "p5", "p7", "grid2x2", "grid3x2"],
    )
    def test_agrees_with_naive_oracle(self, g):
        assert lc_bruteforce(g).r == lc_naive(g)

    def test_agrees_with_naive_on_diamond(self, diamond):
        assert lc_bruteforce(diamond).r == lc_naive(diamond) == 2

    def test_agrees_with_naive_on_random_graphs(self):
        for g in random_simple_graphs(12, max_edges=8, seed=7):
            assert lc_bruteforce(g).r == lc_naive(g)

    def test_three_by_three_grid_exceeds_closed_form(self):
        # The one known grid where enumeration beats the closed form (4):
        # the boundary L of 5 cells and the opposite 2x2 block induce
        # vertex-disjoint edge sets of size 4 each, so index 4 is not
        # complete.  Frozen here so the oracle's verdict cannot drift.
        g = grid(GridSpec(3, 3))
        result = lc_bruteforce(g)
        assert result.r == 5
        witness = result.witness_at_r_minus_1
        assert witness.r == 4
        assert witness.S.indices() == (0, 1, 6, 9)
        assert witness.T.indices() == (3, 5, 10, 11)
        assert not subsets_adjacent_naive(g, witness.S.indices(), witness.T.indices())


class TestMaxNonadjacentR:
    """The largest subset size with a witness pair is lc - 1; ``lc_bruteforce``
    reports it as the size of ``witness_at_r_minus_1``."""

    def test_path9(self):
        witness = lc_bruteforce(path(9)).witness_at_r_minus_1
        assert witness.r == 3
        assert witness.S.indices() == (0, 1, 2)
        assert not subsets_adjacent_naive(path(9), witness.S.indices(), witness.T.indices())

    def test_path5(self):
        assert lc_bruteforce(path(5)).witness_at_r_minus_1.r == 1

    def test_single_edge_has_none(self):
        assert lc_bruteforce(path(2)).witness_at_r_minus_1 is None

    @pytest.mark.parametrize("k", range(3, 10))
    def test_consistent_with_lc(self, k):
        g = path(k)
        result = lc_bruteforce(g)
        assert find_nonadjacent_pair(g, result.r) is None
        if result.r <= 1:
            assert result.witness_at_r_minus_1 is None
        else:
            assert find_nonadjacent_pair(g, result.r - 1) == result.witness_at_r_minus_1


class TestInvariants:
    @pytest.mark.parametrize(
        "g",
        [path(4), path(6), grid(GridSpec(2, 2)), grid(GridSpec(3, 2)), grid(GridSpec(2, 4))],
        ids=["p4", "p6", "grid2x2", "grid3x2", "grid2x4"],
    )
    def test_completeness_monotone_in_r(self, g):
        flags = [find_nonadjacent_pair(g, r) is None for r in range(1, g.edge_count + 1)]
        for earlier, later in zip(flags, flags[1:]):
            assert (not earlier) or later

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_edges=7, min_edges=2))
    def test_completeness_monotone_random(self, g):
        flags = [find_nonadjacent_pair(g, r) is None for r in range(1, g.edge_count + 1)]
        for earlier, later in zip(flags, flags[1:]):
            assert (not earlier) or later

    @pytest.mark.parametrize("g", [path(5), grid(GridSpec(2, 2)), grid(GridSpec(3, 2))])
    def test_witnesses_survive_independent_recheck(self, g):
        for r in range(1, g.edge_count + 1):
            pair = find_nonadjacent_pair(g, r)
            if pair is None:
                continue
            assert pair.S.cardinality == pair.T.cardinality == r
            assert pair.S.bits != pair.T.bits
            assert not subsets_adjacent_naive(g, pair.S.indices(), pair.T.indices())

    @pytest.mark.parametrize("r", [1, 2])
    def test_completeness_matches_materialised_edge_count(self, r):
        g = path(5)
        sl, _ = super_line_graph(g, r)
        vertex_pairs = math.comb(sl.vertex_count, 2)
        assert (find_nonadjacent_pair(g, r) is None) == (sl.edge_count == vertex_pairs)

    def test_witness_pair_constructor_rejects_adjacent_sets(self):
        g = path(5)
        with pytest.raises(ValueError):
            WitnessPair(EdgeSet.from_indices(g, [0]), EdgeSet.from_indices(g, [1]), 1)

    def test_witness_pair_constructor_rejects_wrong_size(self):
        g = path(5)
        with pytest.raises(ValueError):
            WitnessPair(EdgeSet.from_indices(g, [0]), EdgeSet.from_indices(g, [2]), 2)

    @given(graphs(max_edges=8, min_edges=1))
    def test_r1_matches_line_graph(self, g):
        sl, _ = super_line_graph(g, 1)
        assert sl == line_graph_naive(g)
