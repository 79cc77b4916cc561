import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gridlc import (
    DEFAULT_PAIR_BUDGET,
    CapacityError,
    EdgeSet,
    Graph,
    GridSpec,
    WitnessPair,
    find_nonadjacent_pair,
    grid,
    lc_bruteforce,
    lc_grid_formula,
    path,
    sets_adjacent,
    super_line_graph,
)
from gridlc.superline import _frontier_steps, _lemma_lc, _lemma_points
from support import (
    find_pair_naive,
    first_witness_scan,
    from_indices_reference,
    frontier_steps_reference,
    graphs,
    grids_with_at_most,
    indices_reference,
    lc_grid_transfer,
    lc_lemma_naive,
    lc_naive,
    lc_upward_scan,
    lemma_bound_naive,
    lemma_points_naive,
    line_graph_naive,
    random_simple_graphs,
    sets_adjacent_reference,
    share_endpoint,
    subsets_adjacent_naive,
    super_line_cases,
    super_line_graph_naive,
)


def sample_masks(edge_count: int, count: int, seed: int) -> list[int]:
    """The empty and full masks, then dense and sparse random masks in turn."""
    rng = random.Random(seed)
    masks = [0, (1 << edge_count) - 1]
    for _ in range(count):
        dense = rng.getrandbits(edge_count)
        masks += [dense, dense & rng.getrandbits(edge_count) & rng.getrandbits(edge_count)]
    return masks


def conversion_cases():
    """``(graph, masks)``: E = 0, random graphs, a 12x12 grid and 181x181."""
    cases = [(path(1), [0])]
    cases += [(g, sample_masks(g.edge_count, 6, seed))
              for seed, g in enumerate(random_simple_graphs(60, max_edges=14))]
    cases.append((grid(GridSpec(12, 12)), sample_masks(264, 10, 1)))
    # The per-bit references are quadratic here, so only a few masks.
    cases.append((grid(GridSpec(181, 181)), sample_masks(65_160, 1, 2)))
    return cases


def raised_message(call, *args) -> str:
    with pytest.raises(ValueError) as caught:
        call(*args)
    return str(caught.value)


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

    def test_conversions_match_per_bit_references(self):
        rng = random.Random(7)
        for g, masks in conversion_cases():
            for bits in masks:
                members = indices_reference(bits)
                assert EdgeSet(g, bits).indices() == members
                # Repeats and any order give the same set.
                shuffled = list(members) + rng.sample(members, min(len(members), 5))
                rng.shuffle(shuffled)
                assert EdgeSet.from_indices(g, shuffled).bits == bits
                assert from_indices_reference(g.edge_count, shuffled) == bits

    def test_from_indices_reports_the_first_index_out_of_range(self):
        for g, _ in conversion_cases():
            e = g.edge_count
            for indices in ([e], [-1, e], [0, e + 5, -1], [e - 1, e - 1, -2, e]):
                expected = raised_message(from_indices_reference, e, indices)
                assert raised_message(EdgeSet.from_indices, g, indices) == expected


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

    def test_matches_per_bit_reference(self):
        # 181x181 is left out: its adjacency masks alone would take 0.5 GB.
        for g, masks in conversion_cases()[:-1]:
            for s, t in itertools.product(masks[:8], repeat=2):
                expected = sets_adjacent_reference(g, s, t)
                assert sets_adjacent(g, EdgeSet(g, s), EdgeSet(g, t)) == expected

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

    def test_matches_pair_loop(self):
        for g, r in super_line_cases():
            assert super_line_graph(g, r) == super_line_graph_naive(g, r), (g, r)

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

    def test_output_masks_on_first_access(self, covered):
        g = grid(GridSpec(2, 3))
        result, _ = super_line_graph(g, 2)
        assert covered == [g.edges]
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
        with pytest.raises(CapacityError):
            find_nonadjacent_pair(path(9), 3, pair_budget=1)

    def test_budget_is_the_masks_read_to_the_first_hit(self):
        # path(9) has 8 edges; e0, e1, e2 is the first 3-subset and already
        # has a partner, so the walk reads 3 masks, not the level's 56.
        g = path(9)
        witness = find_nonadjacent_pair(g, 3, pair_budget=3)
        assert (witness.S.indices(), witness.T.indices()) == find_pair_naive(g, 3)
        with pytest.raises(CapacityError) as info:
            find_nonadjacent_pair(g, 3, pair_budget=2)
        assert str(info.value) == (
            "the witness walk at level r = 3 reads more than the budget of 2 masks"
        )

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
        # 3x4 at r = 8 is complete, so the walk must rule out every one of
        # its C(17, 8) = 24,310 subsets; holding them would take megabytes.
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


class CountingMasks(tuple):
    """Edge-adjacency masks that count how often they are read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestPrunedWalk:
    """The walk over prefixes finds the same pair as a scan of every subset."""

    @pytest.mark.parametrize(
        "cols, rows", grids_with_at_most(20), ids=lambda value: str(value)
    )
    def test_equals_scan_at_every_level_of_grids(self, cols, rows):
        g = grid(GridSpec(cols, rows))
        for r in range(1, g.edge_count + 1):
            assert find_nonadjacent_pair(g, r) == first_witness_scan(g, r), r

    def test_equals_scan_at_every_level_of_random_graphs(self):
        for g in random_simple_graphs(300, max_edges=12):
            for r in range(1, g.edge_count + 1):
                assert find_nonadjacent_pair(g, r) == first_witness_scan(g, r), (g, r)

    @pytest.mark.parametrize("cols, rows, r", [(4, 5, 13), (3, 7, 13), (5, 5, 16)])
    def test_equals_scan_at_lc_minus_one_past_the_default_budget(self, cols, rows, r):
        # Each level holds more than 2^24 subsets, yet its walk fits the
        # default budget of 2^24 mask reads.
        g = grid(GridSpec(cols, rows))
        assert _lemma_lc(g)[0] == r + 1
        assert math.comb(g.edge_count, r) > DEFAULT_PAIR_BUDGET
        witness = find_nonadjacent_pair(g, r)
        assert witness == first_witness_scan(g, r)
        if (cols, rows) == (5, 5):
            assert witness.S.indices() == (*range(10), *range(20, 26))

    @staticmethod
    def counting_masks(monkeypatch, g: Graph) -> CountingMasks:
        """Make every read of ``Graph.edge_adjacency`` return ``g``'s masks, counted."""
        masks = CountingMasks(g.edge_adjacency)
        monkeypatch.setattr(Graph, "edge_adjacency", property(lambda graph: masks))
        return masks

    def counted(self, monkeypatch, cols: int, rows: int, r: int) -> tuple[WitnessPair | None, int]:
        g = grid(GridSpec(cols, rows))
        masks = self.counting_masks(monkeypatch, g)
        return find_nonadjacent_pair(g, r), masks.reads

    def test_prune_skips_most_of_a_complete_level(self, monkeypatch):
        # 4x4 at r = 11 is complete: C(24, 11) = 2,496,144 subsets, which a
        # scan would each build from 11 mask reads.  The walk reads 10,417.
        witness, reads = self.counted(monkeypatch, 4, 4, 11)
        assert witness is None
        assert reads <= 20_000

    def test_first_hit_is_reached_in_few_reads(self, monkeypatch):
        # 2x8 at r = 10: the walk reads 244 masks to its first hit.
        witness, reads = self.counted(monkeypatch, 2, 8, 10)
        assert witness.S.indices() == (0, 1, 2, 3, 8, 9, 10, 11, 12, 13)
        assert reads <= 1_000

    @pytest.mark.parametrize("g", [grid(GridSpec(2, 9)), path(27)], ids=["2x9", "path27"])
    def test_default_budget_decides_every_level_of_25_and_26_edges(self, g, monkeypatch):
        # No level of these graphs holds more subsets than the default
        # budget (C(26, 13) = 10,400,600), so none may be refused.  path(27)
        # reads the most, at level 13: 1,072,447 masks.
        masks = self.counting_masks(monkeypatch, g)
        reads = []
        for r in range(1, g.edge_count + 1):
            masks.reads = 0
            find_nonadjacent_pair(g, r)
            reads.append(masks.reads)
        assert max(reads) < DEFAULT_PAIR_BUDGET

    def test_walk_depth_is_not_bounded_by_recursion(self):
        # 1,500 disjoint edges: the walk goes 1,499 prefixes deep, past
        # Python's default recursion limit of 1,000.
        g = Graph.from_edges(3000, [(2 * i, 2 * i + 1) for i in range(1500)])
        result = lc_bruteforce(g)
        assert result.r == 1500
        witness = result.witness_at_r_minus_1
        assert witness.S.indices() == tuple(range(1499))
        assert witness.T.indices() == (*range(1498), 1499)


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

    def test_budget_refusal_reports_no_value(self):
        # The DP decides lc = 5 before any walk, but no value is reported
        # without its witness, so a refused walk raises.
        with pytest.raises(CapacityError):
            lc_bruteforce(grid(GridSpec(3, 3)), pair_budget=10)

    def test_budget_is_the_masks_the_witness_walk_reads(self):
        # lc(2x12) = 17; the walk reads 5,559 masks to its first hit at
        # level 16, which holds C(34, 16) = 2,203,961,430 subsets.
        # The pair is first_witness_scan's, which takes about 30 s of CPU.
        g = grid(GridSpec(2, 12))
        witness = lc_bruteforce(g, pair_budget=5_559).witness_at_r_minus_1
        assert witness.S.indices() == (*range(6), *range(12, 22))
        assert witness.T.indices() == (*range(6, 12), *range(24, 34))
        with pytest.raises(CapacityError) as info:
            lc_bruteforce(g, pair_budget=5_558)
        assert str(info.value) == (
            "the witness walk at level r = 16 reads more than the budget of 5558 masks"
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


def relabelled(g: Graph, seed: int) -> Graph:
    """An isomorphic copy with permuted vertex labels; edge i maps to edge i."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


class TestLemmaDP:
    """``lc_bruteforce`` takes lc from the lemma DP and scans level lc - 1 alone."""

    @pytest.mark.parametrize(
        "cols, rows", grids_with_at_most(20), ids=lambda value: str(value)
    )
    def test_equals_upward_scan_on_grids(self, cols, rows):
        g = grid(GridSpec(cols, rows))
        expected = lc_upward_scan(g)
        assert lc_bruteforce(g) == expected
        assert lc_grid_transfer(cols, rows) == expected.r

    def test_equals_upward_scan_on_random_graphs(self):
        for g in random_simple_graphs(400, max_edges=12):
            assert lc_bruteforce(g) == lc_upward_scan(g), g

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_vertices=7, max_edges=21))
    def test_equals_lemma_brute_force(self, g):
        assert _lemma_lc(g)[0] == lc_lemma_naive(g)

    @pytest.mark.parametrize(
        "vertices, edges",
        [
            (2, [(0, 1)]),
            (6, [(0, k) for k in range(1, 6)]),
            (3, [(0, 1), (1, 2), (0, 2)]),
            (7, [(0, 1), (1, 2), (0, 2)]),
        ],
        ids=["K_1,1", "K_1,5", "triangle", "triangle and isolated vertices"],
    )
    def test_no_two_disjoint_edges_gives_one(self, vertices, edges):
        # With nu <= 1 a state can have E[X] or E[Y], never both, so every
        # flagged state scores 0.
        g = Graph.from_edges(vertices, edges)
        assert _lemma_lc(g)[0] == lc_lemma_naive(g) == 1

    def test_triangle_with_pendants_reaches_nu_minus_one(self):
        # Pendant edges at one vertex of a triangle: nu = 2, and lc - 1 =
        # nu - 1 = 1 is reached by X and Y two disjoint edges.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5)])
        assert _lemma_lc(g)[0] == lc_lemma_naive(g) == 2

    @pytest.mark.parametrize(
        "corpus",
        [
            random_simple_graphs(300, max_edges=12),
            [Graph.from_edges(n + 1, [(0, k) for k in range(1, n + 1)]) for n in range(1, 8)],
            [Graph.from_edges(2 * n, [(2 * k, 2 * k + 1) for k in range(n)]) for n in range(1, 6)],
            [Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in range(2, 9)],
        ],
        ids=["random graphs", "stars K_1,n", "perfect matchings", "K_2 to K_8"],
    )
    def test_equals_lemma_brute_force_on_self_mirror_steps(self, corpus):
        # A frontier with no X or Y label is its own mirror, and its entry
        # merges the flagged bitset with its transpose.  Stars, matchings
        # and small dense graphs pass through many such frontiers.
        for g in corpus:
            assert _lemma_lc(g)[0] == lc_lemma_naive(g), g

    @pytest.mark.parametrize(
        "corpus",
        [
            random_simple_graphs(150, max_edges=9),
            [Graph.from_edges(n + 1, [(0, k) for k in range(1, n + 1)]) for n in range(1, 7)],
            [Graph.from_edges(2 * n, [(2 * k, 2 * k + 1) for k in range(n)]) for n in range(1, 5)],
            [Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in range(2, 6)],
        ],
        ids=["random graphs", "stars K_1,n", "perfect matchings", "K_2 to K_5"],
    )
    def test_final_flagged_bitset_is_every_lemma_point(self, corpus):
        # The final labelling is its own mirror, so its flagged bitset holds
        # the points of both orientations only if every self-mirror key on
        # the way merged p1 with its transpose q1.  The answer reads the
        # best point alone, and min(a, b) is symmetric, so only the exact
        # set shows a merge that is left out.
        for g in corpus:
            assert _lemma_points(g)[0] == lemma_points_naive(g), g

    def test_complete_graph_k10_is_decided(self):
        # Two disjoint K_5 give min(10, 10) + nu(empty) = 10 = lc - 1.
        g = Graph.from_edges(10, itertools.combinations(range(10), 2))
        assert _lemma_lc(g) == (11, 65_792)

    @pytest.mark.parametrize(
        "vertices, edges, peak",
        [
            (9, [*itertools.combinations(range(5), 2), (4, 5), (5, 6), (6, 7), (7, 8)], 92),
            (7, [(0, k) for k in range(1, 7)] + [(k, k + 1) for k in range(1, 6)] + [(1, 6)], 36),
        ],
        ids=["K_5 with a pendant path", "wheel on 7 vertices"],
    )
    def test_dense_and_sparse_steps_in_one_run(self, vertices, edges, peak):
        # Some steps of the wheel's run read few enough labels to keep a move
        # table per read signature, and some read too many and keep none.
        # K_5 with a pendant path keeps none: a path step reads one field,
        # 4 signatures, of only 3 keys (DONE, REST, and X with its mirror).
        g = Graph.from_edges(vertices, edges)
        assert _lemma_lc(g) == (lc_lemma_naive(g), peak)

    def test_dense_steps_keep_no_move_table(self):
        # On K_8 most labellings have a read signature of their own; a move
        # table kept for each of them would more than treble this peak.
        g = Graph.from_edges(8, itertools.combinations(range(8), 2))
        tracemalloc.start()
        try:
            assert _lemma_lc(g) == (7, 4_160)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "cols, rows, peak",
        [(6, 6, 2_080), (5, 10, 528), (6, 8, 2_080)],
        ids=["6x6", "5x10", "6x8"],
    )
    def test_equals_closed_form_under_the_default_cap(self, cols, rows, peak):
        assert _lemma_lc(grid(GridSpec(cols, rows))) == (lc_grid_formula(cols, rows)[0], peak)

    @pytest.mark.parametrize(
        "width, length",
        [(width, length) for width in range(1, 5) for length in range(width, 13)]
        + [(5, length) for length in range(5, 9)],
        ids=lambda value: str(value),
    )
    def test_equals_grid_transfer(self, width, length):
        # Both orientations of every grid of width <= 4 and length <= 12,
        # and of 5x5 to 5x8, against a reference that shares no code.
        expected = lc_grid_transfer(width, length)
        assert _lemma_lc(grid(GridSpec(width, length)))[0] == expected
        assert _lemma_lc(grid(GridSpec(length, width)))[0] == expected

    @pytest.mark.parametrize("cols, rows", [(3, 3), (2, 6), (3, 4), (4, 4)])
    def test_relabelled_grids_give_the_same_answer(self, cols, rows):
        g = grid(GridSpec(cols, rows))
        expected = lc_bruteforce(g)
        for seed in range(1, 4):
            result = lc_bruteforce(relabelled(g, seed))
            assert result.r == expected.r
            witness = result.witness_at_r_minus_1
            assert (witness.S.indices(), witness.T.indices()) == (
                expected.witness_at_r_minus_1.S.indices(),
                expected.witness_at_r_minus_1.T.indices(),
            )

    def test_peak_states_do_not_depend_on_the_numbering(self):
        # The visiting order comes from the graph, so every relabelled copy
        # holds the same entries.  These are the peaks README and ROADMAP
        # quote.
        g = grid(GridSpec(4, 4))
        peaks = [_lemma_lc(relabelled(g, seed) if seed else g)[1] for seed in range(4)]
        assert peaks == [136] * 4
        g = grid(GridSpec(5, 5))
        for seed in range(4):
            assert _lemma_lc(relabelled(g, seed) if seed else g) == (17, 528)

    def test_byte_budget_refuses_at_a_pinned_vertex(self, monkeypatch):
        # A 4x4 entry is charged 205 bytes plus three bitsets of
        # (decided + 1) * 25 bits, so 16 KiB holds the entries of the first
        # six vertices only.
        import gridlc.superline as superline

        monkeypatch.setattr(superline, "_BYTE_BUDGET", 2**14)
        with pytest.raises(CapacityError) as refused:
            _lemma_lc(grid(GridSpec(4, 4)))
        assert str(refused.value) == (
            "the lc dynamic program needs more than 16384 bytes at vertex 7 of 16"
        )

    def test_byte_budget_charges_the_transposed_bitsets(self, monkeypatch):
        # Vertex 7 of 4x4 holds 115 entries with 8 edges decided, each
        # charged 205 bytes plus three bitsets of 28 bytes: 33,235 bytes.
        # A charge of two bitsets an entry (30,015 bytes) would pass vertex
        # 7 under 32 KiB and refuse at vertex 8.
        import gridlc.superline as superline

        monkeypatch.setattr(superline, "_BYTE_BUDGET", 2**15)
        with pytest.raises(CapacityError) as refused:
            _lemma_lc(grid(GridSpec(4, 4)))
        assert str(refused.value) == (
            "the lc dynamic program needs more than 32768 bytes at vertex 7 of 16"
        )

    def test_byte_budget_is_exact(self, monkeypatch):
        # Vertices 12 and 13 of 4x4 hold the peak of 136 entries with 17 and
        # 18 edges decided, each entry charged 205 + 3 * 60 = 385 bytes: the
        # run's largest charge is 52,360 bytes.  One byte less admits 135
        # entries, so vertex 12 is refused.
        import gridlc.superline as superline

        monkeypatch.setattr(superline, "_BYTE_BUDGET", 52_360)
        assert _lemma_lc(grid(GridSpec(4, 4))) == (11, 136)
        monkeypatch.setattr(superline, "_BYTE_BUDGET", 52_359)
        with pytest.raises(CapacityError) as refused:
            _lemma_lc(grid(GridSpec(4, 4)))
        assert str(refused.value) == (
            "the lc dynamic program needs more than 52359 bytes at vertex 12 of 16"
        )

    def test_scans_only_level_lc_minus_one(self, monkeypatch):
        import gridlc.superline as superline

        scanned = []
        scan = superline.find_nonadjacent_pair
        monkeypatch.setattr(
            superline,
            "find_nonadjacent_pair",
            lambda g, r, **kwargs: scanned.append(r) or scan(g, r, **kwargs),
        )
        assert lc_bruteforce(grid(GridSpec(4, 4))).r == 11
        assert scanned == [10]

    def test_matching_of_many_edges_is_decided(self):
        # 200 disjoint edges: lc - 1 = 199, so level 199 holds C(200, 199)
        # = 200 subsets, where the upward scan would be refused at level 4.
        g = Graph.from_edges(400, [(2 * i, 2 * i + 1) for i in range(200)])
        result = lc_bruteforce(g)
        assert result.r == 200
        assert result.witness_at_r_minus_1.S.indices() == tuple(range(199))


def star(n: int) -> Graph:
    return Graph.from_edges(n + 1, [(0, k) for k in range(1, n + 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


#: A tree on which the relaxed bound (4) is above lc (3): the matching
#: number of G - X - Y falls short of half the rest.
LOOSE_TREE = Graph.from_edges(8, [(0, 1), (1, 2), (1, 3), (1, 4), (3, 5), (1, 6), (0, 7)])


def decided_graphs() -> list[Graph]:
    """Graphs whose exact lemma DP the tests run: grids, random graphs, stars,
    matchings, complete graphs, and the mixed graphs of ``TestLemmaDP``."""
    shapes = [(w, n) for w in range(1, 5) for n in range(w, 13)]
    shapes += [(5, n) for n in range(5, 9)] + [(6, 6), (5, 10), (6, 8)]
    return [
        *(grid(GridSpec(cols, rows)) for w, n in shapes for cols, rows in {(w, n), (n, w)}),
        *random_simple_graphs(400, max_edges=12),
        *(star(n) for n in range(1, 8)),
        *(Graph.from_edges(2 * n, [(2 * k, 2 * k + 1) for k in range(n)]) for n in range(1, 6)),
        *(complete(n) for n in range(2, 11)),
        Graph.from_edges(9, [*itertools.combinations(range(5), 2), (4, 5), (5, 6), (6, 7), (7, 8)]),
        Graph.from_edges(
            7, [(0, k) for k in range(1, 7)] + [(k, k + 1) for k in range(1, 6)] + [(1, 6)]
        ),
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5)]),
        LOOSE_TREE,
    ]


@pytest.fixture
def exact_runs(monkeypatch):
    """Each graph ``lc_bruteforce`` hands to the exact lemma DP, in order."""
    import gridlc.superline as superline

    graphs = []
    decide = superline._lemma_lc

    def spy(g, relaxed=False):
        if not relaxed:
            graphs.append(g)
        return decide(g, relaxed)

    monkeypatch.setattr(superline, "_lemma_lc", spy)
    return graphs


class TestRelaxedBound:
    """``lc_bruteforce`` decides lc by the relaxed lemma DP, confirmed by the
    walk at U - 1, and falls back to the exact DP when the walk cannot."""

    @pytest.mark.parametrize(
        "corpus",
        [
            random_simple_graphs(250, max_edges=12),
            [star(n) for n in range(1, 8)],
            [Graph.from_edges(2 * n, [(2 * k, 2 * k + 1) for k in range(n)]) for n in range(1, 5)],
            [complete(n) for n in range(2, 8)],
            [grid(GridSpec(cols, rows)) for cols, rows in [(2, 2), (2, 3), (3, 2), (1, 9)]],
        ],
        ids=["random graphs", "stars K_1,n", "perfect matchings", "K_2 to K_7", "small grids"],
    )
    def test_equals_naive_splits(self, corpus):
        # The bound and every point of the final flagged bitset, against
        # every split of the vertices; the bitset shows a row overlap or a
        # missed mirror merge that the bound alone would hide.
        for g in corpus:
            bound, bits = lemma_bound_naive(g)
            assert _lemma_lc(g, relaxed=True)[0] == bound, g
            assert _lemma_points(g, relaxed=True)[0] == bits, g

    def test_bound_is_at_least_lc(self):
        for g in decided_graphs():
            assert _lemma_lc(g, relaxed=True)[0] >= _lemma_lc(g)[0], g

    def test_equals_exact_dp_then_walk(self):
        # The value and the witness are those of the exact DP and the walk
        # at lc - 1, whichever path lc_bruteforce takes, on every graph
        # whose walk the tests run under the default budget.
        walked = [
            *(grid(GridSpec(cols, rows)) for cols, rows in grids_with_at_most(20)),
            *(grid(GridSpec(n, n)) for n in (5, 6, 7)),
            *(g for g in decided_graphs() if g.edge_count <= 16),
        ]
        for g in walked:
            r, _ = _lemma_lc(g)
            witness = find_nonadjacent_pair(g, r - 1) if r >= 2 else None
            assert lc_bruteforce(g) == (r, witness), g

    @pytest.mark.parametrize(
        "g, exact, relaxed",
        [(star(3), 1, 2), (star(5), 1, 3), (LOOSE_TREE, 3, 4)],
        ids=["K_1,3", "K_1,5", "tree"],
    )
    def test_unconfirmed_bound_falls_back(self, g, exact, relaxed, exact_runs):
        assert _lemma_lc(g, relaxed=True)[0] == relaxed
        assert lc_bruteforce(g).r == exact
        assert exact_runs == [g]

    @pytest.mark.parametrize(
        "cols, rows", [(3, 3), (2, 6), (3, 4), (3, 5), (2, 8), (4, 4), (20, 1)]
    )
    def test_benchmark_graphs_are_confirmed(self, cols, rows, exact_runs):
        # The oracle benchmark's graphs never reach the exact DP.
        g = grid(GridSpec(cols, rows))
        assert lc_bruteforce(g).r == _lemma_lc(g)[0]
        assert exact_runs == []

    def test_walk_past_the_cap_falls_back(self, exact_runs, monkeypatch):
        # lc(2x12) = 17 is confirmed at 5,559 reads; a cap one below that
        # hands the grid to the exact DP, which walks within pair_budget.
        import gridlc.superline as superline

        g = grid(GridSpec(2, 12))
        expected = lc_bruteforce(g)
        assert exact_runs == []
        monkeypatch.setattr(superline, "_CONFIRM_READS", 5_558)
        assert lc_bruteforce(g) == expected
        assert exact_runs == [g]

    def test_walk_budget_error_is_the_exact_paths(self, exact_runs):
        # 6x5 (lc = 23) is refused on the walk at level 22 both times.
        g = grid(GridSpec(6, 5))
        with pytest.raises(CapacityError) as refused:
            lc_bruteforce(g, pair_budget=1_000)
        assert str(refused.value) == (
            "the witness walk at level r = 22 reads more than the budget of 1000 masks"
        )
        assert exact_runs == [g]

    @pytest.mark.parametrize(
        "cols, rows, message",
        [
            (9, 9, "at vertex 29 of 81"),
            (181, 181, "at vertex 11 of 32761"),
        ],
        ids=["9x9", "181x181"],
    )
    def test_dp_budget_error_is_the_exact_dps(self, cols, rows, message, exact_runs):
        # The relaxed DP passes the budget first (9x9 at vertex 37), and
        # the exact DP's refusal is the one reported.
        g = grid(GridSpec(cols, rows))
        with pytest.raises(CapacityError) as refused:
            lc_bruteforce(g)
        assert str(refused.value) == (
            f"the lc dynamic program needs more than 67108864 bytes {message}"
        )
        assert exact_runs == [g]

    def test_grid_8x8_is_decided(self):
        # The exact DP passes the budget at vertex 30 of 64; the relaxed DP
        # peaks at 3,281 entries, and the walk confirms the closed form.
        g = grid(GridSpec(8, 8))
        assert _lemma_lc(g, relaxed=True) == (53, 3_281)
        result = lc_bruteforce(g)
        assert result.r == lc_grid_formula(8, 8)[0] == 53
        assert result.witness_at_r_minus_1 == find_nonadjacent_pair(g, 52)

    def test_byte_budget_is_exact(self, monkeypatch):
        # Vertex 13 of 4x4 holds the relaxed peak of 41 entries with 18
        # edges decided, so a point's row is below min(2 * 18 + 13, 49) + 2
        # = 51 rows of W = 26 bits: each entry is charged 205 + 3 * 176 =
        # 733 bytes, 30,053 in all.  One byte less admits 40 entries.
        import gridlc.superline as superline

        monkeypatch.setattr(superline, "_BYTE_BUDGET", 30_053)
        assert _lemma_lc(grid(GridSpec(4, 4)), relaxed=True) == (11, 41)
        monkeypatch.setattr(superline, "_BYTE_BUDGET", 30_052)
        with pytest.raises(CapacityError) as refused:
            _lemma_lc(grid(GridSpec(4, 4)), relaxed=True)
        assert str(refused.value) == (
            "the lc dynamic program needs more than 30052 bytes at vertex 13 of 16"
        )

    @pytest.mark.parametrize(
        "g, peak",
        [
            (grid(GridSpec(4, 4)), 41),
            (grid(GridSpec(7, 7)), 1_094),
            (complete(10), 9_842),
        ],
        ids=["4x4", "7x7", "K_10"],
    )
    def test_peaks(self, g, peak):
        # Three values a field, stored with the mirror: (3^f + 1) / 2 keys
        # for a frontier of f fields.
        assert _lemma_lc(g, relaxed=True) == (_lemma_lc(g)[0], peak)


class TestFrontierSteps:
    """The lemma DP's visit keeps its bookkeeping across steps; a reference
    that works out every step afresh yields the same steps."""

    @staticmethod
    def assert_same_steps(g: Graph, steps: int | None = None) -> None:
        expected = list(itertools.islice(frontier_steps_reference(g), steps))
        assert list(itertools.islice(_frontier_steps(g), steps)) == expected, g

    def test_random_graphs(self):
        for g in random_simple_graphs(300, max_edges=14):
            self.assert_same_steps(g)

    @pytest.mark.parametrize("cols", range(1, 7))
    def test_grids_in_two_numberings(self, cols):
        for rows in range(1, 7):
            g = grid(GridSpec(cols, rows))
            self.assert_same_steps(g)
            self.assert_same_steps(relabelled(g, 10 * cols + rows))

    def test_complete_graphs(self):
        for n in range(2, 10):
            self.assert_same_steps(Graph.from_edges(n, itertools.combinations(range(n), 2)))

    def test_components_and_isolated_vertices(self):
        # Each component starts from an empty frontier; 2, 6, 7 and 11 have
        # no edge and are never visited.
        g = Graph.from_edges(12, [(0, 1), (3, 4), (4, 5), (9, 10), (8, 9)])
        self.assert_same_steps(g)
        assert [v for v, *_ in _frontier_steps(g)] == [0, 1, 3, 4, 5, 8, 9, 10]

    def test_first_steps_of_the_largest_grid(self):
        # Both sides yield one step at a time, so the 32,761 vertices of
        # 181x181 are not ordered whole before the first step.
        self.assert_same_steps(grid(GridSpec(181, 181)), 60)


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

    def test_witness_pair_constructor_rejects_sets_of_different_graphs(self):
        first, second = EdgeSet.from_indices(path(5), [0]), EdgeSet.from_indices(path(6), [2])
        with pytest.raises(ValueError, match="^witness sets belong to different graphs$"):
            WitnessPair(first, second, 1)

    def test_witness_pair_constructor_rejects_wrong_size(self):
        g = path(5)
        with pytest.raises(ValueError):
            WitnessPair(EdgeSet.from_indices(g, [0]), EdgeSet.from_indices(g, [2]), 2)

    @given(graphs(max_edges=8, min_edges=1))
    def test_r1_matches_line_graph(self, g):
        sl, _ = super_line_graph(g, 1)
        assert sl == line_graph_naive(g)
