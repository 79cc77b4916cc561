import json
import time

import pytest

from gridlc import (
    EdgeSet,
    GridSpec,
    Orientation,
    Slicing,
    WitnessPair,
    best_slicing,
    find_nonadjacent_pair,
    grid,
    lc_grid_formula,
    sets_adjacent,
    slice_grid,
    slicing_from_dict,
    slicing_to_dict,
    verify_slicing,
)
from gridlc.slicing import expected_removed_count
from support import subsets_adjacent_naive, touching_pair_naive


class TestSliceGrid:
    def test_even_columns_straight_cut(self):
        s = slice_grid(GridSpec(6, 4), "vertical")
        assert s.orientation == Orientation.VERTICAL
        assert s.A.cardinality == s.B.cardinality == 17
        # the four horizontal edges crossing between columns 2 and 3
        assert s.R.indices() == (2, 7, 12, 17)

    def test_both_odd_isolates_centre_cell(self):
        s = slice_grid(GridSpec(7, 5), "vertical")
        assert s.orientation == Orientation.ALMOST_VERTICAL
        assert s.A.cardinality == s.B.cardinality == 25
        assert s.R.cardinality == 8  # rows + 3

    def test_zigzag_cut_golden(self):
        s = slice_grid(GridSpec(3, 2), "vertical")
        assert s.A.indices() == (0, 4)
        assert s.B.indices() == (3, 6)
        assert s.R.indices() == (1, 2, 5)

    def test_square_split_into_opposite_edges(self):
        s = slice_grid(GridSpec(2, 2), "vertical")
        assert s.A.cardinality == s.B.cardinality == 1
        assert s.R.cardinality == 2

    def test_three_by_three_golden(self):
        s = slice_grid(GridSpec(3, 3), "vertical")
        assert s.A.indices() == (0, 6, 9)
        assert s.B.indices() == (5, 8, 11)
        assert s.R.indices() == (1, 2, 3, 4, 7, 10)

    def test_horizontal_is_transpose_of_vertical(self):
        v = slice_grid(GridSpec(6, 4), "vertical")
        h = slice_grid(GridSpec(4, 6), "horizontal")
        assert v.A.cardinality == h.A.cardinality
        assert v.R.cardinality == h.R.cardinality

    def test_single_row_even_cut_is_allowed(self):
        s = slice_grid(GridSpec(4, 1), "vertical")
        assert s.A.indices() == (0,)
        assert s.B.indices() == (2,)
        assert s.R.indices() == (1,)

    def test_infeasible_axes(self):
        with pytest.raises(ValueError):
            slice_grid(GridSpec(1, 5), "vertical")
        with pytest.raises(ValueError):
            slice_grid(GridSpec(5, 1), "horizontal")
        with pytest.raises(ValueError):
            slice_grid(GridSpec(3, 1), "vertical")  # zigzag needs 2 rows
        with pytest.raises(ValueError):
            slice_grid(GridSpec(3, 3), "sideways")

    @pytest.mark.parametrize("cols", range(2, 13))
    @pytest.mark.parametrize("rows", range(2, 13))
    def test_removed_counts_per_parity_class(self, cols, rows):
        spec = GridSpec(cols, rows)
        vertical = slice_grid(spec, "vertical")
        horizontal = slice_grid(spec, "horizontal")
        if cols % 2 == 0:
            assert vertical.R.cardinality == rows
        elif rows % 2 == 0:
            assert vertical.R.cardinality == rows + 1
        else:
            assert vertical.R.cardinality == rows + 3
        if rows % 2 == 0:
            assert horizontal.R.cardinality == cols
        elif cols % 2 == 0:
            assert horizontal.R.cardinality == cols + 1
        else:
            assert horizontal.R.cardinality == cols + 3
        assert vertical.R.cardinality == expected_removed_count(spec, vertical.orientation)
        assert horizontal.R.cardinality == expected_removed_count(spec, horizontal.orientation)


class TestBestSlicing:
    def test_prefers_larger_side(self):
        s = best_slicing(GridSpec(6, 4))
        assert s.orientation == Orientation.VERTICAL
        assert s.A.cardinality == 17

    def test_tie_breaks_toward_vertical(self):
        assert best_slicing(GridSpec(4, 4)).orientation == Orientation.VERTICAL
        assert best_slicing(GridSpec(3, 3)).orientation == Orientation.ALMOST_VERTICAL
        # opposite-parity tie: both axes reach 13 on a 5x4 grid
        s = best_slicing(GridSpec(5, 4))
        assert s.A.cardinality == 13
        assert s.orientation == Orientation.ALMOST_VERTICAL

    def test_three_by_three(self):
        s = best_slicing(GridSpec(3, 3))
        assert s.A.cardinality == 3
        assert s.R.cardinality == 6

    def test_rejects_path_specs(self):
        with pytest.raises(ValueError):
            best_slicing(GridSpec(1, 9))
        with pytest.raises(ValueError):
            best_slicing(GridSpec(9, 1))

    @pytest.mark.parametrize("cols", range(2, 13))
    @pytest.mark.parametrize("rows", range(2, 13))
    def test_side_plus_one_matches_formula(self, cols, rows):
        s = best_slicing(GridSpec(cols, rows))
        assert s.A.cardinality + 1 == lc_grid_formula(cols, rows)[0]


class TestVerifySlicing:
    @pytest.mark.parametrize("cols,rows", [(6, 4), (7, 5), (2, 2), (5, 4), (4, 1)])
    def test_constructed_slicings_pass(self, cols, rows):
        spec = GridSpec(cols, rows)
        slicing = slice_grid(spec, "vertical")
        report = verify_slicing(grid(spec), slicing)
        assert report.all_passed, [c for c in report.checks if not c.passed]
        assert [c.name for c in report.checks] == [
            "partition", "non_adjacency", "equal_sides", "removed_count", "formula_bound",
        ]

    @pytest.mark.parametrize("cols", range(2, 9))
    @pytest.mark.parametrize("rows", range(2, 9))
    def test_non_adjacency_detail_matches_double_loop(self, cols, rows):
        # Each removed edge moves into A alone, then into A and B at once;
        # an edge in both sides is never counted as touching itself.
        spec = GridSpec(cols, rows)
        g = grid(spec)
        good = best_slicing(spec)
        for moved in good.R.indices():
            bit = 1 << moved
            for b_bits in (good.B.bits, good.B.bits | bit):
                a, b = EdgeSet(g, good.A.bits | bit), EdgeSet(g, b_bits)
                bad = Slicing(spec, good.orientation, a, b, EdgeSet(g, good.R.bits & ~bit))
                offender = touching_pair_naive(g, a.indices(), b.indices())
                if offender is None:
                    detail = f"checked {a.cardinality} x {b.cardinality} edge pairs, none share a vertex"
                else:
                    i, j = offender
                    detail = f"A edge {i} {g.edges[i]} shares a vertex with B edge {j} {g.edges[j]}"
                check = verify_slicing(g, bad).checks[1]
                assert (check.name, check.passed, check.detail) == (
                    "non_adjacency", offender is None, detail,
                )

    def test_non_adjacency_reports_the_smallest_touching_b_edge(self):
        # A edge 2 = (3, 4) of the 3x3 grid touches B edge 6 = (0, 3) at its
        # first endpoint and B edge 3 = (4, 5) at its second.
        spec = GridSpec(3, 3)
        g = grid(spec)
        sides = [EdgeSet.from_indices(g, s) for s in ([2], [3, 6], [0, 1, 4, 5, 7, 8, 9, 10, 11])]
        check = verify_slicing(g, Slicing(spec, Orientation.VERTICAL, *sides)).checks[1]
        assert touching_pair_naive(g, [2], [3, 6]) == (2, 3)
        assert check.detail == "A edge 2 (3, 4) shares a vertex with B edge 3 (4, 5)"

    def test_large_grid_verifies_in_linear_time(self):
        # An |A| x |B| endpoint double loop takes several seconds here.
        spec = GridSpec(100, 100)
        g, slicing = grid(spec), best_slicing(spec)
        started = time.process_time()
        report = verify_slicing(g, slicing)
        elapsed = time.process_time() - started
        assert report.all_passed
        assert elapsed < 1.0

    def test_tampered_slicing_rejected(self):
        spec = GridSpec(6, 4)
        g = grid(spec)
        good = slice_grid(spec, "vertical")
        moved = good.R.indices()[0]
        bad = Slicing(
            spec,
            good.orientation,
            EdgeSet(g, good.A.bits | (1 << moved)),
            good.B,
            EdgeSet(g, good.R.bits & ~(1 << moved)),
        )
        report = verify_slicing(g, bad)
        assert not report.all_passed
        by_name = {c.name: c.passed for c in report.checks}
        assert not (by_name["non_adjacency"] and by_name["removed_count"])

    def test_suboptimal_axis_fails_only_formula_bound(self):
        spec = GridSpec(6, 4)
        report = verify_slicing(grid(spec), slice_grid(spec, "horizontal"))
        by_name = {c.name: c.passed for c in report.checks}
        assert by_name["partition"] and by_name["non_adjacency"]
        assert by_name["equal_sides"] and by_name["removed_count"]
        assert not by_name["formula_bound"]

    def test_graph_spec_mismatch_rejected(self):
        slicing = slice_grid(GridSpec(6, 4), "vertical")
        with pytest.raises(ValueError):
            verify_slicing(grid(GridSpec(3, 3)), slicing)

    @pytest.mark.parametrize("cols", range(2, 13))
    @pytest.mark.parametrize("rows", range(2, 13))
    def test_best_slicing_sweep(self, cols, rows):
        spec = GridSpec(cols, rows)
        report = verify_slicing(grid(spec), best_slicing(spec))
        assert report.all_passed


class TestSlicingAsWitness:
    def test_sides_form_a_witness_pair(self):
        spec = GridSpec(3, 2)
        g = grid(spec)
        s = best_slicing(spec)
        assert not sets_adjacent(g, s.A, s.B)
        assert not subsets_adjacent_naive(g, s.A.indices(), s.B.indices())
        pair = WitnessPair(s.A, s.B, s.A.cardinality)
        assert find_nonadjacent_pair(g, pair.r) is not None

    @pytest.mark.parametrize("cols,rows", [(2, 2), (3, 2), (2, 4), (3, 3)])
    def test_oracle_confirms_incompleteness_at_side_size(self, cols, rows):
        spec = GridSpec(cols, rows)
        g = grid(spec)
        s = best_slicing(spec)
        assert find_nonadjacent_pair(g, s.A.cardinality) is not None


class TestSerialization:
    def test_round_trip(self):
        slicing = best_slicing(GridSpec(6, 4))
        data = json.loads(json.dumps(slicing_to_dict(slicing)))
        assert slicing_from_dict(data) == slicing

    def test_dict_shape(self):
        data = slicing_to_dict(slice_grid(GridSpec(2, 2), "vertical"))
        assert data == {
            "spec": {"cols": 2, "rows": 2},
            "orientation": "vertical",
            "A": [2],
            "B": [3],
            "R": [0, 1],
        }

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            slicing_from_dict({"spec": {"cols": 2}})
        with pytest.raises(ValueError):
            slicing_from_dict(
                {"spec": {"cols": 2, "rows": 2}, "orientation": "diagonal",
                 "A": [], "B": [], "R": []}
            )
        with pytest.raises(ValueError):
            slicing_from_dict(
                {"spec": {"cols": 2, "rows": 2}, "orientation": "vertical",
                 "A": [99], "B": [], "R": []}
            )
