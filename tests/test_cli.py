import io
import json
import sys
import tracemalloc

import pytest

from gridlc import (
    GridSpec,
    best_slicing,
    grid,
    parse_edge_list,
    path,
    read_edge_list,
    slicing_to_dict,
    super_line_graph,
    write_edge_list,
)
import gridlc.graph
from gridlc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLcFormula:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "lc-formula", "--cols", "6", "--rows", "4")
        assert code == 0
        assert out == "18 (both_even)\n"

    def test_trivial_grid(self, capsys):
        code, out, _ = run(capsys, "lc-formula", "--cols", "1", "--rows", "1")
        assert code == 0
        assert out == "0 (trivial_1x1)\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "lc-formula", "--cols", "5", "--rows", "4", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"lc": 14, "case": "opposite_parity", "cols": 5, "rows": 4}

    def test_invalid_dimensions_exit_2(self, capsys):
        code, _, err = run(capsys, "lc-formula", "--cols", "0", "--rows", "4")
        assert code == 2
        assert "error" in err


class TestLcBrute:
    def test_path_flag(self, capsys):
        code, out, _ = run(capsys, "lc-brute", "--path", "5")
        assert code == 0
        assert "lc = 2 (brute-force)" in out
        assert "S = {e0}, T = {e2}" in out

    def test_grid_flag(self, capsys):
        code, out, _ = run(capsys, "lc-brute", "--grid", "2", "3")
        assert code == 0
        assert "lc = 3" in out

    def test_input_file(self, capsys, tmp_path, diamond):
        source = tmp_path / "diamond.edges"
        write_edge_list(diamond, source)
        code, out, _ = run(capsys, "lc-brute", "--input", str(source))
        assert code == 0
        assert "lc = 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "lc-brute", "--path", "5", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lc"] == 2
        assert payload["method"] == "brute-force"
        assert payload["witness"] == {"r": 1, "S": [0], "T": [2]}

    def test_edgeless_graph(self, capsys):
        code, out, _ = run(capsys, "lc-brute", "--grid", "1", "1")
        assert code == 0
        assert "lc = 0" in out
        assert "witness: none" in out

    def test_budget_exhaustion_exit_3(self, capsys):
        code, _, err = run(capsys, "lc-brute", "--grid", "3", "3", "--pair-budget", "5")
        assert code == 3
        assert "budget" in err

    def test_grid_3x5_under_default_budget(self, capsys):
        # The two witness sets share e4: overlapping subsets may still be
        # non-adjacent.
        code, out, _ = run(capsys, "lc-brute", "--grid", "3", "5")
        assert code == 0
        assert out == (
            "lc = 9 (brute-force)\n"
            "witness at r = 8: S = {e0, e1, e2, e3, e4, e10, e11, e12}, "
            "T = {e4, e6, e7, e8, e9, e18, e19, e20}\n"
        )

    def test_grid_5x5_refused_under_default_budget(self, capsys):
        code, out, err = run(capsys, "lc-brute", "--grid", "5", "5")
        assert code == 3
        assert out == ""
        assert err == (
            "error: level r = 7 needs 18643560 subsets; 4598478 of the budget "
            "of 16777216 are already charged\n"
        )

    def test_missing_input_exit_2(self, capsys):
        code, _, err = run(capsys, "lc-brute", "--input", "/nonexistent/file.edges")
        assert code == 2

    @pytest.mark.parametrize(
        "source", [["--path", "1000000000"], ["--grid", "100000", "100000"]], ids=["path", "grid"]
    )
    def test_oversized_graph_exit_3_before_building(self, capsys, source):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "lc-brute", *source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "edges, beyond the cap" in err
        assert peak < 2**20

    def test_huge_vertex_count_without_edges(self, capsys, tmp_path):
        source = tmp_path / "huge.edges"
        source.write_text("p 1000000000000000 0\n")
        code, out, _ = run(capsys, "lc-brute", "--input", str(source))
        assert code == 0
        assert "lc = 0 (brute-force)" in out


class TestSuperline:
    def test_writes_edge_list_and_labels(self, capsys, tmp_path):
        source = tmp_path / "p5.edges"
        write_edge_list(path(5), source)
        out_file = tmp_path / "l2.edges"
        code, out, _ = run(
            capsys, "superline", "--index", "2",
            "--input", str(source), "--out", str(out_file),
        )
        assert code == 0
        result = parse_edge_list(out_file.read_text())
        assert result.vertex_count == 6
        assert result.edge_count == 15
        labels = (tmp_path / "l2.edges.labels").read_text().splitlines()
        assert labels[0] == "0: e0,e1"
        assert labels[-1] == "5: e2,e3"

    def test_grid_4x4_index_2_round_trips(self, capsys, tmp_path):
        source = tmp_path / "grid4x4.edges"
        write_edge_list(grid(GridSpec(4, 4)), source)
        out_file = tmp_path / "l2.edges"
        code, _, _ = run(
            capsys, "superline", "--index", "2",
            "--input", str(source), "--out", str(out_file),
        )
        assert code == 0
        written = read_edge_list(out_file, edge_cap=None)
        expected, _ = super_line_graph(grid(GridSpec(4, 4)), 2)
        assert written == expected
        assert written.edge_count == 21_355

    def test_vertex_cap_exit_3(self, capsys, tmp_path):
        source = tmp_path / "p9.edges"
        write_edge_list(path(9), source)
        code, _, err = run(
            capsys, "superline", "--index", "4", "--input", str(source),
            "--out", str(tmp_path / "out.edges"), "--vertex-cap", "10",
        )
        assert code == 3
        assert "70" in err  # C(8, 4)


class TestSliceAndVerify:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "slice", "--cols", "6", "--rows", "4")
        assert code == 0
        document = tmp_path / "slicing.json"
        document.write_text(out)
        code, out, _ = run(capsys, "verify", "--slicing", str(document))
        assert code == 0
        assert "all 5 checks passed" in out

    def test_verify_builds_the_grid_twice(self, capsys, tmp_path, monkeypatch):
        # Once to read the document and once inside verify_slicing, which
        # rebuilds the grid as the independent judge.
        document = tmp_path / "slicing.json"
        document.write_text(json.dumps(slicing_to_dict(best_slicing(GridSpec(6, 4)))))
        real_grid, built = gridlc.graph.grid, []

        def counting_grid(spec):
            built.append(spec)
            return real_grid(spec)

        # vars(), not getattr(): the lazy package resolves names it does not hold.
        for name, module in list(sys.modules.items()):
            if name.startswith("gridlc") and vars(module).get("grid") is real_grid:
                monkeypatch.setattr(module, "grid", counting_grid)
        code, out, _ = run(capsys, "verify", "--slicing", str(document))
        assert code == 0
        assert "all 5 checks passed" in out
        assert built == [GridSpec(6, 4)] * 2

    def test_explicit_axis(self, capsys):
        code, out, _ = run(capsys, "slice", "--cols", "6", "--rows", "4", "--axis", "horizontal")
        assert code == 0
        assert json.loads(out)["orientation"] == "horizontal"

    def test_verify_json_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "slice", "--cols", "7", "--rows", "5")
        document = tmp_path / "slicing.json"
        document.write_text(out)
        code, out, _ = run(capsys, "verify", "--slicing", str(document), "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 5

    def test_verify_tampered_exit_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "slice", "--cols", "6", "--rows", "4")
        data = json.loads(out)
        moved = data["R"].pop(0)
        data["A"].append(moved)
        document = tmp_path / "bad.json"
        document.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--slicing", str(document))
        assert code == 1
        assert "FAIL" in out

    def test_verify_reads_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "slice", "--cols", "3", "--rows", "2")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "verify", "--slicing", "-")
        assert code == 0

    def test_verify_malformed_json_exit_2(self, capsys, tmp_path):
        document = tmp_path / "broken.json"
        document.write_text("{not json")
        code, _, err = run(capsys, "verify", "--slicing", str(document))
        assert code == 2

    @pytest.mark.parametrize(
        "side", ["ab", [1.5], [True], {"0": 1}], ids=["str", "float", "bool", "dict"]
    )
    def test_verify_mistyped_side_exit_2(self, capsys, tmp_path, side):
        code, out, _ = run(capsys, "slice", "--cols", "3", "--rows", "2")
        data = json.loads(out)
        data["A"] = side
        document = tmp_path / "mistyped.json"
        document.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--slicing", str(document))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("cols", 3.9), ("rows", 2.0), ("rows", True), ("cols", "3")],
        ids=["float", "integral-float", "bool", "str"],
    )
    def test_verify_mistyped_grid_size_exit_2(self, capsys, tmp_path, field, value):
        code, out, _ = run(capsys, "slice", "--cols", "3", "--rows", "2")
        data = json.loads(out)
        data["spec"][field] = value
        document = tmp_path / "mistyped.json"
        document.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--slicing", str(document))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"spec.{field}" in err

    # 40000x40000 would have 3.2e9 edges.  Building the 65,884 edges of
    # 182x182 peaks near 26 MiB, so the bound shows that no grid edge was built.
    @pytest.mark.parametrize("side, bound", [(40000, 4 * 2**20), (182, 4 * 2**20)])
    def test_oversized_grid_exit_3_before_building(self, capsys, tmp_path, side, bound):
        document = tmp_path / "huge.json"
        document.write_text(json.dumps(
            {"spec": {"cols": side, "rows": side}, "orientation": "vertical",
             "A": [], "B": [], "R": []}
        ))
        tracemalloc.start()
        try:
            results = [
                run(capsys, "slice", "--cols", str(side), "--rows", str(side)),
                run(capsys, "verify", "--slicing", str(document)),
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for code, out, err in results:
            assert code == 3
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "edges, beyond the cap" in err
        assert peak < bound

    def test_slice_infeasible_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "slice", "--cols", "1", "--rows", "5", "--axis", "vertical")
        assert code == 2


class TestXcheck:
    def test_small_sweep_text(self, capsys):
        code, out, _ = run(capsys, "xcheck", "--max-edges", "8")
        assert code == 0
        assert "all" in out and "agree" in out
        assert " 2    2     4       2      2 yes" in out

    def test_small_sweep_json(self, capsys):
        code, out, _ = run(capsys, "xcheck", "--max-edges", "5", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_agree"] is True
        assert {"cols": 2, "rows": 2, "edges": 4, "formula": 2, "oracle": 2, "agree": True} in payload["grids"]

    def test_formula_defect_at_3x3_is_reported(self, capsys):
        # the 3x3 grid is the one known size where the closed form (4)
        # undercounts the enumerated value (5); the sweep must flag it
        code, out, _ = run(capsys, "xcheck", "--max-edges", "12")
        assert code == 1
        assert "MISMATCH" in out
        assert "3x3" in out

    def test_refused_grid_ends_the_sweep_before_larger_grids_are_listed(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "xcheck", "--max-edges", "100000", "--pair-budget", "1000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget of 1000" in err
        assert peak < 4 * 2**20


class TestParsing:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["lc-formula", "--cols", "3"])
        assert info.value.code == 2

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["lc-brute", "--path", "5", "--pair-budget", "0"])
        assert info.value.code == 2
