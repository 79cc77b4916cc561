import io
import json

import pytest

from gridlc import parse_edge_list, path, write_edge_list
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

    def test_missing_input_exit_2(self, capsys):
        code, _, err = run(capsys, "lc-brute", "--input", "/nonexistent/file.edges")
        assert code == 2

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
