import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlc import (
    GridSpec,
    best_slicing,
    format_edge_list,
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
from support import graphs


SRC = Path(gridlc.__file__).resolve().parent.parent


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

    def test_verify_deeply_nested_document_exit_2(self, tmp_path):
        # A fresh interpreter, so that an escaping RecursionError would show
        # as the traceback and exit 1 that a user sees.
        document = tmp_path / "deep.json"
        document.write_text("[" * 100_000 + "]" * 100_000)
        done = subprocess.run(
            [sys.executable, "-m", "gridlc.cli", "verify", "--slicing", str(document)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: malformed slicing document: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

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


# JSON values of every type, nested, to put in place of a field.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)
DOCUMENT_FIELDS = ("spec", "spec.cols", "spec.rows", "orientation", "A", "B", "R")


@st.composite
def slicing_documents(draw):
    """The best slicing of a grid of at most 5x5 with some fields broken."""
    data = slicing_to_dict(best_slicing(GridSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5)))))
    for field in draw(st.sets(st.sampled_from(DOCUMENT_FIELDS), max_size=3)):
        *parents, key = field.split(".")
        holder = data.get("spec") if parents else data
        if not isinstance(holder, dict):
            continue
        if draw(st.booleans()):
            holder.pop(key, None)
            continue
        holder[key] = draw(st.one_of(
            json_values,
            st.integers(-2, 6) | st.just(10**6),
            st.sampled_from(["vertical", "horizontal", "diagonal"]),
            st.lists(st.integers(-3, 45), max_size=25),
        ))
    sides = [data.get("A"), data.get("R")]
    if draw(st.booleans()) and all(isinstance(side, list) for side in sides) and sides[1]:
        data["A"].append(data["R"].pop())
    return json.dumps(data)


@st.composite
def edge_lists(draw):
    """An edge list of at most 10 edges, with up to two lines replaced by noise.

    The noise holds no newline, so no more than 10 lines follow the header
    and no graph that parses has more than 10 edges.
    """
    lines = format_edge_list(draw(graphs())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.one_of(
            st.text(alphabet="p -#x0123456789", max_size=8),
            st.sampled_from(["p 1000000000000000 0", "p -1 0", "p 4 11", "0 0", "1 0"]),
        ))
    return "\n".join(lines)


def run_in_dir(directory, argv):
    """``main(argv)`` in ``directory``, counting argparse's exit as an exit code."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


class TestExitCodeFuzz:
    """Malformed input ends in an exit code of the contract, never a traceback.

    Exits 2 and 3 print exactly one ``error:`` line, exits 0 and 1 none.
    """

    def check(self, document: str, argv: list[str]) -> None:
        with tempfile.TemporaryDirectory() as directory:
            Path(directory, "input").write_text(document, encoding="utf-8")
            code, _, err = run_in_dir(directory, argv)
        assert code in (0, 1, 2, 3)
        assert err.count("error:") == (1 if code in (2, 3) else 0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(slicing_documents(), json_values.map(json.dumps), st.text(max_size=20)))
    def test_verify(self, document):
        self.check(document, ["verify", "--slicing", "input"])

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_lc_brute(self, document):
        self.check(document, ["lc-brute", "--input", "input"])

    @settings(max_examples=100, deadline=None)
    @given(edge_lists())
    def test_superline(self, document):
        self.check(document, ["superline", "--index", "2", "--input", "input", "--out", "out"])


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


# Every command's stdout, byte for byte, with its exit code and the files it
# writes.  Long outputs are stored as their SHA-256.  Each case runs in a
# directory that holds p5.edges (path(5)), slicing.json (the best slicing of
# 6x4) and tampered.json (the same with R[0] moved into A).
FROZEN = [
    (["lc-formula", "--cols", "6", "--rows", "4"], 0, "18 (both_even)\n", {}),
    (
        ["lc-formula", "--cols", "6", "--rows", "4", "--output", "json"], 0,
        '{\n  "lc": 18,\n  "case": "both_even",\n  "cols": 6,\n  "rows": 4\n}\n', {},
    ),
    (
        ["lc-brute", "--path", "5"], 0,
        "lc = 2 (brute-force)\nwitness at r = 1: S = {e0}, T = {e2}\n", {},
    ),
    (
        ["lc-brute", "--input", "p5.edges", "--output", "json"], 0,
        '{\n  "lc": 2,\n  "method": "brute-force",\n  "vertices": 5,\n  "edges": 4,\n'
        '  "witness": {\n    "r": 1,\n    "S": [\n      0\n    ],\n    "T": [\n      2\n'
        '    ]\n  }\n}\n', {},
    ),
    (["lc-brute", "--grid", "1", "1"], 0, "lc = 0 (brute-force)\nwitness: none\n", {}),
    (
        ["lc-brute", "--grid", "1", "1", "--output", "json"], 0,
        '{\n  "lc": 0,\n  "method": "brute-force",\n  "vertices": 1,\n  "edges": 0,\n'
        '  "witness": null\n}\n', {},
    ),
    (["lc-brute", "--grid", "3", "3", "--pair-budget", "5"], 3, "", {}),
    (
        ["superline", "--index", "2", "--input", "p5.edges", "--out", "l2.edges"], 0,
        "wrote index-2 super line graph: 6 vertices, 15 edges -> l2.edges "
        "(labels -> l2.edges.labels)\n",
        {
            "l2.edges": "35979b64183c7805b20140371fe3a31565e5617700fe7fbe437630415e487e5e",
            "l2.edges.labels": "2116919bcbaee119e3f61f9b1f07bebf1c705d941e595c219768afa2880d0a9d",
        },
    ),
    (
        ["superline", "--index", "2", "--input", "p5.edges", "--out", "l2.edges",
         "--labels", "l2.txt", "--output", "json"], 0,
        '{\n  "index": 2,\n  "vertices": 6,\n  "edges": 15,\n  "out": "l2.edges",\n'
        '  "labels": "l2.txt"\n}\n',
        {
            "l2.edges": "35979b64183c7805b20140371fe3a31565e5617700fe7fbe437630415e487e5e",
            "l2.txt": "2116919bcbaee119e3f61f9b1f07bebf1c705d941e595c219768afa2880d0a9d",
        },
    ),
    (
        ["slice", "--cols", "6", "--rows", "4"], 0,
        "sha256:dce660dce9e15325e432cc9c62313ccc6456c50e93cb3eb5f285c26617a217b8", {},
    ),
    (
        ["slice", "--cols", "6", "--rows", "4", "--axis", "horizontal"], 0,
        "sha256:4e38a84787a2dcf5f7ec38fc1c6264396de87440d44afd21ec69c9996c59fff8", {},
    ),
    (
        ["verify", "--slicing", "slicing.json"], 0,
        "partition: PASS (A, B, R are disjoint and cover all 38 edges)\n"
        "non_adjacency: PASS (checked 17 x 17 edge pairs, none share a vertex)\n"
        "equal_sides: PASS (|A| = 17, |B| = 17)\n"
        "removed_count: PASS (|R| = 4, expected 4 for a vertical cut of a 6x4 grid)\n"
        "formula_bound: PASS (|A| + 1 = 18 vs closed-form lc = 18 (both_even))\n"
        "all 5 checks passed\n", {},
    ),
    (
        ["verify", "--slicing", "slicing.json", "--output", "json"], 0,
        "sha256:19823e33c7996761fbd02924e61518d47c0e58caf8ac452711d9c48ad27c5d58", {},
    ),
    (
        ["verify", "--slicing", "tampered.json"], 1,
        "partition: PASS (A, B, R are disjoint and cover all 38 edges)\n"
        "non_adjacency: FAIL (A edge 2 (2, 3) shares a vertex with B edge 3 (3, 4))\n"
        "equal_sides: FAIL (|A| = 18, |B| = 17)\n"
        "removed_count: FAIL (|R| = 3, expected 4 for a vertical cut of a 6x4 grid)\n"
        "formula_bound: FAIL (|A| + 1 = 19 vs closed-form lc = 18 (both_even))\n"
        "4 of 5 checks failed\n", {},
    ),
    (
        ["verify", "--slicing", "tampered.json", "--output", "json"], 1,
        "sha256:55020afc8c57ac7778d41bd3a83356da34cbaebc42e0255fccfb3c7c48e4751e", {},
    ),
    (["xcheck", "--max-edges", "0"], 0, " cols rows edges formula oracle agree\n"
     "    1    1     0       0      0 yes\nall 1 grids agree\n", {}),
    (["xcheck", "--max-edges", "12", "--pair-budget", "100"], 3, "", {}),
    (
        ["xcheck", "--max-edges", "5"], 0,
        " cols rows edges formula oracle agree\n"
        "    1    1     0       0      0 yes\n"
        "    1    2     1       1      1 yes\n"
        "    2    1     1       1      1 yes\n"
        "    1    3     2       1      1 yes\n"
        "    3    1     2       1      1 yes\n"
        "    1    4     3       2      2 yes\n"
        "    4    1     3       2      2 yes\n"
        "    1    5     4       2      2 yes\n"
        "    2    2     4       2      2 yes\n"
        "    5    1     4       2      2 yes\n"
        "    1    6     5       3      3 yes\n"
        "    6    1     5       3      3 yes\n"
        "all 12 grids agree\n", {},
    ),
    (
        ["xcheck", "--max-edges", "5", "--output", "json"], 0,
        "sha256:24e63130f119891bec222a84f1da2c0048d77fa76b27c11d12c48a9f6bf903c1", {},
    ),
    (
        ["xcheck", "--max-edges", "12"], 1,
        "sha256:b1cf57aac0bd68c39014075c200b83200c73b59352734319531cca3710786899", {},
    ),
    (
        ["xcheck", "--max-edges", "12", "--output", "json"], 1,
        "sha256:ff0afd8a4bc8d88b9b767f67dc5ea4ea3cc4aa9c5bae0b0ddae7ca5d5126d89c", {},
    ),
]


@pytest.mark.parametrize(
    "argv, expected_code, expected_out, expected_files",
    FROZEN,
    ids=[" ".join(case[0]) for case in FROZEN],
)
def test_frozen_stdout(
    capsys, tmp_path, monkeypatch, argv, expected_code, expected_out, expected_files
):
    monkeypatch.chdir(tmp_path)
    write_edge_list(path(5), "p5.edges")
    data = slicing_to_dict(best_slicing(GridSpec(6, 4)))
    (tmp_path / "slicing.json").write_text(json.dumps(data))
    data["A"].append(data["R"].pop(0))
    (tmp_path / "tampered.json").write_text(json.dumps(data))
    inputs = set(os.listdir(tmp_path))

    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    if expected_out.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected_out
    else:
        assert out == expected_out
    written = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(set(os.listdir(tmp_path)) - inputs)
    }
    assert written == expected_files
