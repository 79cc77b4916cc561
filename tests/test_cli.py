import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlc import (
    Graph,
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
import gridlc.superline
from gridlc.cli import COMMANDS, main
from support import graphs, touching_pair_naive


SRC = Path(gridlc.__file__).resolve().parent.parent


def run_measured(*argv):
    """Run the CLI in a fresh interpreter that reports its own resource use.

    Returns (exit code, stdout, stderr lines, peak RSS in KiB, CPU seconds).
    The interpreter reads its own rusage (RSS in KiB on Linux), so the
    figures cover the whole run; tracemalloc would slow it 30-fold.  It runs
    under a 30-s CPU limit and a 1-GiB address-space limit, so a run that
    outgrows its bound fails the test instead of filling the host's memory.
    """
    script = (
        "import resource, sys\n"
        "from gridlc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "use = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(use.ru_maxrss, use.ru_utime + use.ru_stime, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (30, 30))
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120, preexec_fn=limit,
    )
    *lines, usage = done.stderr.splitlines()
    peak_kib, cpu_s = usage.split()
    return done.returncode, done.stdout, lines, int(peak_kib), float(cpu_s)


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

    def test_grid_5x5_under_default_budget(self, capsys):
        # Level 16 holds C(40, 16) = 62,852,101,650 subsets, but the walk
        # reads 26 masks to its first hit.
        code, out, _ = run(capsys, "lc-brute", "--grid", "5", "5")
        assert code == 0
        assert out == (
            "lc = 17 (brute-force)\n"
            "witness at r = 16: "
            "S = {e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e20, e21, e22, e23, e24, e25}, "
            "T = {e11, e12, e13, e14, e15, e16, e17, e18, e19, e33, e34, e35, e36, e37, e38, "
            "e39}\n"
        )

    def test_grid_6x6_under_default_budget(self, capsys):
        # The DP decides lc = 28; the walk reads 42 masks to its first hit at
        # level 27.  No scan of that level is feasible, so the pair is checked
        # edge by edge.
        code, out, _ = run(capsys, "lc-brute", "--grid", "6", "6")
        S, T = (*range(15), *range(30, 42)), (*range(15, 30), *range(48, 60))
        assert code == 0
        assert out == (
            "lc = 28 (brute-force)\n"
            f"witness at r = 27: S = {{{', '.join(f'e{i}' for i in S)}}}, "
            f"T = {{{', '.join(f'e{i}' for i in T)}}}\n"
        )
        assert touching_pair_naive(grid(GridSpec(6, 6)), S, T) is None

    def test_largest_grid_refused_on_the_state_cap(self, capsys):
        # 181x181 is the largest grid admitted; the DP passes its byte
        # budget after 11 vertices, before any level budget is charged.
        started = time.process_time()
        code, out, err = run(capsys, "lc-brute", "--grid", "181", "181")
        assert time.process_time() - started < 5
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: the lc dynamic program needs more than 67108864 bytes at vertex 11 of 32761"
        ]

    def test_largest_grid_refused_under_a_memory_bound(self):
        # Each 181x181 key holds a bitset of about 90 KB, so the byte budget,
        # not a key count, is what bounds the run's memory.
        code, out, err, peak_kib, cpu_s = run_measured("lc-brute", "--grid", "181", "181")
        assert (code, out) == (3, "")
        assert err == [
            "error: the lc dynamic program needs more than 67108864 bytes at vertex 11 of 32761"
        ]
        assert cpu_s < 5
        assert peak_kib < 128 * 1024

    def test_state_cap_exit_3_under_a_memory_bound(self, tmp_path):
        # K_12 passes the lc DP's byte budget at its ninth vertex.
        source = tmp_path / "k12.edges"
        write_edge_list(Graph.from_edges(12, combinations(range(12), 2)), source)
        code, out, err, peak_kib, _ = run_measured("lc-brute", "--input", str(source))
        assert (code, out) == (3, "")
        assert err == [
            "error: the lc dynamic program needs more than 67108864 bytes at vertex 9 of 12"
        ]
        assert peak_kib < 128 * 1024

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        # A level lc - 1 without a witness means the lemma DP and the scan
        # disagree: a bug, reported as such and never as an answer.
        monkeypatch.setattr(gridlc.superline, "find_nonadjacent_pair", lambda g, r, **_: None)
        code, out, err = run(capsys, "lc-brute", "--grid", "3", "3")
        assert code == 4
        assert out == ""
        assert err == (
            "internal error: AssertionError: the lemma gives lc = 5, "
            "but level 4 has no witness pair\n"
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

    def test_default_vertex_cap_refuses_before_building(self, tmp_path):
        # C(24, 4) = 10,626 subsets of the 4x4 grid's edges: the pair loop
        # would test 56 million pairs, gigabytes of edges.
        source = tmp_path / "grid4x4.edges"
        write_edge_list(grid(GridSpec(4, 4)), source)
        out_file = tmp_path / "l4.edges"
        code, out, err, peak_kib, cpu_s = run_measured(
            "superline", "--index", "4", "--input", str(source), "--out", str(out_file)
        )
        assert (code, out) == (3, "")
        assert err == ["error: C(24, 4) = 10626 subset vertices exceed the cap of 2500"]
        assert not out_file.exists()
        assert list(tmp_path.iterdir()) == [source]
        assert cpu_s < 1
        assert peak_kib < 100 * 1024

    def test_index_3_of_4x4_streams_in_little_memory(self, tmp_path):
        # 2,024 subset vertices and 1,750,586 edges: written as rows of
        # later neighbours, with no (i, j) pair held in memory.
        source = tmp_path / "grid4x4.edges"
        write_edge_list(grid(GridSpec(4, 4)), source)
        out_file = tmp_path / "l3.edges"
        code, out, err, peak_kib, _ = run_measured(
            "superline", "--index", "3", "--input", str(source), "--out", str(out_file)
        )
        assert (code, err) == (0, [])
        assert out == (
            "wrote index-3 super line graph: 2024 vertices, 1750586 edges "
            f"-> {out_file} (labels -> {out_file}.labels)\n"
        )
        assert peak_kib < 64 * 1024
        with open(out_file, encoding="utf-8") as handle:
            assert handle.readline() == "p 2024 1750586\n"
            assert sum(1 for _ in handle) == 1_750_586

    def test_labels_and_out_naming_one_file_exit_2(self, capsys, tmp_path):
        source = tmp_path / "p5.edges"
        write_edge_list(path(5), source)
        out_file = tmp_path / "l2.edges"
        code, out, err = run(
            capsys, "superline", "--index", "2", "--input", str(source),
            "--out", str(out_file), "--labels", str(tmp_path / "." / "l2.edges"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: the edge list and the label table would both be written to {out_file}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("labels", ["missing/x.labels", "p5.edges/x.labels", "."])
    def test_unwritable_labels_path_exit_2_before_writing(self, capsys, tmp_path, labels):
        # The label table's directory is checked before the edge list is
        # opened, so an existing --out file is left as it was.
        source = tmp_path / "p5.edges"
        write_edge_list(path(5), source)
        out_file = tmp_path / "l2.edges"
        out_file.write_text("kept\n")
        labels_path = str(tmp_path / labels)
        code, out, err = run(
            capsys, "superline", "--index", "2", "--input", str(source),
            "--out", str(out_file), "--labels", labels_path,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {labels_path}: ") and err.count("\n") == 1
        assert out_file.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [out_file, source]

    def test_missing_out_directory_exit_2(self, capsys, tmp_path):
        source = tmp_path / "p5.edges"
        write_edge_list(path(5), source)
        out_file = tmp_path / "missing" / "l2.edges"
        code, out, err = run(
            capsys, "superline", "--index", "2", "--input", str(source), "--out", str(out_file),
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {out_file}: {out_file.parent} is not a directory\n"
        assert list(tmp_path.iterdir()) == [source]


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

    def test_largest_grid_slices_and_verifies_in_linear_time(self, tmp_path):
        # Each side holds about 32,000 of the 65,160 edges.  Converting masks
        # to index lists one bit at a time took 0.59-0.93 s of CPU to slice
        # and 0.45-0.68 s to verify; one pass takes 0.18-0.27 s each.
        code, out, err, _, slice_cpu_s = run_measured("slice", "--cols", "181", "--rows", "181")
        assert (code, err) == (0, [])
        document = tmp_path / "slicing.json"
        document.write_text(out)
        code, out, err, _, verify_cpu_s = run_measured("verify", "--slicing", str(document))
        assert (code, err) == (0, [])
        assert out.splitlines()[-1] == "all 5 checks passed"
        assert slice_cpu_s < 0.4
        assert verify_cpu_s < 0.4

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

    def test_verify_duplicate_side_index_exit_2(self, capsys, tmp_path):
        document = tmp_path / "twice.json"
        document.write_text(json.dumps(
            {"spec": {"cols": 2, "rows": 2}, "orientation": "vertical",
             "A": [0, 0], "B": [1], "R": []}
        ))
        code, out, err = run(capsys, "verify", "--slicing", str(document))
        assert code == 2
        assert out == ""
        assert err == "error: malformed slicing document: A lists an edge index twice\n"

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

    def test_reader_closing_stdout_early_keeps_exit_0(self):
        # As in `gridlc slice --cols 100 --rows 100 | head -c 10`: the
        # document (about 200 kB) outgrows the pipe, so the write fails.
        process = subprocess.Popen(
            [sys.executable, "-m", "gridlc.cli", "slice", "--cols", "100", "--rows", "100"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert process.stdout.read(10) == b'{\n  "spec"'
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == 0
        assert err == b""

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

    def test_transposes_share_one_dp_run(self, capsys, monkeypatch):
        # A grid and its transpose are isomorphic: 31 rows, 17 shapes.
        decide = gridlc.superline._lemma_lc
        decided = []
        monkeypatch.setattr(
            gridlc.superline, "_lemma_lc", lambda g: decided.append(g) or decide(g)
        )
        code, out, _ = run(capsys, "xcheck", "--max-edges", "12")
        assert code == 1
        assert len(out.splitlines()) == 1 + 31 + 1
        assert len(decided) == len(set(decided)) == 17

    def test_refused_grid_ends_the_sweep_before_larger_grids_are_listed(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(gridlc.superline, "_BYTE_BUDGET", 2**14)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "xcheck", "--max-edges", "100000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "needs more than 16384 bytes" in err
        assert peak < 4 * 2**20

    def test_sweep_to_64_edges_flags_only_3x3(self, capsys):
        # The lc DP alone decides every grid with at most 64 edges, wide
        # ones such as 6x5 and 2x22 included, in about a second.
        code, out, _ = run(capsys, "xcheck", "--max-edges", "64")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 + 208 + 1
        assert [line for line in lines if "MISMATCH" in line] == [
            "MISMATCH: 3x3 grid has formula 4 but oracle 5"
        ]


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
    """``main(argv)`` in ``directory``, counting a usage error's SystemExit as an exit code."""
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


# Usage errors: each exits 2 through SystemExit, as argparse did, with a
# usage line and one error line on stderr and nothing on stdout.
USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["lc-formula", "--cols", "6", "--rows", "4", "--colour", "red"],
    ["xcheck", "--max-edges", "12", "--pair-budget", "39"],  # xcheck walks for no witness
    ["lc-formula", "--cols", "6", "--rows"],
    ["lc-formula", "--cols", "--rows", "4"],
    ["lc-formula", "--cols", "6", "--rows", "x"],
    ["lc-brute", "--path", "0"],
    ["superline", "--index", "0", "--input", "g.edges", "--out", "l.edges"],
    ["lc-brute", "--path", "5", "--pair-budget", "0"],
    ["superline", "--index", "2", "--input", "g.edges", "--out", "l.edges", "--vertex-cap", "0"],
    ["lc-formula", "--cols", "6", "--rows", "4", "--output", "xml"],
    ["slice", "--cols", "6", "--rows", "4", "--axis", "diagonal"],
    ["slice", "--cols", "6", "--rows", "4", "--output", "text"],
    ["lc-formula", "--cols", "6"],
    ["verify"],
    ["lc-brute"],
    ["lc-brute", "--path", "5", "--grid", "3", "3"],
    ["lc-brute", "--grid", "3"],
    ["lc-brute", "--grid=3", "3"],
]


class TestParsing:
    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) or "(none)" for a in USAGE_ERRORS])
    def test_usage_error_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        prog = f"gridlc {argv[0]}" if argv and argv[0] in COMMANDS else "gridlc"
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: {prog} [-h]")
        assert error.startswith(f"{prog}: error: ") and err.count("error:") == 1

    def test_attached_value_parses_like_a_separate_one(self, capsys):
        assert run(capsys, "lc-formula", "--cols=6", "--rows", "4") == run(
            capsys, "lc-formula", "--cols", "6", "--rows", "4"
        )

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        assert run(capsys, "lc-formula", "--cols", "3", "--cols", "6", "--rows", "4") == (
            0, "18 (both_even)\n", ""
        )

    def test_negative_value_reaches_the_handler(self, capsys):
        # "-1" is a value, not a flag; xcheck itself refuses it.
        assert run(capsys, "xcheck", "--max-edges", "-1") == (
            2, "", "error: --max-edges must be non-negative\n"
        )

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_names_every_flag(self, capsys, command, flag):
        argv = [flag] if command is None else [command, flag]
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 0
        assert err == ""
        # Each spec is written as the usage line shows it, e.g. "[--output {text,json}]".
        flags = [spec.strip("[]()| ").split()[0] for spec, *_ in COMMANDS[command][2]] if command else []
        assert set(flags or COMMANDS) <= set(out.split())


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
    (["lc-brute", "--grid", "181", "181"], 3, "", {}),
    (
        ["lc-brute", "--grid", "4", "6"], 0,
        "lc = 18 (brute-force)\nwitness at r = 17: "
        "S = {e0, e1, e2, e3, e4, e5, e6, e7, e8, e18, e19, e20, e21, e22, e23, e24, e25}, "
        "T = {e9, e10, e11, e12, e13, e14, e15, e16, e17, e30, e31, e32, e33, e34, e35, e36, "
        "e37}\n", {},
    ),
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

    code, out, err = run(capsys, *argv)
    assert code == expected_code
    if code == 3:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if expected_out.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected_out
    else:
        assert out == expected_out
    written = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(set(os.listdir(tmp_path)) - inputs)
    }
    assert written == expected_files
