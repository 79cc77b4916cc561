"""The three benchmark workloads: their inputs, one operation, and its check.

Each workload is a closed loop in one process: the next operation starts
only after the previous one has finished, with no threads.  Inputs are
derived from the seed alone.  Library code is reached only through public
names looked up at call time on the ``gridlc`` package and ``gridlc.cli``,
so a traced run can wrap them without touching ``src/``.

Seed 0 is the canonical numbering.  Any other seed permutes the vertex
labels of every ``oracle`` graph and shuffles the operation order of
``certify`` and ``cli``.  Edge ``i`` of a relabelled graph is the image of
canonical edge ``i``: shuffling edge indices would move the scan's first
hit and so change how much work a seed asks for, not only its labels.
Every answer is checked against exact golden outputs, and each oracle
witness is also re-checked at endpoint level on the relabelled edges.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

#: Lifted subset-pair budget for the oracle.  The seed's budget charges about
#: 6e12 pairs for the 4x4 grid, so this decides every graph on every commit.
ORACLE_BUDGET = 10**15

#: (name, cols, rows); a path is a grid with one row.
ORACLE_GRAPHS = (
    ("3x3", 3, 3),
    ("2x6", 2, 6),
    ("3x4", 3, 4),
    ("3x5", 3, 5),
    ("2x8", 2, 8),
    ("4x4", 4, 4),
    ("path20", 20, 1),
)

CERTIFY_SIDES = range(2, 25)

#: (label, argv, files the command writes besides stdout).  The ``slice``
#: stdout is saved as ``slicing.json``, which ``verify`` reads.
CLI_COMMANDS = (
    ("lc-formula", ("lc-formula", "--cols", "24", "--rows", "24"), ()),
    ("lc-brute-grid", ("lc-brute", "--grid", "3", "3"), ()),
    ("lc-brute-input", ("lc-brute", "--input", "path12.edges", "--output", "json"), ()),
    ("slice", ("slice", "--cols", "24", "--rows", "24"), ()),
    ("verify", ("verify", "--slicing", "slicing.json"), ()),
    (
        "superline-3x3",
        ("superline", "--index", "3", "--input", "grid3x3.edges", "--out", "l3.edges"),
        ("l3.edges", "l3.edges.labels"),
    ),
    (
        "superline-4x4",
        ("superline", "--index", "2", "--input", "grid4x4.edges", "--out", "l2.edges"),
        ("l2.edges", "l2.edges.labels"),
    ),
    ("xcheck", ("xcheck", "--max-edges", "12"), ()),
)
SLICING_FILE = "slicing.json"
CLI_INPUTS = {"path12.edges": (12, 1), "grid3x3.edges": (3, 3), "grid4x4.edges": (4, 4)}


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def grid_edges(cols: int, rows: int) -> list[tuple[int, int]]:
    """Edges of the cols x rows grid in the documented numbering.

    Cell (row i, col j) is vertex ``i * cols + j``; horizontal edges come
    first in row-major order, then vertical edges in row-major order.
    """
    horizontal = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    vertical = [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return horizontal + vertical


def relabel(vertex_count: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """An isomorphic copy with permuted vertex labels; edge ``i`` maps to edge ``i``."""
    perm = list(range(vertex_count))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def edge_list_text(vertex_count: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list file format: a ``p <vertices> <edges>`` header, then pairs."""
    return "".join([f"p {vertex_count} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def witness_problems(edges, r: int, first, second) -> list[str]:
    """Endpoint-level check that two index lists are a witness pair at size r.

    Shares no code with the library: both lists must be sorted, distinct,
    in range and of size r, and no edge of one may share an endpoint with a
    different edge of the other.
    """
    problems = []
    for label, side in (("S", first), ("T", second)):
        if len(side) != r or list(side) != sorted(set(side)):
            problems.append(f"witness {label} is not a sorted set of {r} edges")
        elif not all(0 <= i < len(edges) for i in side):
            problems.append(f"witness {label} has an index outside the {len(edges)} edges")
    if problems:
        return problems
    if list(first) == list(second):
        return ["witness sides are equal"]
    for i in first:
        for j in second:
            if i != j and set(edges[i]) & set(edges[j]):
                return [f"witness edges {i} {edges[i]} and {j} {edges[j]} share a vertex"]
    return []


def check_oracle(expected: dict, edges, output) -> list[str]:
    """Problems with an oracle answer ``(lc, witness)``; empty when correct.

    ``witness`` is ``(S, T)`` as index lists, or None.  Both must equal the
    golden values, which relabelling vertices leaves unchanged, and the
    witness is re-checked at endpoint level on ``edges``.
    """
    lc, witness = output
    problems = []
    if lc != expected["lc"]:
        problems.append(f"lc {lc}, expected {expected['lc']}")
    golden_witness = expected["witness"]
    if witness is None or golden_witness is None:
        if witness != golden_witness:
            problems.append(f"witness {witness}, expected {golden_witness}")
        return problems
    problems += witness_problems(edges, lc - 1, *witness)
    if [list(witness[0]), list(witness[1])] != golden_witness:
        problems.append(f"witness {witness}, expected {golden_witness}")
    return problems


def check_certify(expected: dict, output: dict) -> list[str]:
    problems = []
    if digest(json.dumps(output["doc"], sort_keys=True)) != expected["digest"]:
        problems.append(f"slicing document differs from golden ({expected['orientation']}, |A| = {expected['side']})")
    if not output["roundtrip"]:
        problems.append("slicing_from_dict(slicing_to_dict(s)) differs from s")
    failed = [name for name, passed in output["checks"] if not passed]
    if failed or len(output["checks"]) != expected["checks"]:
        problems.append(f"verify_slicing failed {failed} of {len(output['checks'])} checks")
    return problems


def check_cli(expected: dict, output) -> list[str]:
    """Problems with a command's ``(exit code, stdout, file digests)``."""
    code, stdout, files = output
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, expected {expected['exit']}")
    if stdout != expected["stdout"]:
        got = stdout.splitlines() + ["<end of output>"]
        want = expected["stdout"].splitlines() + ["<end of output>"]
        line = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        if line is None:
            problems.append("stdout differs from golden in its line endings")
        else:
            problems.append(f"stdout line {line + 1} is {got[line]!r}, expected {want[line]!r}")
    for name, want in expected["files"].items():
        if files.get(name) != want:
            problems.append(f"written file {name} differs from golden")
    return problems


class Oracle:
    """Exact lc by brute force on the ROADMAP graphs, with a lifted budget."""

    largest = "4x4"

    def __init__(self, lib, seed: int, workdir: Path, golden: dict | None):
        self.lib = lib
        self.expected = {entry["name"]: entry for entry in golden["graphs"]} if golden else {}
        self.inputs = {}
        for name, cols, rows in ORACLE_GRAPHS:
            edges = grid_edges(cols, rows)
            if seed:
                edges = relabel(cols * rows, edges, random.Random(f"{seed}:{name}"))
            self.inputs[name] = (cols * rows, edges)
        self.labels = tuple(name for name, _, _ in ORACLE_GRAPHS)

    def _graph(self, label):
        vertex_count, edges = self.inputs[label]
        return self.lib.Graph.from_edges(vertex_count, edges, edge_cap=None)

    @staticmethod
    def _pair(pair):
        return None if pair is None else (list(pair.S.indices()), list(pair.T.indices()))

    def run(self, label):
        result = self.lib.lc_bruteforce(self._graph(label), pair_budget=ORACLE_BUDGET)
        return result.r, self._pair(result.witness_at_r_minus_1)

    def run_traced(self, label):
        """The same answer, decided one level at a time so each level is a span."""
        g = self._graph(label)
        previous = None
        for r in range(1, g.edge_count + 1):
            pair = self.lib.find_nonadjacent_pair(g, r, pair_budget=ORACLE_BUDGET)
            if pair is None:
                return r, previous
            previous = self._pair(pair)
        raise AssertionError("the level with a single subset is always complete")

    def check(self, label, output) -> list[str]:
        return check_oracle(self.expected[label], self.inputs[label][1], output)


class Certify:
    """Build, slice, round-trip and verify every grid with sides in 2..24."""

    largest = "24x24"

    def __init__(self, lib, seed: int, workdir: Path, golden: dict | None):
        self.lib = lib
        self.expected = golden["grids"] if golden else {}
        labels = [f"{cols}x{rows}" for cols in CERTIFY_SIDES for rows in CERTIFY_SIDES]
        if seed:
            random.Random(seed).shuffle(labels)
        self.labels = tuple(labels)

    def run(self, label):
        lib = self.lib
        cols, rows = map(int, label.split("x"))
        spec = lib.GridSpec(cols, rows)
        g = lib.grid(spec)
        slicing = lib.best_slicing(spec)
        doc = json.loads(json.dumps(lib.slicing_to_dict(slicing)))
        back = lib.slicing_from_dict(doc)
        report = lib.verify_slicing(g, back)
        return {
            "doc": doc,
            "roundtrip": back.spec == slicing.spec
            and back.orientation == slicing.orientation
            and (back.A.bits, back.B.bits, back.R.bits) == (slicing.A.bits, slicing.B.bits, slicing.R.bits),
            "checks": [(check.name, check.passed) for check in report.checks],
        }

    run_traced = run

    def check(self, label, output) -> list[str]:
        return check_certify(self.expected[label], output)


class Cli:
    """Shell-style ``python -m gridlc.cli`` commands, one after another.

    ``run`` launches a subprocess, as a shell or CI user would;
    ``run_traced`` calls ``gridlc.cli.main(argv)`` in this process, which
    is what a traced run wraps.  Both run in a private working directory
    inside the checkout, with relative file names, so stdout is exact.
    """

    largest = "superline-4x4"

    def __init__(self, lib, seed: int, workdir: Path, golden: dict | None):
        self.lib = lib
        self.workdir = workdir
        self.expected = golden["commands"] if golden else {}
        self.commands = {label: (list(argv), files) for label, argv, files in CLI_COMMANDS}
        labels = [label for label, _, _ in CLI_COMMANDS]
        if seed:
            random.Random(seed).shuffle(labels)
        self.labels = tuple(labels)
        self.bad_exits = 0
        for name, (cols, rows) in CLI_INPUTS.items():
            (workdir / name).write_text(edge_list_text(cols * rows, grid_edges(cols, rows)), encoding="utf-8")
        # ``verify`` may come before ``slice`` in a shuffled order, so the
        # file starts out as the golden ``slice`` output it must equal.
        if golden:
            (workdir / SLICING_FILE).write_text(self.expected["slice"]["stdout"], encoding="utf-8")
        src = str(Path(lib.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def _finish(self, label, code, stdout):
        if label == "slice":
            (self.workdir / SLICING_FILE).write_text(stdout, encoding="utf-8")
        return code, stdout

    def run(self, label):
        argv, _ = self.commands[label]
        proc = subprocess.run(
            [sys.executable, "-m", "gridlc.cli", *argv],
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return self._finish(label, proc.returncode, proc.stdout)

    def run_traced(self, label):
        argv, _ = self.commands[label]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.lib.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return self._finish(label, code, out.getvalue())

    def written(self, label) -> dict[str, str]:
        """Digests of the files the command wrote, which are then removed."""
        files = {}
        for name in self.commands[label][1]:
            path = self.workdir / name
            if path.exists():
                files[name] = digest(path.read_bytes())
                path.unlink()
        return files

    def check(self, label, output) -> list[str]:
        code, stdout = output
        if code != self.expected[label]["exit"]:
            self.bad_exits += 1
        return check_cli(self.expected[label], (code, stdout, self.written(label)))


WORKLOADS = {"oracle": Oracle, "certify": Certify, "cli": Cli}
