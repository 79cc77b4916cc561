"""The lazy package, the modules each CLI command loads, the shared error, and the records.

Import-state tests run a fresh interpreter, because this process has
already imported every gridlc module through the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridlc
from gridlc import (
    CheckResult,
    EdgeSet,
    GridSpec,
    LcResult,
    best_slicing,
    grid,
    lc_bruteforce,
    path,
    verify_slicing,
)

SRC = Path(gridlc.__file__).resolve().parent.parent


def run_fresh(code: str, *flags: str) -> str:
    """Run ``code`` in a new interpreter, started with ``flags``, that imports gridlc from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    # A module counts as loaded by the command only if the interpreter had
    # not already loaded it at start-up (some site hooks import json).
    FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from gridlc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
for name in {absent!r}:
    print(name, name in sys.modules and name not in before)
"""

    @pytest.mark.parametrize(
        "argv,absent",
        [
            (
                ["lc-formula", "--cols", "24", "--rows", "24"],
                ["gridlc.graph", "gridlc.superline", "gridlc.slicing", "gridlc.fileio",
                 "dataclasses", "json", "argparse", "gettext", "locale"],
            ),
            (
                ["lc-brute", "--grid", "3", "3"],
                ["gridlc.slicing", "gridlc.fileio", "dataclasses", "json",
                 "argparse", "gettext", "locale"],
            ),
            (
                ["superline", "--index", "2", "--input", "{tmp}/g.edges", "--out", "{tmp}/l2.edges"],
                ["gridlc.superline", "gridlc.slicing", "dataclasses", "json",
                 "argparse", "gettext", "locale"],
            ),
            (
                ["slice", "--cols", "6", "--rows", "4"],
                ["gridlc.superline", "gridlc.fileio", "dataclasses",
                 "argparse", "gettext", "locale"],
            ),
            (
                ["verify", "--slicing", "{tmp}/slicing.json"],
                ["gridlc.superline", "gridlc.fileio", "dataclasses",
                 "argparse", "gettext", "locale"],
            ),
            (
                ["xcheck", "--max-edges", "10"],
                ["gridlc.slicing", "gridlc.fileio", "dataclasses", "json",
                 "argparse", "gettext", "locale"],
            ),
        ],
        ids=["lc-formula", "lc-brute", "superline", "slice", "verify", "xcheck"],
    )
    def test_command_loads_only_what_it_runs(self, argv, absent, tmp_path):
        gridlc.write_edge_list(grid(GridSpec(3, 3)), tmp_path / "g.edges")
        document = gridlc.slicing_to_dict(best_slicing(GridSpec(6, 4)))
        (tmp_path / "slicing.json").write_text(json.dumps(document), encoding="utf-8")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        out = run_fresh(self.FOOTPRINT.format(argv=argv, absent=absent))
        assert out.split("\n")[:-1] == [f"{name} False" for name in absent]

    @pytest.mark.parametrize(
        "argv", [["lc-formula", "--cols", "6", "--rows", "4"], ["xcheck", "--max-edges", "11"]],
        ids=["lc-formula", "xcheck"],
    )
    def test_command_leaves_enum_unimported(self, argv):
        # Under -S no site hook preloads enum, so its absence is checked
        # outright.  slice and verify still load it through json and re.
        code = f"import sys\nfrom gridlc.cli import main\nprint(main({argv!r}), 'enum' in sys.modules)"
        assert run_fresh(code, "-S").split("\n")[-2] == "0 False"

    def test_import_loads_no_submodule(self):
        out = run_fresh("import sys, gridlc; print(sorted(m for m in sys.modules if m.startswith('gridlc')))")
        assert out == "['gridlc']\n"

    def test_cli_import_loads_the_root_and_cli_alone(self):
        # The default caps and CapacityError live in the package root.
        out = run_fresh("import sys, gridlc.cli; print(sorted(m for m in sys.modules if m.startswith('gridlc')))")
        assert out == "['gridlc', 'gridlc.cli']\n"

    @pytest.mark.parametrize(
        "module", ["graph", "superline", "slicing", "fileio", "formula", "cli", "args"]
    )
    def test_module_imports_first(self, module):
        out = run_fresh(f"import gridlc.{module}; print('ok')")
        assert out == "ok\n"


class TestCapacityError:
    # Each refusal runs in a fresh interpreter that imports the module first.
    REFUSE = """
import gridlc.{module} as module
import gridlc
try:
    {call}
except Exception as exc:
    print(type(exc) is gridlc.CapacityError, exc)
"""

    @pytest.mark.parametrize(
        "module,call,message",
        [
            ("graph", "module.grid(module.GridSpec(182, 182))", "182x182 grid has 65884 edges"),
            ("graph", "module.super_line_graph(module.path(7), 3, vertex_cap=19)", "C(6, 3) = 20"),
            ("superline", "module.lc_bruteforce(gridlc.path(30), pair_budget=1)", "level r = 14"),
            ("fileio", "module.parse_edge_list('p 3 2\\n0 1\\n1 2\\n', edge_cap=1)", "2 edges exceed"),
        ],
        ids=["grid", "super-line-graph", "walk", "edge-list"],
    )
    def test_every_refusal_is_the_root_class(self, module, call, message):
        out = run_fresh(self.REFUSE.format(module=module, call=call))
        assert out.startswith("True ") and message in out

    def test_cli_catches_the_root_class(self):
        out = run_fresh(
            "import contextlib, io, gridlc.cli as cli, gridlc\n"
            "print(vars(cli)['CapacityError'] is gridlc.CapacityError)\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    print(cli.main(['lc-brute', '--path', '30', '--pair-budget', '1']))\n"
        )
        assert out == "True\n3\n"


class TestLazyPackage:
    def test_every_public_name_resolves_and_is_listed(self):
        out = run_fresh(
            "import gridlc\n"
            "for name in gridlc.__all__:\n"
            "    getattr(gridlc, name)\n"
            "    print(name, name in dir(gridlc))\n"
        )
        assert out.split("\n")[:-1] == [f"{name} True" for name in gridlc.__all__]

    def test_star_import(self):
        out = run_fresh(
            "import gridlc\n"
            "namespace = {}\n"
            "exec('from gridlc import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(gridlc.__all__))\n"
        )
        assert out == "True\n"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'lc_path_formula'"):
            gridlc.lc_path_formula  # noqa: B018
        with pytest.raises(ImportError):
            exec("from gridlc import FormulaCase", {})
        # Every limit raises CapacityError; no separate budget error exists.
        assert "BudgetExceededError" not in gridlc.__all__
        with pytest.raises(ImportError):
            exec("from gridlc import BudgetExceededError", {})

    def test_names_are_looked_up_in_the_defining_module(self, monkeypatch):
        # Nothing is cached in the package, so a name patched in its defining
        # module is seen through the package, and so is the restore.
        import gridlc.graph

        def stand_in(spec):
            return None

        assert gridlc.grid is gridlc.graph.grid
        monkeypatch.setattr(gridlc.graph, "grid", stand_in)
        assert gridlc.grid is stand_in
        monkeypatch.undo()
        assert gridlc.grid is gridlc.graph.grid
        assert "grid" not in vars(gridlc)


def _records():
    g = grid(GridSpec(3, 3))
    result = lc_bruteforce(g)
    slicing = best_slicing(GridSpec(4, 4))
    report = verify_slicing(slicing.A.graph, slicing)
    return {
        "Graph": (g, "edges"),
        "GridSpec": (GridSpec(3, 3), "cols"),
        "EdgeSet": (result.witness_at_r_minus_1.S, "bits"),
        "WitnessPair": (result.witness_at_r_minus_1, "r"),
        "LcResult": (result, "r"),
        "Slicing": (slicing, "A"),
        "CheckResult": (report.checks[0], "passed"),
    }


@pytest.mark.parametrize("kind", list(_records()))
def test_record_fields_are_read_only(kind):
    record, field = _records()[kind]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == before


@pytest.mark.parametrize("kind", list(_records()))
def test_records_hold_no_instance_dict(kind):
    record, _ = _records()[kind]
    assert not hasattr(record, "__dict__")


def test_records_keep_their_repr():
    g = path(3)
    assert repr(GridSpec(3, 2)) == "GridSpec(cols=3, rows=2)"
    assert repr(EdgeSet(g, 2)) == (
        "EdgeSet(graph=Graph(vertex_count=3, edges=((0, 1), (1, 2))), bits=2)"
    )
    assert repr(LcResult(1)) == "LcResult(r=1, witness_at_r_minus_1=None)"
    assert repr(CheckResult("partition", True, "ok")) == (
        "CheckResult(name='partition', passed=True, detail='ok')"
    )


def test_replace_runs_the_constructor_checks():
    result = lc_bruteforce(grid(GridSpec(3, 3)))
    pair = result.witness_at_r_minus_1
    with pytest.raises(ValueError, match="at least 1"):
        GridSpec(2, 2)._replace(cols=0)
    with pytest.raises(ValueError, match="outside the graph"):
        pair.S._replace(bits=-1)
    with pytest.raises(ValueError, match="distinct"):
        pair._replace(T=pair.S)
    with pytest.raises(ValueError, match="r - 1"):
        result._replace(r=3)
    assert GridSpec(2, 2)._replace(rows=3) == GridSpec(2, 3)
