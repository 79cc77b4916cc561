"""The lazy package, the modules each CLI command loads, and the immutable records.

Import-state tests run a fresh interpreter, because this process has
already imported every gridlc module through the other tests.
"""

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


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports gridlc from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    FOOTPRINT = """
import contextlib, io, sys
from gridlc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
for name in {absent!r}:
    print(name, name in sys.modules)
"""

    @pytest.mark.parametrize(
        "argv,absent",
        [
            (
                ["lc-formula", "--cols", "24", "--rows", "24"],
                ["gridlc.graph", "gridlc.superline", "gridlc.slicing", "gridlc.fileio", "dataclasses"],
            ),
            (
                ["lc-brute", "--grid", "3", "3"],
                ["gridlc.slicing", "gridlc.fileio", "dataclasses"],
            ),
        ],
        ids=["lc-formula", "lc-brute"],
    )
    def test_command_loads_only_what_it_runs(self, argv, absent):
        out = run_fresh(self.FOOTPRINT.format(argv=argv, absent=absent))
        assert out.split("\n")[:-1] == [f"{name} False" for name in absent]

    def test_import_loads_no_submodule(self):
        out = run_fresh("import sys, gridlc; print(sorted(m for m in sys.modules if m.startswith('gridlc')))")
        assert out == "['gridlc']\n"


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
