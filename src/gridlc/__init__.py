"""Super line graphs, line completion numbers, and grid slicing certificates."""

from .errors import BudgetExceededError, CapacityError
from .fileio import (
    format_edge_list,
    format_label_table,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
    write_label_table,
)
from .formula import FormulaCase, GridCase, lc_grid_formula, lc_path_formula
from .graph import (
    DEFAULT_EDGE_CAP,
    Graph,
    GridSpec,
    grid,
    path,
)
from .slicing import (
    CheckResult,
    Orientation,
    Slicing,
    VerificationReport,
    best_slicing,
    expected_removed_count,
    slice_grid,
    slicing_from_dict,
    slicing_to_dict,
    verify_slicing,
)
from .superline import (
    DEFAULT_PAIR_BUDGET,
    DEFAULT_VERTEX_CAP,
    EdgeSet,
    LcResult,
    WitnessPair,
    find_nonadjacent_pair,
    lc_bruteforce,
    sets_adjacent,
    super_line_graph,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CapacityError",
    "CheckResult",
    "DEFAULT_EDGE_CAP",
    "DEFAULT_PAIR_BUDGET",
    "DEFAULT_VERTEX_CAP",
    "EdgeSet",
    "FormulaCase",
    "Graph",
    "GridCase",
    "GridSpec",
    "LcResult",
    "Orientation",
    "Slicing",
    "VerificationReport",
    "WitnessPair",
    "best_slicing",
    "expected_removed_count",
    "find_nonadjacent_pair",
    "format_edge_list",
    "format_label_table",
    "grid",
    "lc_bruteforce",
    "lc_grid_formula",
    "lc_path_formula",
    "parse_edge_list",
    "path",
    "read_edge_list",
    "sets_adjacent",
    "slice_grid",
    "slicing_from_dict",
    "slicing_to_dict",
    "super_line_graph",
    "verify_slicing",
    "write_edge_list",
    "write_label_table",
]
