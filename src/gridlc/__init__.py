"""Super line graphs, line completion numbers, and grid slicing certificates.

The root defines the shared error and the default caps.  Every other name is
looked up (PEP 562) in its defining module on each access, and that module
is imported on first use, so ``import gridlc`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Default cap on the adjacency masks the witness walk may read, one per
#: prefix it tries.  A walk over E edges tries fewer than 2**E prefixes, so
#: the default decides every level of every graph with at most 24 edges.
DEFAULT_PAIR_BUDGET = 2**24

#: Default cap on the number of subset vertices a super line graph may have.
#: It bounds the output, up to C(cap, 2) edges: at the cap, ``superline
#: --index 1`` on the star K_1,2500 streams K_2500's 3,123,750 edges in about
#: 0.3 s and 18 MB, while ``super_line_graph`` holds them all in about 230 MB.
DEFAULT_VERTEX_CAP = 2500

#: Default cap on user-supplied edge lists.  Grids and paths are checked
#: against their own cap, and super line graphs against a vertex cap.
DEFAULT_EDGE_CAP = 4096

_SOURCES = {
    "fileio": (
        "format_edge_list",
        "format_label_table",
        "parse_edge_list",
        "read_edge_list",
        "write_edge_list",
        "write_label_table",
    ),
    "formula": ("lc_grid_formula",),
    "graph": ("EdgeSet", "Graph", "GridSpec", "grid", "path", "super_line_graph"),
    "slicing": (
        "CheckResult",
        "Slicing",
        "VerificationReport",
        "best_slicing",
        "slice_grid",
        "slicing_from_dict",
        "slicing_to_dict",
        "verify_slicing",
    ),
    "superline": (
        "LcResult",
        "WitnessPair",
        "find_nonadjacent_pair",
        "lc_bruteforce",
        "sets_adjacent",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "CapacityError", "DEFAULT_EDGE_CAP", "DEFAULT_PAIR_BUDGET", "DEFAULT_VERTEX_CAP"])


def __getattr__(name: str):
    # Not cached in the package namespace: a value patched into the defining
    # module (by a profiler, say) is seen here, and so is its removal.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())


class CapacityError(RuntimeError):
    """A requested construction exceeds a configured size cap."""
