"""Super line graphs, line completion numbers, and grid slicing certificates.

The package imports lazily (PEP 562): each public name is looked up in its
defining module on every access, and that module is imported on first use,
so ``import gridlc`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "errors": (
        "CapacityError",
        "DEFAULT_PAIR_BUDGET",
        "DEFAULT_VERTEX_CAP",
    ),
    "fileio": (
        "format_edge_list",
        "format_label_table",
        "parse_edge_list",
        "read_edge_list",
        "write_edge_list",
        "write_label_table",
    ),
    "formula": ("GridCase", "lc_grid_formula"),
    "graph": (
        "DEFAULT_EDGE_CAP", "EdgeSet", "Graph", "GridSpec", "grid", "path", "super_line_graph"
    ),
    "slicing": (
        "CheckResult",
        "Orientation",
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

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in the package namespace: a value patched into the defining
    # module (by a profiler, say) is seen here, and so is its removal.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
