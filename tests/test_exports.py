"""The package exports only what its own code uses, and a short list of
names kept on purpose."""

import ast
import types
from pathlib import Path

import raagcert

SRC = Path(raagcert.__file__).resolve().parent

_BASIS = "brackets Lyndon traces into the basis of the graded pieces; its fate is open"

# exported although nothing in the package calls them
KEPT = {
    "compose": "builds the joins and disjoint unions of the paper's graph families",
    "path_graph": "builds the paths of the paper's examples",
    "to_edge_list": "writes the edge-list format that from_edge_list reads",
    "dominates": "the definition that the closed-form domination closure replaces",
    "bracketing": _BASIS,
    "standard_factorization": _BASIS,
    "dependence_set": _BASIS,
    "initial_vertices": _BASIS,
    "trace_class": _BASIS,
}


def _names_read_in_src() -> set[str]:
    """Every name that some code in the package reads, except a top-level
    function or class reading its own name."""
    read = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            read.update(node.id for node in ast.walk(top)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id != own)
    return read


def test_every_export_has_a_caller_or_a_reason():
    exported = {name for name in raagcert.__all__
                if not isinstance(getattr(raagcert, name), types.ModuleType)}
    assert exported - _names_read_in_src() == set(KEPT)
