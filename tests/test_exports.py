"""The package exports only what its own code uses, and a short list of
names kept on purpose; so do the methods of its exported classes."""

import ast
import types
from pathlib import Path

import raagcert

SRC = Path(raagcert.__file__).resolve().parent
TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]

_BASIS = "brackets Lyndon traces into the basis of the graded pieces; its fate is open"

# exported although nothing in the package calls them
KEPT = {
    "compose": "builds the joins and disjoint unions of the paper's graph families",
    "path_graph": "builds the paths of the paper's examples",
    "to_edge_list": "writes the edge-list format that from_edge_list reads",
    "dominates": "the definition that the closed-form domination closure replaces",
    "mba_parameters": "the paper's max-by-abelian test, which benchmarks/tests imports",
    "transvection_free_vertices": "the vertices that the TRANSVECTION_FREE leaf needs to "
                                  "be every vertex; demo 03 prints them",
    "bracketing": _BASIS,
    "standard_factorization": _BASIS,
    "dependence_set": _BASIS,
    "initial_vertices": _BASIS,
    "trace_class": _BASIS,
}

# public methods of exported classes that nothing in the package calls
KEPT_METHODS = {
    "Graph.relabel": "relabels the benchmark's seeded graphs and the tests' labellings; "
                     "certifying a canonical relabelling would call it in the package",
    "TraceClass.words": "reads the word cache that the benchmark clears and measures",
    "BracketTree.leaves": _BASIS,
}


def _names_read_in_src() -> set[str]:
    """Every name that some code in the package reads, except a top-level
    function or class reading its own name."""
    read = set()
    for tree in TREES:
        for top in tree.body:
            own = getattr(top, "name", None)
            read.update(node.id for node in ast.walk(top)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id != own)
    return read


def _attributes_read_in_src() -> set[str]:
    """Every attribute that some code in the package reads, except a method
    reading its own name, as a recursion does."""
    read = set()
    for tree in TREES:
        own = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for method in cls.body if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute) and node.attr == method.name}
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in own)
    return read


def _public_methods() -> set[tuple[str, str]]:
    """(class, method) for each public method, classmethod and property
    defined in the body of an exported class."""
    classes = {name for name in raagcert.__all__ if isinstance(getattr(raagcert, name), type)}
    return {(top.name, item.name) for tree in TREES for top in tree.body
            if isinstance(top, ast.ClassDef) and top.name in classes
            for item in top.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def test_every_export_has_a_caller_or_a_reason():
    exported = {name for name in raagcert.__all__
                if not isinstance(getattr(raagcert, name), types.ModuleType)}
    assert exported - _names_read_in_src() == set(KEPT)


def test_every_public_method_has_a_caller_or_a_reason():
    read = _attributes_read_in_src()
    unread = {f"{cls}.{method}" for cls, method in _public_methods() if method not in read}
    assert unread == set(KEPT_METHODS)
