"""The package's modules import one another without a cycle.

A cycle forces workarounds such as building an object through
``type(obj)`` because its class cannot be imported.  The graph is read
from the source with ``ast``, so imports inside functions count too.
"""

from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

import tomolab

PACKAGE = Path(tomolab.__file__).resolve().parent
MODULES = {module.name for module in pkgutil.iter_modules(tomolab.__path__)}


def import_graph() -> dict:
    """Module name -> the set of the package's modules it imports."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                parts = [alias.name.split(".") for alias in node.names]
                targets.update(p[1] for p in parts if p[0] == "tomolab" and len(p) > 1)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level == 0:
                    if base != "tomolab" and not base.startswith("tomolab."):
                        continue
                    base = base[len("tomolab."):] if "." in base else ""
                if base:  # from .x import y, or from tomolab.x import y
                    targets.add(base.split(".")[0])
                else:  # from . import x, y
                    targets.update(alias.name for alias in node.names)
        graph[name] = targets & modules.keys()
    return graph


def find_cycle(graph: dict):
    """A list of modules that import each other in a ring, or None."""
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, path + [nxt])
                if cycle:
                    return cycle
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = visit(start, [start])
            if cycle:
                return cycle
    return None


def test_package_has_no_import_cycle():
    graph = import_graph()
    # The parser sees the package: every module is read, and the known
    # edges are found in each import form.
    assert graph.keys() == MODULES | {"__init__"}
    assert {"priors", "qobj"} <= graph["smc"]
    assert "smc" in graph["harness"] and "smc" in graph["__init__"]
    assert find_cycle(graph) is None, find_cycle(graph)


def test_all_names_every_module():
    """``tomolab.__all__`` lists each module of the package but the
    ``python -m tomolab`` entry point."""
    assert sorted(tomolab.__all__) == sorted(MODULES - {"__main__"})


def test_cycle_finder_reports_a_ring():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
