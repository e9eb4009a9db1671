"""Every public top-level function and class of the package has a caller.

A public name that only the tests use is API kept alive for its own
tests; it is deleted instead.  Callers count in the package itself, the
experiment scripts and the benchmark, and only code counts: a name, an
attribute, an imported name, or a string constant equal to the name (the
benchmark patches functions by name).  A comment or docstring that
mentions a name does not call it.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "tomolab"
CALLER_DIRS = ("src", "scripts", "bench")

# Reference oracles: the channel/state pairing check (acceptance C4) and
# the qobj tests compare the package's contractions against these direct
# definitions, so they have no caller in the package by design.
EXEMPT = {("qobj", "hs_inner"), ("qobj", "apply_choi")}


def _public_definitions():
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield module, node.name


def _code_references(tree):
    """Every name that the code of a parsed module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_definition_is_used_outside_the_tests():
    referenced = {name for folder in CALLER_DIRS for path in sorted((REPO / folder).rglob("*.py"))
                  for name in _code_references(ast.parse(path.read_text(encoding="utf-8")))}
    unused = [f"{module.stem}.{name}" for module, name in _public_definitions()
              if (module.stem, name) not in EXEMPT and name not in referenced]
    assert not unused, f"public names with no caller outside the tests: {unused}"
