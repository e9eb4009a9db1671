"""Every public top-level function and class of the package has a caller.

A public name that only the tests use is API kept alive for its own
tests; it is deleted instead.  Callers count in the package itself, the
experiment scripts and the benchmark.
"""

from __future__ import annotations

import ast
import re
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
                yield module, node.name, node.lineno


def test_every_public_definition_is_used_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for folder in CALLER_DIRS for path in sorted((REPO / folder).rglob("*.py"))}
    unused = []
    for module, name, lineno in _public_definitions():
        if (module.stem, name) in EXEMPT:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(word.search(line)
                   for path, lines in sources.items()
                   for i, line in enumerate(lines, 1)
                   if not (path == module and i == lineno))
        if not used:
            unused.append(f"{module.stem}.{name}")
    assert not unused, f"public names with no caller outside the tests: {unused}"
