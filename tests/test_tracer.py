"""The benchmark's tracer wraps names inside the package by attribute;
installing it must find every one of them, and uninstalling it must put
back exactly what was there.  A renamed or removed name otherwise shows
only when the benchmark runs with ``--trace 1``."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import tomolab

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every module of the package and every class defined in one."""
    modules = [tomolab] + [importlib.import_module(f"tomolab.{module.name}")
                           for module in pkgutil.iter_modules(tomolab.__path__)]
    classes = {cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("tomolab")}
    return list(modules) + sorted(classes, key=lambda cls: cls.__qualname__)


def snapshot():
    return {(id(owner), name): value
            for owner in namespaces() for name, value in vars(owner).items()}


def test_install_then_uninstall_restores_every_patched_name():
    before = snapshot()
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, name, original in patched:
            assert before[(id(owner), name)] is original, name
            assert vars(owner)[name] is not original, name
        patched_names = {name for _, name, _ in patched}
        assert {"random_process_design", "posterior_covariance",
                "make_heuristic"} <= patched_names
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
