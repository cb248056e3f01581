"""The export lists name only what exists, so a class deleted from a module
but left in an ``__all__`` fails here rather than in ``from l1ppr import *``."""

import importlib
import pkgutil

import pytest

import l1ppr

MODULES = ["l1ppr"] + [f"l1ppr.{m.name}" for m in pkgutil.iter_modules(l1ppr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_exports_every_module_export_once():
    mods = [l1ppr.graph, l1ppr.objective, l1ppr.solver, l1ppr.synth, l1ppr.diagnostics, l1ppr.sweep]
    assert l1ppr.__all__ == [n for mod in mods for n in mod.__all__] + ["__version__"]
    assert "active_backend" not in l1ppr.__all__
