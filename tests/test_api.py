"""The public surface: every exported name exists, and the package re-exports
only names that a library submodule exports itself."""

import importlib

import pytest

import stochstore

LIBRARY_MODULES = ("distributions", "storage", "balance", "montecarlo", "scenario")
MODULES = ("stochstore", "stochstore.cli", *(f"stochstore.{name}" for name in LIBRARY_MODULES))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_come_from_library_modules():
    # Containment, not equality: a submodule may export more than the package
    # re-exports (montecarlo.QUANTILE_LEVELS, for one).
    exported = set()
    for name in LIBRARY_MODULES:
        exported.update(importlib.import_module(f"stochstore.{name}").__all__)
    stray = set(stochstore.__all__) - {"__version__"} - exported
    assert not stray, f"stochstore.__all__ names no library module exports: {sorted(stray)}"
