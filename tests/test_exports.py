"""Every name a gapcraft module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import gapcraft

MODULES = sorted(m.name for m in pkgutil.iter_modules(gapcraft.__path__))


def test_modules_found():
    assert {"models", "numgrad", "pipeline", "transport"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gapcraft.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"gapcraft.{name}.__all__ names missing attributes: {missing}"
