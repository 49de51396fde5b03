"""Every name a gapcraft module exports in ``__all__`` exists, and importing
the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_optimize_unloaded():
    """Only tf_convex_oracle needs scipy.optimize, and it imports it itself."""
    src = str(Path(gapcraft.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (
        "import sys\n"
        "import gapcraft.cli, gapcraft.bound, gapcraft.pipeline\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
