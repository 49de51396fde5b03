"""Every name a gapcraft module exports in ``__all__`` exists and has a
caller in the program, and the package imports and runs without scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gapcraft

MODULES = sorted(m.name for m in pkgutil.iter_modules(gapcraft.__path__))
ROOT = Path(__file__).resolve().parents[1]

# exported names no program path calls yet, each kept for a planned use
KEPT = {
    "dual_lower_bound": "the lower end of a certified Sinkhorn bracket on W1",
    "gap_dial_conditionals": "the planted conditionals of the FLD surrogate check",
}


def test_modules_found():
    assert {"models", "numgrad", "pipeline", "transport"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gapcraft.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"gapcraft.{name}.__all__ names missing attributes: {missing}"


def test_every_export_has_a_caller():
    """Each ``__all__`` name is referenced (as a name, an attribute or an
    import) somewhere in the package or the benchmark, or is in KEPT; names
    only tests call belong in tests/oracles.py."""
    files = sorted((ROOT / "src" / "gapcraft").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    exported, referenced = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {e.value for e in node.value.elts}
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
    orphans = exported - referenced
    assert sorted(orphans - set(KEPT)) == []
    assert sorted(set(KEPT) - orphans) == [], "KEPT names that are gone or now called"


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(gapcraft.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_import_leaves_scipy_unloaded():
    """No scipy at import: the package needs numpy alone."""
    code = (
        "import sys\n"
        "import gapcraft.cli, gapcraft.bound, gapcraft.pipeline\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _run_python(code).stdout.strip() == "[]"


def test_runs_with_scipy_unimportable(tmp_path):
    """verify-theorem and a small default pipeline run with every scipy
    import made to fail."""
    code = f"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from gapcraft import cli, pipeline, synthtasks

out = {str(tmp_path / "verify")!r}
assert cli.main(["verify-theorem", "--instances", "200", "--out", out]) == 0
bundle = synthtasks.generate(synthtasks.TaskSpec())
result = pipeline.run_pipeline(bundle, pipeline.PipelineConfig(scale=0.05))
print(result.holdout_error)
"""
    assert 0.0 <= float(_run_python(code).stdout.split()[-1]) <= 1.0
