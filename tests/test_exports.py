"""Every name a gapcraft module exports in ``__all__`` exists and has a
caller in the program, every defaulted option has a setter there, and the
package imports and runs without scipy."""

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


# defaulted options no program path sets, each kept for a stated reason
KEPT_OPTIONS = {
    "main(argv)": "the console entry point, which reads sys.argv",
    "recalibrate_head(conditional)": (
        "criterion 7 recalibrates against the generator's true conditional"
    ),
    "LipschitzConfig.grad_clip": (
        "the bit-exact reference-loop tests pick it so that the clip binds "
        "on some epochs and not on others"
    ),
}


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(fn: ast.FunctionDef, bound: int):
    """(name, position) of each defaulted parameter; position is None for
    keyword-only ones and counts from the first unbound parameter."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, p in enumerate(positional[first:], first):
        yield p.arg, i - bound
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield p.arg, None


def _options(tree: ast.Module):
    """(callee, key, name, position, is_field) of every defaulted parameter
    of a public function or method, and of every defaulted dataclass field."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, pos in _defaulted(node, 0):
                yield node.name, f"{node.name}({name})", name, pos, False
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        yield node.name, f"{node.name}.{f.target.id}", f.target.id, i, True
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    for name, pos in _defaulted(fn, 0 if static else 1):
                        yield fn.name, f"{node.name}.{fn.name}({name})", name, pos, False


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether ``call`` passes parameter ``name`` (at ``pos``), by keyword,
    by position or through an unpacked ``*``/``**`` argument."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return pos is not None and pos >= i
    return pos is not None and pos < len(call.args)


def test_every_option_has_a_setter():
    """Each defaulted parameter of a public gapcraft function or method, and
    each defaulted dataclass field, is set by some call in the package or
    the benchmark (a keyword to ``replace`` sets a field), or is in
    KEPT_OPTIONS; an option nothing sets is a constant."""
    sources = sorted((ROOT / "src" / "gapcraft").glob("*.py"))
    program = sources + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_smoke.py"
    )
    trees = {p: ast.parse(p.read_text(), str(p)) for p in program}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    replaced = {k.arg for c in calls.get("replace", []) for k in c.keywords}
    unset = set()
    for path in sources:
        for callee, key, name, pos, is_field in _options(trees[path]):
            if is_field and name in replaced:
                continue
            if not any(_sets(c, name, pos) for c in calls.get(callee, [])):
                unset.add(key)
    assert sorted(unset - set(KEPT_OPTIONS)) == []
    assert sorted(set(KEPT_OPTIONS) - unset) == [], "KEPT_OPTIONS that are gone or now set"


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
