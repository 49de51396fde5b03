"""Every name a gapcraft module exports in ``__all__`` exists and has a
caller in the program, every defaulted option has a setter there, every
public class member is read there, every error shares one base, and the
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
from gapcraft.numgrad import GapcraftError

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
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _program() -> tuple[dict[str, ast.Module], dict[str, ast.Module]]:
    """The parsed package modules, and those plus the benchmark's (not its
    smoke test), each by module name."""
    sources = {
        p.stem: ast.parse(p.read_text(), str(p))
        for p in sorted((ROOT / "src" / "gapcraft").glob("*.py"))
    }
    bench = {
        p.stem: ast.parse(p.read_text(), str(p))
        for p in sorted((ROOT / "perfbench").glob("*.py"))
        if p.name != "test_smoke.py"
    }
    return sources, {**sources, **bench}


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
    """(callee, is_method, key, name, position, is_field) of every defaulted
    parameter of a public function or method, and of every defaulted
    dataclass field."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, pos in _defaulted(node, 0):
                yield node.name, False, f"{node.name}({name})", name, pos, False
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [
                    s for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        key = f"{node.name}.{f.target.id}"
                        yield node.name, False, key, f.target.id, i, True
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    for name, pos in _defaulted(fn, 0 if static else 1):
                        yield fn.name, True, f"{node.name}.{fn.name}({name})", name, pos, False


def _calls(tree: ast.Module, module: str):
    """(owner, callee, call) of every call in a module.  ``owner`` is the
    module whose function or class is called, resolved from the module's
    imports and top-level definitions (``m.f(...)`` with ``m`` an imported
    module, ``f(...)`` with ``f`` imported from a module or defined here);
    it is None for a call it cannot place: a method, a builtin, a local."""
    modules: dict[str, str] = {}  # name -> module it is bound to
    members: dict[str, str] = {}  # name -> module it was imported from
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # ``import m.n as x`` binds n to x, ``import m.n`` binds m
                name = a.name.rsplit(".", 1)[-1] if a.asname else a.name.split(".")[0]
                modules[a.asname or name] = name
        elif isinstance(node, ast.ImportFrom):
            # ``from . import m`` and ``from gapcraft import m`` import modules
            package = node.module in (None, "gapcraft")
            for a in node.names:
                bound = a.asname or a.name
                if package:
                    modules[bound] = a.name
                else:
                    members[bound] = node.module.rsplit(".", 1)[-1]
    local = {
        n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute):
            owner = modules.get(f.value.id) if isinstance(f.value, ast.Name) else None
            yield owner, f.attr, node
        elif isinstance(f, ast.Name):
            owner = members.get(f.id, module if f.id in local else None)
            yield owner, f.id, node


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether ``call`` passes parameter ``name`` (at ``pos``), by keyword,
    by position or through an unpacked ``*``/``**`` argument."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return pos is not None and pos >= i
    return pos is not None and pos < len(call.args)


def _unset_options(sources: dict[str, ast.Module], program: dict[str, ast.Module]) -> set[str]:
    """Keys of the defaulted options in ``sources`` that no call in
    ``program`` sets.  A call counts for a function or a class of module
    ``m`` when it is placed in ``m`` or cannot be placed, and for a method
    only when it cannot be placed; any ``replace(...)`` keyword counts for
    every dataclass field of its name."""
    calls: dict[str, list[tuple[str | None, ast.Call]]] = {}
    for module, tree in program.items():
        for owner, callee, call in _calls(tree, module):
            calls.setdefault(callee, []).append((owner, call))
    replaced = {k.arg for _, c in calls.get("replace", []) for k in c.keywords}
    unset = set()
    for module, tree in sources.items():
        for callee, is_method, key, name, pos, is_field in _options(tree):
            if is_field and name in replaced:
                continue
            owners = (None,) if is_method else (None, module)
            if not any(
                owner in owners and _sets(c, name, pos) for owner, c in calls.get(callee, [])
            ):
                unset.add(key)
    return unset


def test_every_option_has_a_setter():
    """Each defaulted parameter of a public gapcraft function or method, and
    each defaulted dataclass field, is set by some call in the package or
    the benchmark (a keyword to ``replace`` sets a field), or is in
    KEPT_OPTIONS; an option nothing sets is a constant.  A call written
    ``m.f(...)`` or ``f(...)`` after ``from m import f`` sets only module
    ``m``'s ``f``."""
    sources, program = _program()
    unset = _unset_options(sources, program)
    assert sorted(unset - set(KEPT_OPTIONS)) == []
    assert sorted(set(KEPT_OPTIONS) - unset) == [], "KEPT_OPTIONS that are gone or now set"


def _required_optionals(tree: ast.Module):
    """``f(name)`` for each parameter without a default, of any function in
    a module (nested ones included), whose annotation admits None."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        required = positional[: len(positional) - len(a.defaults)]
        required += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is None]
        for p in required:
            if p.annotation is not None and any(
                isinstance(n, ast.Constant) and n.value is None
                for n in ast.walk(p.annotation)
            ):
                yield f"{fn.name}({p.arg})"


def test_no_required_parameter_is_optional():
    """A parameter every caller must pass takes no None: a None path that
    no caller can leave out is a path only tests take."""
    sources, _ = _program()
    found = [
        f"{module}.{key}" for module, tree in sources.items() for key in _required_optionals(tree)
    ]
    assert found == []


def test_config_defaults_are_the_class_defaults():
    """No default of a parameter or dataclass field in the package (a
    ``default_factory`` included) constructs a ``*Config`` with arguments,
    so ``SinkhornConfig()`` and ``LipschitzConfig()`` are what the pipeline
    runs, not a second set of values beside them."""
    sources, _ = _program()
    built = []
    for module, tree in sources.items():
        defaults = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults += node.args.defaults + [d for d in node.args.kw_defaults if d]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                defaults += [f.value for f in fields if f.value]
        for call in (c for d in defaults for c in ast.walk(d) if isinstance(c, ast.Call)):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name.endswith("Config") and (call.args or call.keywords):
                built.append(f"{module}.py:{call.lineno}: {ast.unparse(call)}")
    assert built == []


def test_setter_of_another_modules_function_does_not_count():
    """A call to a same-named function in another module does not set an
    option; an unplaced call of that name still does."""
    code = "def run(x, seed=0):\n    return x\n"
    program = {"alpha": ast.parse(code), "beta": ast.parse(code)}
    callers = {
        "from gapcraft import beta\nbeta.run(1, seed=2)\n": {"run(seed)"},
        "from . import beta as b\nb.run(1, seed=2)\n": {"run(seed)"},
        "from gapcraft.beta import run\nrun(1, 2)\n": {"run(seed)"},
        "from . import alpha as a\na.run(1, seed=2)\n": set(),
        "from gapcraft.alpha import run\nrun(1, 2)\n": set(),
        "run = pick()\nrun(1, seed=2)\n": set(),
    }
    for caller, expected in callers.items():
        main = {"main": ast.parse(caller)}
        assert _unset_options({"alpha": program["alpha"]}, {**program, **main}) == expected, caller


# public members no program path reads, each kept for a stated reason
KEPT_MEMBERS = {
    "RunRecord.l_fa": "RunLog.to_jsonl writes it to the run log through asdict",
    "RunRecord.l_fld": "RunLog.to_jsonl writes it to the run log through asdict",
    "RunRecord.wall_time": "RunLog.to_jsonl writes it to the run log through asdict",
    "PipelineResult.kernel": "the trained predictor that run_pipeline returns",
    "SinkhornResult.violation": "the solver diagnostics planned for the stage-1 run log",
    "SinkhornResult.potential_f": "the row potentials of the planned certified W1 bracket",
    "SinkhornResult.potential_g": "the column potentials of the planned certified W1 bracket",
}


def _members(tree: ast.Module):
    """(key, name) of every public method, property and dataclass field of
    a class in a module."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = _is_dataclass(node)
        for s in node.body:
            if isinstance(s, ast.FunctionDef):
                name = s.name
            elif dataclass and isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name):
                name = s.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{node.name}.{name}", name


def test_every_member_is_read():
    """Each public method, property and dataclass field of a gapcraft class
    is read somewhere in the package or the benchmark, by an attribute load
    of its name or a string constant equal to it (``getattr``, loops over
    field names), or is in KEPT_MEMBERS; a member only tests read belongs
    in tests/oracles.py.  Matching is by name alone, so an attribute of the
    same name on any object counts as a read."""
    sources, program = _program()
    read = set()
    for tree in program.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = {key for tree in sources.values() for key, name in _members(tree) if name not in read}
    unkept = sorted(unread - set(KEPT_MEMBERS))
    assert unkept == [], f"unread members {sorted(unread)}, of which not kept: {unkept}"
    assert sorted(set(KEPT_MEMBERS) - unread) == [], "KEPT_MEMBERS that are gone or now read"


def test_every_error_derives_from_the_package_base():
    """Every ``*Error`` class of the package is a GapcraftError, so the CLI
    maps all of them to exit 1 by catching the base."""
    errors = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(f"gapcraft.{name}")).values()
        if isinstance(obj, type) and obj.__name__.endswith("Error")
        and obj.__module__.startswith("gapcraft.") and obj is not GapcraftError
    }
    assert sorted(e.__name__ for e in errors) == [
        "CapabilityError", "DimensionError", "DivergenceError",
        "DomainError", "SolverError", "UndefinedCorrelationError",
    ]
    assert sorted(e.__name__ for e in errors if not issubclass(e, GapcraftError)) == []


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
