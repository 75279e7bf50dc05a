"""The package root: each object has one import path, its defining module, and
importing the CLI loads only what its calls use."""

import ast
import functools
import importlib
import inspect
import json
import re
import subprocess
import sys

import wshare
from wshare import cli

from helpers import ROOT, child_env
from src_lines import KINDS, count

MODULES = ("statevec", "protocol", "attacks", "teleport", "analytic", "cli")


def test_submodule_import_binds_the_module():
    import wshare.teleport as t

    assert inspect.ismodule(t)
    assert t is sys.modules["wshare.teleport"]
    for name in MODULES:
        module = importlib.import_module(f"wshare.{name}")
        assert getattr(wshare, name) is module, name


def test_root_import_loads_no_submodule_and_binds_only_the_version():
    code = ("import json, sys, wshare; print(json.dumps("
            "[sorted(m for m in sys.modules if m.startswith('wshare.')),"
            " sorted(n for n in vars(wshare) if not n.startswith('__')), wshare.__version__]))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], wshare.__version__]


# Public functions that nothing in src/, demos/ or README.md calls: the
# test-only oracles that guard a fast path.  A composition of public calls
# that only tests use belongs in those tests, not here.
UNREFERENCED_ORACLES = {
    "x_round_detection_given_home0",  # the strict X rule's 1/2, per attack
    "eve_recover_attempt",  # the scalar oracle of eve_recover_batch
}


def named_in(node) -> set[str]:
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_public_function_is_used():
    # A public top-level function of src/wshare, or a public method or
    # property of a public class there, counts as used when code in src/ or
    # demos/ names it outside its own def, or README.md mentions it.
    sources = sorted((ROOT / "src" / "wshare").glob("*.py"))
    public, named = {}, set()
    for path in sources + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                parts, owner = [node], ""
            else:  # each member apart, so a method that names itself is not used by that
                parts, owner = node.body, node.name
                named |= set().union(*map(named_in, node.bases + node.decorator_list))
            for part in parts:
                own = part.name if path in sources and isinstance(part, ast.FunctionDef) else None
                if own is not None and not own.startswith("_") and not owner.startswith("_"):
                    public[own] = f"{path.name} {owner}".rstrip()
                named |= named_in(part) - {own}
    readme = (ROOT / "README.md").read_text()
    unused = {name for name in public
              if name not in named and not re.search(rf"\b{name}\b", readme)}
    assert unused == UNREFERENCED_ORACLES, {name: public.get(name) for name in unused}


def test_only_the_attack_model_takes_an_attack_apart():
    # An attack is an AttackModel everywhere: no public function or method
    # of src/wshare (dunders included) takes an attack's kind or y as its
    # own parameter, except the constructor that validates them once.
    taking = set()
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner, parts = (node.name + ".", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
            for part in parts:
                if not isinstance(part, ast.FunctionDef):
                    continue
                if part.name.startswith("_") and not (part.name.startswith("__") and part.name.endswith("__")):
                    continue
                args = part.args.posonlyargs + part.args.args + part.args.kwonlyargs
                if {"kind", "y"} & {arg.arg for arg in args}:
                    taking.add(f"{path.name}: {owner}{part.name}")
    assert taking == {"attacks.py: AttackModel.__init__"}


def defined_in(node) -> set[str]:
    """The names a top-level statement defines: a function's or class's, or
    the plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return {target.id for target in targets if isinstance(target, ast.Name)}


def test_every_private_helper_is_used():
    # A private top-level function, class or module constant of src/wshare
    # counts as used when code in src/ names it outside its own definition;
    # tests do not count.
    private, named = {}, set()
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = defined_in(node)
            private |= {name: path.name for name in own if name.startswith("_") and not name.endswith("__")}
            named |= named_in(node) - own
    assert len(private) >= 45 and {"_BLOCK_TRIALS", "_BATCH_ROWS"} <= set(private)  # the walk sees both kinds
    assert not set(private) - named, {name: private[name] for name in set(private) - named}


# What a process pool loads; a CLI call needs none of it unless a sweep
# starts workers.
POOL_MODULES = ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess")
# What only a call that draws needs: `curves` or a refused call draws nothing.
DRAW_MODULES = ("numpy.random",)
# What generating record classes would load; no module of the package does.
RECORD_MODULES = ("dataclasses",)
# One call of each verb, each below the pool threshold.
SET_UP_FREE_CALLS = (["sweep", "--workers", "2"], ["run", "--format", "records"], ["curves"], ["teleport-demo"])


def test_cli_set_up_stays_out_of_the_call(tmp_path):
    # Importing the CLI loads no pool machinery, no generator and no
    # dataclasses.  Once it and numpy's generator are loaded, no call imports
    # another module: its set-up (argparse's locale, say) is paid at import,
    # not inside the call.
    assert 1000 < cli._TRIALS_PER_WORKER  # the sweep's default trials, one grid point
    code = ("import json, sys\n"
            "import wshare.cli\n"
            f"pool = [name for name in {POOL_MODULES + DRAW_MODULES + RECORD_MODULES!r} if name in sys.modules]\n"
            "import numpy\n"
            "numpy.random.default_rng(0).random()\n"
            "new = []\n"
            f"for i, argv in enumerate({SET_UP_FREE_CALLS!r}):\n"
            "    before = set(sys.modules)\n"
            "    wshare.cli.main([*argv, '--out', f'{sys.argv[1]}/{i}.out'])\n"
            "    new.append(sorted(set(sys.modules) - before))\n"
            "print(json.dumps([pool, new]))\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [[]] * len(SET_UP_FREE_CALLS)]
    assert all((tmp_path / f"{i}.out").stat().st_size for i in range(len(SET_UP_FREE_CALLS)))


# No record is a dataclass: each @dataclass brings back `import dataclasses`
# and methods generated and compiled at import, and so does `from __future__
# import annotations`, under which a named tuple builds a ForwardRef per
# field.  The five records that are not named tuples share statevec._Record.
def test_set_up_generates_no_record_code():
    dataclasses, future = [], []
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "dataclass" in set().union(*map(named_in, node.decorator_list)):
                dataclasses.append(f"{path.name}: {node.name}")
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                future += [f"{path.name}: {alias.name}" for alias in node.names]
    assert dataclasses == []
    assert future == []


# A cross-reference in a docstring: :func:`name`, :class:`~wshare.module.Name` and so on.
CROSS_REFERENCE = re.compile(r":(?:func|meth|class|data|attr|mod):`~?([\w.]+)`")


def _found(owner, parts: list[str]) -> bool:
    try:
        functools.reduce(getattr, parts, owner)
        return True
    except AttributeError:
        return False


def _resolves(module, owner, target: str) -> bool:
    """Whether ``target`` names a live object: relative to the module, then to the class
    whose docstring (or method's) names it, then as a dotted path from an importable module."""
    parts = target.split(".")
    if _found(module, parts) or owner is not None and _found(owner, parts):
        return True
    for cut in range(len(parts), 0, -1):
        try:
            return _found(importlib.import_module(".".join(parts[:cut])), parts[cut:])
        except ImportError:
            continue
    return False


def test_every_docstring_cross_reference_resolves():
    # A pointer that states where a fact lives must not dangle once the
    # fact's owner is renamed or deleted.
    dangling, seen = [], 0
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        module = importlib.import_module(f"wshare.{path.stem}")
        nodes = [(ast.parse(path.read_text()), None)]
        while nodes:
            node, owner = nodes.pop()
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for target in CROSS_REFERENCE.findall(ast.get_docstring(node, clean=False) or ""):
                    seen += 1
                    if not _resolves(module, owner, target):
                        dangling.append(f"{path.name}: {target}")
            for child in ast.iter_child_nodes(node):
                nodes.append((child, getattr(module, child.name, None) if isinstance(child, ast.ClassDef) else owner))
    assert seen >= 60  # the walk reads every module's docstrings
    assert dangling == []


def test_src_line_kinds_add_up_to_each_file():
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        counts = count(path)
        assert tuple(counts) == KINDS
        assert sum(counts.values()) == len(path.read_text().splitlines()), path.name
