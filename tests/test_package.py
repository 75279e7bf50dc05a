"""The package root: each object has one import path, its defining module."""

import importlib
import inspect
import json
import subprocess
import sys

import wshare

from helpers import child_env

MODULES = ("statevec", "protocol", "attacks", "teleport", "analytic", "cli")


def test_submodule_import_binds_the_module():
    import wshare.teleport as t

    assert inspect.ismodule(t)
    assert t is sys.modules["wshare.teleport"]
    for name in MODULES:
        assert getattr(wshare, name) is importlib.import_module(f"wshare.{name}"), name


def test_root_import_loads_no_submodule_and_binds_only_the_version():
    code = ("import json, sys, wshare; print(json.dumps("
            "[sorted(m for m in sys.modules if m.startswith('wshare.')),"
            " sorted(n for n in vars(wshare) if not n.startswith('__')), wshare.__version__]))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], wshare.__version__]
