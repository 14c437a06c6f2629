import importlib
import pkgutil
import subprocess
import sys

import pytest

import fftasca

MODULES = ["fftasca", *(f"fftasca.{m.name}" for m in pkgutil.iter_modules(fftasca.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError for a stale name
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exported if n not in namespace] == []


def _fresh(code, env):
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_numpy(child_env):
    assert _fresh("import sys, fftasca; print('numpy' in sys.modules)", child_env) == "False\n"


def test_every_public_name_and_submodule_resolves_on_first_use(child_env):
    check = """
import importlib, pkgutil, fftasca
submodules = [m.name for m in pkgutil.iter_modules(fftasca.__path__)]
listed = dir(fftasca)
assert [n for n in (*fftasca.__all__, *submodules) if n not in listed] == []
for name in submodules:
    assert getattr(fftasca, name) is importlib.import_module(f"fftasca.{name}"), name
for name in fftasca.__all__:
    value = getattr(fftasca, name)
    assert getattr(value, "__module__", "").startswith("fftasca."), name
assert not hasattr(fftasca, "no_such_name")
"""
    _fresh(check, child_env)
