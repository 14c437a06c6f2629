import importlib
import pkgutil

import pytest

import fftasca

MODULES = ["fftasca", *(f"fftasca.{m.name}" for m in pkgutil.iter_modules(fftasca.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError for a stale name
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exported if n not in namespace] == []
