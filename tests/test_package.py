import importlib
import subprocess
import sys

import pytest

import finiteweyl


def test_every_public_name_resolves_to_its_home_module_object():
    for name in finiteweyl.__all__:
        value = getattr(finiteweyl, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    namespace: dict = {}
    exec("from finiteweyl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(finiteweyl.__all__)
    assert set(finiteweyl.__all__) <= set(dir(finiteweyl))
    assert finiteweyl.group is importlib.import_module("finiteweyl.group")
    with pytest.raises(AttributeError, match="has no attribute 'serialize_everything'"):
        finiteweyl.serialize_everything


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, finiteweyl; print([m for m in sys.modules if m.startswith('finiteweyl')])"
    argv = [sys.executable, "-c", code]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "['finiteweyl']\n")
