"""Export lists stay in step with the modules they describe, so a deleted
function cannot linger in one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ilsolve

MODULES = [info.name for info in pkgutil.iter_modules(ilsolve.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"ilsolve.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(ilsolve.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ilsolve.{node.module}")
        if hasattr(module, "__all__"):
            unexported = [alias.name for alias in node.names if alias.name not in module.__all__]
            assert unexported == [], node.module
