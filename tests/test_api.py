"""Export lists stay in step with the modules they describe, so a deleted
function cannot linger in one, and no module imports a name it never uses."""

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads and does not export."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_no_unused_imports():
    sources = [p for p in Path(ilsolve.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    sources += Path(__file__).parent.glob("*.py")
    unused = {path.name: names for path in sorted(sources) if (names := _unused_imports(path))}
    assert unused == {}


def _private_lookups(path: Path) -> list[str]:
    """``getattr``/``hasattr`` calls that name a private attribute by a
    string literal, as 'name(attribute)' at their line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.startswith("_")
        ):
            found.append(f"{node.lineno}: {node.func.id}({node.args[1].value})")
    return found


def test_no_private_attribute_lookups_by_name():
    # A private hook found by name is a decision no reader can follow.
    sources = sorted(Path(ilsolve.__file__).parent.glob("*.py"))
    found = {path.name: hits for path in sources if (hits := _private_lookups(path))}
    assert found == {}
