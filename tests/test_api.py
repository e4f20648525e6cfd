"""Export lists stay in step with the modules they describe, so a deleted
function cannot linger in one, and no module imports a name it never uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _declared(tree: ast.Module) -> set[str]:
    """Attributes the module's own classes declare: the names their bodies
    bind or list in ``__slots__``, and those their methods assign on
    ``self``."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        names.update(ast.literal_eval(node.value))
                    elif isinstance(target, ast.Name):
                        names.add(target.id)
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    names.add(node.attr)
    return names


def _foreign_private_writes(path: Path) -> list[str]:
    """Assignments to a private attribute, or to an item of one, on
    anything but ``self``, where no class of the module declares the
    attribute, as 'line: target'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    declared = _declared(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            if isinstance(target, ast.Starred):
                targets.append(target.value)
                continue
            owner = target
            while isinstance(owner, ast.Subscript):
                owner = owner.value
            if (
                isinstance(owner, ast.Attribute)
                and _private(owner.attr)
                and not (isinstance(owner.value, ast.Name) and owner.value.id == "self")
                and owner.attr not in declared
            ):
                found.append(f"{node.lineno}: {ast.unparse(target)}")
    return found


def test_no_module_writes_another_modules_private_state():
    # A private attribute has one owner: the module whose class declares
    # it.  Another module that writes it shares a cache or a flag with no
    # owner a reader can find.
    sources = sorted(Path(ilsolve.__file__).parent.glob("*.py"))
    found = {path.name: hits for path in sources if (hits := _foreign_private_writes(path))}
    assert found == {}


def test_private_write_check_sees_items_and_allows_declared_attributes(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "class Report:\n"
        "    _residual: object = None\n"
        "def f(report, problem, self):\n"
        "    report._residual = 1\n"
        "    problem._factors[0] = 2\n"
        "    problem._cache, x = 3, 4\n"
        "    problem._count += 1\n"
        "    self._own = 5\n",
        encoding="utf-8",
    )
    assert _foreign_private_writes(source) == [
        "5: problem._factors[0]",
        "6: problem._cache",
        "7: problem._count",
    ]


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level private functions, classes and constants, and the
    private methods of the module's classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if _private(name)]


def _references(tree: ast.Module) -> set[str]:
    """Names the module reads, as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _unreferenced_private_names(sources: list[Path]) -> dict[str, list[str]]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = set().union(*(_references(tree) for tree in trees.values()))
    unread = {name: [d for d in _private_definitions(tree) if d not in read] for name, tree in trees.items()}
    return {name: names for name, names in unread.items() if names}


def test_every_private_definition_is_referenced():
    # A private name is not part of the API, so one that nothing in the
    # package reads is dead code.
    assert _unreferenced_private_names(sorted(Path(ilsolve.__file__).parent.glob("*.py"))) == {}


def test_private_reference_check_sees_leftovers(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "class _Helper:\n"
        "    def _used(self):\n"
        "        return _LIMIT\n"
        "    def _stale(self):\n"
        "        return self._used()\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "class _Leftover:\n"
        "    pass\n"
        "def run():\n"
        "    return _Helper()\n",
        encoding="utf-8",
    )
    assert _unreferenced_private_names([source]) == {"module.py": ["_unused", "_stale", "_Leftover"]}


def _mutable_dataclasses(path: Path) -> list[str]:
    """Classes decorated ``@dataclass`` or ``@dataclasses.dataclass`` without
    ``frozen=True``, as 'line: name'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name != "dataclass":
                continue
            frozen = call and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in call.keywords
            )
            if not frozen:
                found.append(f"{node.lineno}: {node.name}")
    return found


def test_every_dataclass_is_frozen():
    """A dataclass holds a value built and checked once: specs, rows,
    reports, configurations and problems are never changed after
    construction, so a setting cannot skip its check and a report cannot
    be rewritten.  Out of scope: ``Preconditioner`` is not a dataclass,
    and its ``inner_iterations``/``inner_failures`` counters are the one
    mutable state left, kept while the benchmark calls ``reset_stats``."""
    sources = sorted(Path(ilsolve.__file__).parent.glob("*.py"))
    found = {path.name: hits for path in sources if (hits := _mutable_dataclasses(path))}
    assert found == {}


def test_frozen_dataclass_check_sees_every_form(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Bare:\n"
        "    x: int\n"
        "@dataclass(eq=False)\n"
        "class Called:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class Thawed:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True, eq=False)\n"
        "class Qualified:\n"
        "    x: int\n"
        "class Plain:\n"
        "    x: int\n",
        encoding="utf-8",
    )
    assert _mutable_dataclasses(source) == ["4: Bare", "7: Called", "10: Thawed"]


def test_runtime_loads_no_test_dependency():
    # The package runs on numpy alone: scipy, hypothesis and pytest are test
    # dependencies, so neither the library nor the command line may load one.
    code = (
        "import sys, ilsolve, ilsolve.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hypothesis', 'pytest')))"
    )
    path = [str(Path(ilsolve.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
