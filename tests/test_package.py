"""The package's public surface is the union of its modules' ``__all__``,
and every module reads or exports each name it imports."""

import ast
import types
from pathlib import Path

import phaselock
from phaselock import analysis, dynamics, errors, netfile, network, planar

MODULES = (analysis, dynamics, errors, netfile, network, planar)


def _is_submodule(name: str) -> bool:
    value = getattr(phaselock, name)
    return isinstance(value, types.ModuleType) and value.__name__ == f"phaselock.{name}"


def test_package_exports_exactly_the_modules_public_names():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(phaselock, name) is getattr(module, name), name
    public = {name for name in dir(phaselock) if not name.startswith("_") and not _is_submodule(name)}
    assert public == set(declared)


def _unread_imports(path: Path) -> set:
    """Names ``path`` imports (star and __future__ imports aside) that it
    neither reads nor lists in a literal ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if alias.name != "*"
    }
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return imported - read - exported


def test_every_imported_name_is_read_or_exported():
    sources = sorted(Path(phaselock.__file__).parent.glob("*.py"))
    assert len(sources) == 10
    unread = {path.name: _unread_imports(path) for path in sources}
    assert {name: names for name, names in unread.items() if names} == {}
