"""The package's public surface is the union of its modules' ``__all__``."""

import types

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
