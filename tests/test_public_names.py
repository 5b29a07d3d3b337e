"""The public names: every name a module's __all__ lists resolves, and
every name the package imports from a module is one that module lists, so
a name dropped from a module cannot linger in the package's imports."""

import ast
import importlib
import pathlib
import pkgutil

import eigencoupler

_INIT = pathlib.Path(eigencoupler.__file__)


def _modules():
    return [importlib.import_module(f"eigencoupler.{info.name}")
            for info in pkgutil.iter_modules(eigencoupler.__path__)]


def test_every_module_all_resolves():
    modules = [m for m in _modules() if hasattr(m, "__all__")]
    assert len(modules) >= 10
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_imports_only_listed_names():
    imports = [node for node in ast.walk(ast.parse(_INIT.read_text()))
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module, ast.unparse(node)
        module = importlib.import_module(f"eigencoupler.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(eigencoupler, alias.asname or alias.name) is getattr(
                module, alias.name)
