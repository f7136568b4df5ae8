"""The package's public surface is declared once, in each module's __all__:
mkvis re-exports exactly those lists, and every public top-level name of a
module is in its list."""

import ast
import inspect

import pytest

import mkvis
from mkvis import blocks, covering, errors, graphs, kernel, solvers

MODULES = (blocks, covering, errors, graphs, kernel, solvers)


def test_the_package_exports_each_module_list_once():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert len(set(mkvis.__all__)) == len(mkvis.__all__)
    assert sorted(mkvis.__all__) == sorted(expected)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_export_is_its_modules_own_object(module):
    for name in module.__all__:
        assert getattr(mkvis, name) is getattr(module, name), name


def _top_level_names(module):
    """Names a module's top-level functions, classes and assignments bind."""
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (leaf.id for leaf in ast.walk(target) if isinstance(leaf, ast.Name))


def test_every_public_top_level_name_is_in_its_modules_list():
    missing = {module.__name__: sorted(name for name in _top_level_names(module)
                                       if not name.startswith("_") and name not in module.__all__)
               for module in MODULES}
    assert missing == {module.__name__: [] for module in MODULES}
