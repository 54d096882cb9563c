"""The package's export list stays sorted, unique and resolvable, src
keeps no exported function that nothing in src calls, and no src module
imports dataclasses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ma_multicast


def test_all_is_sorted_unique_and_resolves():
    names = ma_multicast.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ma_multicast, name)]
    assert missing == []


def test_dir_lists_every_export():
    assert set(ma_multicast.__all__) <= set(dir(ma_multicast))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        ma_multicast.no_such_export


@pytest.mark.parametrize("name", sorted(ma_multicast._HOME))
def test_each_export_is_the_object_its_home_module_defines(name):
    home = importlib.import_module(f"ma_multicast.{ma_multicast._HOME[name]}")
    assert getattr(ma_multicast, name) is getattr(home, name)
    # defined there, not re-exported from elsewhere
    assert getattr(home, name).__module__ == home.__name__


# exported functions that nothing in src calls yet, each with the reason it stays
UNCALLED_EXPORTS = {
    # perfbench/tracing.py still wraps it by name (ROADMAP item 1a)
    "sca_optimize",
}


class _References(ast.NodeVisitor):
    """Every name and attribute read in a module, outside the def of that name."""

    def __init__(self):
        self.names = set()
        self._defs = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_Name(self, node):
        if node.id not in self._defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._defs:
            self.names.add(node.attr)
        self.generic_visit(node)


def _src_trees():
    paths = sorted(Path(ma_multicast.__file__).parent.glob("*.py"))
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def test_every_exported_function_has_a_caller_in_src():
    # an import or a string in the export table is no caller: only a read of the name counts
    references = _References()
    for tree in _src_trees():
        references.visit(tree)
    functions = {name for name in ma_multicast.__all__ if inspect.isfunction(getattr(ma_multicast, name))}
    assert sorted(functions - references.names) == sorted(UNCALLED_EXPORTS)


def test_no_src_module_imports_dataclasses():
    # the records share config.Record: importing dataclasses costs a fresh process
    # 6-11 ms for it, inspect, ast and dis, plus about 1 ms per decorated class
    imported = set()
    for tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "ma_multicast" not in imported and "numpy" in imported  # the scan sees src's imports
    assert "dataclasses" not in imported
