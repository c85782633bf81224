"""Unused-import and orphaned-helper guards for the package and the scripts.

A deletion can leave behind an import that nothing reads any more, or a
private helper whose last call went with it.  These checks need only the
standard library: they parse each module and report every imported name
that no expression in that module loads, and every module-level private
function or class of the package that no line of the package names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "motionflow").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def orphaned_helpers(sources: list) -> list:
    """Names of the module-level private functions and classes defined in
    sources that no expression, attribute or import in sources names."""
    trees = [ast.parse(source) for source in sources]
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")]
    return sorted(name for name in defined if name not in named)


def test_guard_sees_modules():
    names = {path.name for path in MODULES}
    assert {"vfnet.py", "sampler.py", "demo_pipeline.py"} <= names


def test_guard_finds_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from . import se3, textio\nfrom .vfnet import ConditionVector as CV\n"
              "def f(x: CV):\n    return np.sqrt(x) + os.path.sep + se3.pi\n")
    assert unused_imports(source) == [(2, "math"), (5, "textio")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_helper_guard_finds_an_orphan():
    helpers = ("import numpy as np\n"
               "def _used(x):\n    return np.sqrt(x)\n"
               "def _orphan(x):\n    \"\"\"Text naming _orphan does not keep it.\"\"\"\n"
               "    return x\n"
               "class _Shape:\n    pass\n"
               "class _Dead:\n    pass\n")
    caller = ("from .a import _used\n"
              "def public(x) -> _Shape:\n    return _used(x)  # not _orphan\n")
    assert orphaned_helpers([helpers, caller]) == ["_Dead", "_orphan"]


def test_no_orphaned_private_helpers():
    assert orphaned_helpers([path.read_text() for path in PACKAGE]) == []
