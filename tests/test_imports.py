"""Unused-import guard for the package and the scripts.

A deletion can leave behind an import that nothing reads any more.  This
check needs only the standard library: it parses each module and reports
every imported name that no expression in that module loads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "motionflow").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))


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
