"""The package's import structure.  Each module imports cleanly when it is
the first one asked for, and every import sits at module level (a
module-level ``if TYPE_CHECKING:`` block included), so no import cycle
hides behind an import run inside a function."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("model", "assertions", "tabulation", "risk", "delegates", "viability", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import hamilton_rla.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _module_level_imports(tree: ast.Module) -> set[ast.AST]:
    """The imports in the module's body and in its top-level ``if TYPE_CHECKING:`` blocks."""
    allowed = set()
    for node in tree.body:
        body = [node]
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            body = node.body
        allowed.update(stmt for stmt in body if isinstance(stmt, (ast.Import, ast.ImportFrom)))
    return allowed


@pytest.mark.parametrize("path", sorted((SRC / "hamilton_rla").glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    allowed = _module_level_imports(tree)
    misplaced = [
        f"{path.name}:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in allowed
    ]
    assert not misplaced, f"imports below module level: {misplaced}"
