"""The daemon imports nothing outside the Python standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ctxradius").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return {name.split(".")[0] for name in modules}


def test_every_absolute_import_is_stdlib():
    assert {p.name for p in SOURCES} >= {"auth.py", "server.py", "wire.py"}
    outside = {
        f"{path.name}: {module}"
        for path in SOURCES
        for module in _absolute_imports(path)
        if module not in sys.stdlib_module_names
    }
    assert not outside
