"""Every imported name is used by the module that imports it.

An ``ast`` scan of the package, the scripts and the tests.  It skips the
package's ``__init__.py`` (its imports are re-exports), ``from __future__``
imports and import lines marked ``# noqa: F401`` (names kept bound for the
benchmark's tracer).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name ``path`` imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    paths = [
        *(ROOT / "src" / "lincom_ci").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
    ]
    found = [hit for path in sorted(paths) if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert found == []
