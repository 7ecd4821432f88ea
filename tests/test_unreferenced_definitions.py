"""Every function, method, property and class of the package is referenced.

An ``ast`` scan of ``src/lincom_ci``.  A defined name counts as referenced
when it appears as a ``Name``, an ``Attribute`` or a string constant in the
package, the scripts, the tests or the benchmark harness; string constants
count because ``perfbench/tracing.py`` wraps functions by name.  A
definition is not a reference to itself.  Dunder names are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, as a name, an attribute or a string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_is_referenced():
    package = sorted((ROOT / "src" / "lincom_ci").glob("*.py"))
    readers = [*package, *(path for folder in ("scripts", "tests", "perfbench")
                           for path in (ROOT / folder).glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in readers}
    used = set().union(*map(referenced, trees.values()))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in package for node in ast.walk(trees[path])
        if isinstance(node, DEFINITIONS) and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unreferenced == []
