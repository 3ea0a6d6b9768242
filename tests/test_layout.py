"""Test-only code stays out of src/.

Every module-level function and class of the package must be referenced,
as a name or an attribute, by the package or by the benchmark somewhere
other than its own definition. Code that only tests use belongs in
tests/ (see tests/oracles.py).
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pilothop").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node) -> Counter:
    """Names referenced in node's subtree, as Name ids and Attribute attrs."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_package_definition_has_a_production_reader():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unread = []
    for path in PACKAGE:
        for node in trees[path].body:
            if isinstance(node, DEFINITIONS):
                # references inside its own body (recursion) do not count
                if total[node.name] - references(node)[node.name] == 0:
                    unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unread, f"defined in src/ but read only by tests: {unread}"
