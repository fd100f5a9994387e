"""Every public function and method of the package has a caller in the
package itself or in the benchmark harness: an entry point that only tests
reach is surface to delete, not to keep."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dpawno").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def references(node) -> Counter:
    """Identifiers a subtree uses: names, attributes, imported names and
    string constants (the tracer wraps functions by attribute name)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def public_defs(tree):
    """Module-level functions and class methods without a leading _."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not member.name.startswith("_"):
                yield member


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    used = Counter()
    for tree in trees.values():
        used += references(tree)
    package = ROOT / "src" / "dpawno"
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path, tree in trees.items() if path.parent == package
              for node in public_defs(tree)
              if used[node.name] - references(node)[node.name] < 1]
    assert not unused, f"public names with no caller outside tests: {unused}"
