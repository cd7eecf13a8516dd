"""Every public name is used: each entry of a module's ``__all__`` is
referenced somewhere in ``src/braidperm`` outside its own definition and the
``__all__`` lists, or is named in README.md.  A name only the tests use
belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidperm"


def _trees():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree, skip):
    """Names loaded and attributes read in tree, outside the top-level
    definitions listed in skip."""
    found = set()
    stack = [node for node in tree.body if getattr(node, "name", None) not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_public_names():
    trees = _trees()
    readme = (ROOT / "README.md").read_text()
    unused = []
    for module, tree in trees.items():
        for name in _exported(tree):
            referenced = any(
                name in _references(other, {name} if other is tree else set())
                for other in trees.values()
            )
            if not referenced and not re.search(rf"\b{re.escape(name)}\b", readme):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_is_used_or_documented():
    assert unused_public_names() == []

