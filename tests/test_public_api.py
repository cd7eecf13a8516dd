"""Every public name is used: each entry of a module's ``__all__`` is
referenced somewhere in ``src/braidperm`` outside its own definition and the
``__all__`` lists, or is named in README.md.  A name only the tests use
belongs in the tests.  Likewise every defaulted parameter of a module-level
function in ``__all__`` is passed, by keyword or by position, by some call in
``src/braidperm``, unless README.md names the function: a setting with one
value in use is a constant.  And every public method or property of a class
defined in the package is read, as an attribute or a name, in ``src/braidperm``
or in the ``perfbench/`` harness, or is named in README.md.  Every public
``Session`` method, a cache the claim checkers share, is called in
``claims.py`` outside its own definition, whatever README.md says: README
uses words such as "image" and "lattice" in their ordinary sense.  The
``Session`` cache is one mechanism: ``_cache`` is touched only by
``__init__`` and ``_cached``, and what ``__init__`` sets up does not depend
on the claims a run selects.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidperm"
HARNESS = ROOT / "perfbench"


def _trees(directory=PACKAGE):
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(directory.glob("*.py"))
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


def _in_readme(name, readme):
    return re.search(rf"\b{re.escape(name)}\b", readme) is not None


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
            if not referenced and not _in_readme(name, readme):
                unused.append(f"{module}.{name}")
    return unused


def _passed(call, position, name):
    """Whether call gives the parameter at this position with this name a value."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults():
    """module.function(parameter) for each defaulted parameter of a function
    in a module's ``__all__`` that no call in the package passes."""
    trees = _trees()
    readme = (ROOT / "README.md").read_text()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        public = set(_exported(tree))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name not in public:
                continue
            if _in_readme(node.name, readme):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for position, name in defaulted:
                if not any(_passed(c, position, name) for c in calls.get(node.name, [])):
                    unpassed.append(f"{module}.{node.name}({name})")
    return unpassed


def unused_public_methods():
    """module.Class.method for each public method or property of a class in
    the package that no attribute or name in the package or the harness reads."""
    trees = _trees()
    readme = (ROOT / "README.md").read_text()
    sources = [*trees.values(), *_trees(HARNESS).values()]
    read = set().union(*(_references(tree, set()) for tree in sources))
    unused = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in read
                    and not _in_readme(node.name, readme)
                ):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    return unused


def uncalled_methods(tree, class_name):
    """class_name.method for each public method of the class in tree that no
    call in tree makes outside the method's own body."""
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    uncalled = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
            continue
        stack, called = [tree], False
        while stack and not called:
            node = stack.pop()
            if node is method:
                continue
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            called = isinstance(func, ast.Attribute) and func.attr == method.name
            stack.extend(ast.iter_child_nodes(node))
        if not called:
            uncalled.append(f"{class_name}.{method.name}")
    return uncalled


def cache_policy_breaches(tree, class_name="Session"):
    """method:line, in line order, for each touch of a ``_cache`` attribute
    anywhere in tree outside class_name's __init__ and _cached, and for each
    read of a ``claims`` attribute (config.claims) in its __init__; the
    method is "-" outside the class."""
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    owners = {
        node: method.name
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
    }
    breaches = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = owners.get(node, "-")
        if (node.attr == "_cache" and owner not in ("__init__", "_cached")) or (
            node.attr == "claims" and owner == "__init__"
        ):
            breaches.append((node.lineno, f"{owner}:{node.lineno}"))
    return [breach for _, breach in sorted(breaches)]


def test_the_session_cache_is_one_mechanism():
    assert cache_policy_breaches(_trees()["claims"]) == []


def test_a_claim_dependent_cache_is_a_breach():
    tree = ast.parse(
        "class Session:\n"
        "    def __init__(self, config):\n"
        "        self._cache = {}\n"
        "        self._keeps = 'pool' in config.claims\n"
        "    def _cached(self, key, build):\n"
        "        return self._cache.setdefault(key, build())\n"
        "    def pool(self):\n"
        "        return self._cache.pop('spec', None)\n"
        "def check(s):\n"
        "    return s._cache\n"
    )
    assert cache_policy_breaches(tree) == ["__init__:4", "pool:8", "-:10"]


def test_every_session_method_is_called_by_the_claims():
    assert uncalled_methods(_trees()["claims"], "Session") == []


def test_an_accessor_only_its_own_body_calls_is_uncalled():
    tree = ast.parse(
        "class Session:\n"
        "    def image(self, n):\n"
        "        return self.image(n - 1) if n else 0\n"
        "    def lattice(self):\n"
        "        return 1\n"
        "def check(s):\n"
        "    return s.lattice()\n"
    )
    assert uncalled_methods(tree, "Session") == ["Session.image"]


def test_every_public_name_is_used_or_documented():
    assert unused_public_names() == []


def test_every_defaulted_parameter_is_passed_or_documented():
    assert unpassed_defaults() == []


def test_every_public_method_is_used_or_documented():
    assert unused_public_methods() == []
