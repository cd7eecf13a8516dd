"""The documentation runs: every module's doctests pass, the README quick
tour executes against the package's top-level names with the values its
comments state, and every import example in the README resolves."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import braidperm

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["braidperm"] + [
    f"braidperm.{info.name}" for info in pkgutil.iter_modules(braidperm.__path__)
]

# quick-tour code line -> the value its comment states
STATED = {
    "sigma = build_shuffle(spec)": "(1 4 2 5 3 6)",
    "schreier_sims(image.group()).order()": "162",
    "schreier_sims(abelian_kernel(image)).order()": "27",
    "kernel_structure(3, 3).invariant_factors": "(3, 3, 3)",
}


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert attempted > 0


def test_readme_quick_tour_shows_the_stated_values():
    code = quick_tour()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    comments = {}
    for line in code.splitlines():
        statement, sep, comment = line.partition("#")
        if sep:
            comments[statement.strip()] = comment.strip()
    for statement, stated in STATED.items():
        assert comments[statement].startswith(stated)
        target, sep, _ = statement.partition(" = ")
        value = namespace[target] if sep else eval(statement, namespace)
        assert str(value) == stated


def test_readme_import_examples_resolve():
    examples = re.findall(
        r"from (braidperm[\w.]*) import (\w+(?:, \w+)*)", README.read_text(encoding="utf-8")
    )
    assert examples
    for module, names in examples:
        imported = importlib.import_module(module)
        for name in names.split(", "):
            assert hasattr(imported, name), f"from {module} import {name}"
