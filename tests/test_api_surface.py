"""The public surface of `normone` is what the package itself uses.

Every public top-level function and class in `src/normone` must be
referenced, as a name or an attribute, somewhere in the package outside its
own definition and `__init__.py`, or in the benchmark under `perfbench/`: a
CLI verb, the selftest battery, another function or the benchmark calls it.
The benchmark counts only as a caller; its own definitions are not checked.
Code that only tests call belongs in `tests/`.
The exceptions are the checks that ROADMAP item 10 reserves for wiring into
`sha_full`; the list must name exactly the functions that still lack a
caller, so it shrinks as they are wired in.
"""

import ast
import inspect
from pathlib import Path

import normone

RESERVED = {"tate_cyclic", "annihilator_bound", "p_vanishing_certificate"}
PACKAGE = Path(normone.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(paths, prefix=""):
    return {
        prefix + path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(paths)
        if path.name != "__init__.py"
    }


def _modules():
    return _parse(PACKAGE.glob("*.py"))


def _callers():
    """The package's modules and the benchmark's scripts, which only call."""
    return {**_modules(), **_parse(BENCHMARK.glob("*.py"), prefix="perfbench/")}


def _public_definitions(modules):
    """name -> (module, definition node) of each public top-level def or class."""
    return {
        node.name: (module, node)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _references(modules):
    """name -> [(module, line)] of every Name or Attribute that spells it."""
    refs = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
    return refs


def test_every_public_definition_has_a_caller_in_the_package():
    modules = _modules()
    refs = _references(_callers())
    uncalled = set()
    for name, (module, node) in _public_definitions(modules).items():
        outside = [
            (m, line) for m, line in refs.get(name, [])
            if not (m == module and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            uncalled.add(name)
    assert uncalled == RESERVED


def test_package_exports_resolve():
    definitions = _public_definitions(_modules())
    for name in normone.__all__:
        value = getattr(normone, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__.startswith("normone."), name
            assert name in definitions, name
