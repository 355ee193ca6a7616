"""Every module import in the package and the tests is used.

A stdlib ``ast`` scan: a name bound by an import must be read somewhere in
the same module, as a name, the root of an attribute chain, inside a string
annotation, or through ``__all__``.  Package ``__init__`` modules re-export
their imports and are skipped, as are ``__future__`` imports.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCANNED = ("src/charpres", "tests")


def _modules():
    out = []
    for top in SCANNED:
        for name in sorted(os.listdir(os.path.join(ROOT, top))):
            if name.endswith(".py") and name != "__init__.py":
                out.append(top + "/" + name)
    return out


def _imported(tree):
    """{bound name: line} for every import statement of the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= _used(ast.parse(n.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", _modules())
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = _used(tree)
    unused = ["%s:%d %s" % (path, line, name)
              for name, line in sorted(_imported(tree).items()) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Union\n"
                     "def f(x: 'Optional[int]'): pass\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["Union", "os"]
