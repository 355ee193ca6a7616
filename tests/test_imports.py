"""Every module import in the package and the tests is used, every
module-private function and class in the package is referenced, and so is
every public function and method of the package.

A stdlib ``ast`` scan: a name bound by an import must be read somewhere in
the same module, as a name, the root of an attribute chain, inside a string
annotation, or through ``__all__``.  Package ``__init__`` modules re-export
their imports and are skipped, as are ``__future__`` imports.  A function or
class of ``src/charpres`` named ``_name`` (a method too, but not a dunder)
must be referenced by some module of ``src`` or ``tests`` other than by its
own definition: as a name, an attribute, an imported name or a string.  A
public function or method of ``src/charpres`` (a name without a leading
underscore) must be referenced the same way by some module of ``src``,
``tests`` or ``bench``; the re-exports of the package ``__init__`` do not
count as a use.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCANNED = ("src/charpres", "tests")


def _modules(tops=SCANNED):
    out = []
    for top in tops:
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


def _parse(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _private_defs(tree):
    """{name: line} for every function and class named _name, dunders aside."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def _public_defs(tree):
    """{name: line} for every function and method without a leading underscore."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def _referenced(tree):
    """Every name the module reads, looks up as an attribute, imports or
    spells out as a string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _unreferenced(defining, readers, defs=_private_defs):
    """Definitions (`defs`) of the `defining` trees that none of `readers` names."""
    seen = set().union(*map(_referenced, readers))
    return sorted((name, path, line) for path, tree in defining
                  for name, line in defs(tree).items() if name not in seen)


def test_private_definitions_are_referenced():
    package = [(path, _parse(path)) for path in _modules() if path.startswith("src/")]
    readers = [tree for _, tree in package]
    readers += [_parse(path) for path in _modules() if path.startswith("tests/")]
    readers.append(_parse("src/charpres/__init__.py"))
    unused = ["%s:%d %s" % (path, line, name)
              for name, path, line in _unreferenced(package, readers)]
    assert not unused, "unreferenced private definitions: " + ", ".join(unused)


def test_scan_sees_an_unreferenced_private_function():
    tree = ast.parse("def _used(): pass\ndef _left(): pass\nclass _Gone: pass\n"
                     "class A:\n    def _m(self): pass\n    def __init__(self): pass\n"
                     "_used()\n")
    reader = ast.parse("from m import _m\n")
    assert [name for name, _, _ in _unreferenced([("m", tree)], [tree, reader])] == \
        ["_Gone", "_left"]


def test_public_functions_are_referenced():
    paths = _modules(SCANNED + ("bench",))
    package = [(path, _parse(path)) for path in paths if path.startswith("src/")]
    readers = [_parse(path) for path in paths]
    unused = ["%s:%d %s" % (path, line, name)
              for name, path, line in _unreferenced(package, readers, _public_defs)]
    assert not unused, "unreferenced public functions: " + ", ".join(unused)


def test_scan_sees_an_unreferenced_public_method():
    tree = ast.parse("def used(): pass\ndef left(): pass\ndef _private(): pass\n"
                     "class A:\n    @classmethod\n    def of(cls): pass\n"
                     "    @property\n    def read(self): pass\n")
    reader = ast.parse("import m\nm.used()\nprint(m.A(1).read)\n")
    # lines, not names: a name spelled out here as a string would count as a
    # reference to the package function of that name
    assert [line for _, _, line in
            _unreferenced([("m", tree)], [tree, reader], _public_defs)] == [2, 6]


@pytest.mark.parametrize("path", _modules())
def test_no_unused_imports(path):
    tree = _parse(path)
    used = _used(tree)
    unused = ["%s:%d %s" % (path, line, name)
              for name, line in sorted(_imported(tree).items()) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Union\n"
                     "def f(x: 'Optional[int]'): pass\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["Union", "os"]
