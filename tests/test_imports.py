"""Every module import in the package and the tests is used, every
module-private function and class in the package is referenced, and so is
every public function and method of the package.

A stdlib ``ast`` scan: a name bound by an import must be read somewhere in
the same module, as a name, the root of an attribute chain, inside a string
annotation, or through ``__all__``.  Package ``__init__`` modules re-export
their imports and are skipped, as are ``__future__`` imports.  A function or
class of ``src/charpres`` named ``_name`` (a method too, but not a dunder)
must be referenced by some module of ``src`` or ``tests`` other than by its
own definition: as a name, an attribute, an imported name, or a string or
one of its dotted parts.  A public function or method of ``src/charpres`` (a
name without a leading underscore) must be referenced the same way by some
module of ``src`` or ``bench``: a function only tests call is a test
fixture, and the re-exports of the package ``__init__`` do not count as a
use.  Every parameter with a default of such a public function or
method must be set by some call in ``src`` or ``bench``: by keyword, or by
position, counting a method's positions after ``self`` or ``cls``.  Calls
are matched to definitions by name.
"""

import ast
import math
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCANNED = ("src/charpres", "tests")
# the modules whose references keep a public function of the package alive
PUBLIC_READERS = ("src/charpres", "bench")


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
    spells out as a string or as a dotted part of one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
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
    paths = _modules(PUBLIC_READERS)
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


def test_public_scan_reads_dotted_strings_and_not_tests():
    tree = ast.parse("class A:\n    def patched(self): pass\n"
                     "    def tested(self): pass\n")
    bench = ast.parse("TARGETS = {'k': ('m', 'A.patched')}\n")
    assert [line for _, _, line in
            _unreferenced([("m", tree)], [tree, bench], _public_defs)] == [3]
    # a call from a test does not keep a public function alive
    assert not any(path.startswith("tests/") for path in _modules(PUBLIC_READERS))


def _options(tree):
    """(name, parameter, call position, line) for every parameter with a
    default of a public function or method; the position is None for a
    keyword-only parameter and leaves out a method's self or cls."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("_")):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        for i in range(len(positional) - len(args.defaults), len(positional)):
            out.append((node.name, positional[i].arg, i - skip, node.lineno))
        out += [(node.name, arg.arg, None, node.lineno)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
    return out


def _unset(defining, callers):
    """(path, line, name, parameter) for the options (`_options`) of the
    `defining` trees that no call in `callers` sets."""
    calls = {}      # called name -> (most positional arguments, keywords)
    for tree in callers:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            width, keys = calls.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = (max(width, math.inf if starred else len(node.args)),
                           keys | {k.arg for k in node.keywords})   # None: **kwargs
    out = []
    for path, tree in defining:
        for name, param, pos, line in _options(tree):
            width, keys = calls.get(name, (0, set()))
            if not (keys & {param, None} or (pos is not None and pos < width)):
                out.append((path, line, name, param))
    return sorted(out)


# cli.main(argv) is the test seam: the console script passes no argv and
# parses sys.argv, tests pass their own
UNSET_ALLOWED = {("src/charpres/cli.py", "main", "argv")}


def test_library_options_are_set_by_some_caller():
    paths = _modules(SCANNED + ("bench",))
    package = [(path, _parse(path)) for path in paths if path.startswith("src/")]
    callers = [_parse(path) for path in paths if not path.startswith("tests/")]
    unset = ["%s:%d %s(%s)" % (path, line, name, param)
             for path, line, name, param in _unset(package, callers)
             if (path, name, param) not in UNSET_ALLOWED]
    assert not unset, "options no caller sets: " + ", ".join(unset)


def test_scan_sees_an_option_no_call_sets():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                     "def _g(x=0): pass\n"
                     "class A:\n    def m(self, x=0, y=0): pass\n"
                     "def h(a=0): pass\n")
    reader = ast.parse("f(0, 1, e=2)\nA().m(5)\nh(*[])\n")
    assert [(name, param) for _, _, name, param in _unset([("m", tree)], [reader])] == \
        [("f", "c"), ("f", "d"), ("m", "y")]


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
