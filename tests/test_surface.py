"""The public surface of src/tailent: every name in a module's __all__ is
used by the package itself or by the benchmark in perfbench/, and so is
every public method, property and constructor of its classes and every
defaulted parameter of those names, set to more than one value, so code and
knobs that only tests reach do not grow back into the library; every
private module-level name of the package is used by the package; every
name a module of the package or of the tests imports is used there; and
the benchmark's tracer still finds every name it wraps."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tailent").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# the paper's main rate bound, the admissibility it assumes and its p_eps
# scale, kept though no command reads them
ALLOWED = {"rate_bound_gen", "iterate_bound_main", "is_admissible",
           "min_branch_length_iterate"}
# knobs with one value in use, each kept for the caller that restates it:
# perfbench/workloads.py passes verify_atlas a grid_size of 10000
# positionally, which a change to the benchmark alone can drop
ONE_VALUE_ALLOWED = {("polyalg", "verify_atlas", "grid_size")}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _references(tree):
    """(name, top-level definition it sits in or None) for every use of a
    name: a load, an attribute, an imported name."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out.extend((alias.name, owner) for alias in node.names)
    return out


def _unused(sources, callers, names):
    """(module, name) for each of names(tree) of a source that no caller
    uses outside the name's own definition."""
    refs = {path: _references(ast.parse(path.read_text())) for path in callers}
    missing = []
    for path in sources:
        for name in names(ast.parse(path.read_text())):
            if not any(ref == name and not (where == path and owner == name)
                       for where, found in refs.items()
                       for ref, owner in found):
                missing.append((path.stem, name))
    return missing


def unused_exports(sources, callers):
    """(module, name) for each __all__ name that no caller uses outside the
    name's own definition."""
    return _unused(sources, callers, _exported)


def test_every_export_has_a_caller_outside_the_tests():
    missing = [(mod, name) for mod, name in unused_exports(SOURCES, CALLERS)
               if name not in ALLOWED]
    assert missing == []


def test_allowlist_names_are_still_exported():
    exported = {name for path in SOURCES
                for name in _exported(ast.parse(path.read_text()))}
    assert ALLOWED <= exported


@pytest.mark.parametrize("source, found", [
    ("__all__ = ['f']\ndef f():\n    return f()\n", [("m", "f")]),
    ("__all__ = ['f']\ndef f():\n    pass\ndef g():\n    return f()\n", []),
    ("__all__ = ['C']\nclass C:\n    pass\nx: C = None\n", []),
])
def test_a_self_reference_is_not_a_use(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unused_exports([path], [path]) == found


def _private(tree):
    """The module-level functions, classes and assigned names of tree that
    start with a single underscore."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and n[1:2] != "_")


def test_every_private_name_has_a_use_in_src():
    """A private helper that only tests reach is dead code kept alive by
    its tests."""
    assert _unused(SOURCES, SOURCES, _private) == []


@pytest.mark.parametrize("source, found", [
    ("def _f():\n    return _f()\n", [("m", "_f")]),
    ("_X, _Y = 1, 2\nclass _C:\n    pass\ndef g():\n    return _X, _C\n",
     [("m", "_Y")]),
    ("_X: int = 1\n", [("m", "_X")]),
    ("def __f():\n    pass\ndef g(m):\n    return m._h\ndef _h():\n    pass\n",
     []),
])
def test_a_private_name_needs_a_use_beyond_its_definition(tmp_path, source,
                                                          found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert _unused([path], [path], _private) == found


def _called(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _defaults(fn, skip):
    """(position or None, name, default) of each parameter of fn that has a
    default; the position counts the arguments a call passes, so a method's
    self (skip=1) takes none."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(i - skip, p.arg, d)
             for i, (p, d) in enumerate(zip(positional[first:], a.defaults),
                                        first)]
            + [(None, p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _knobs(tree):
    """(called name, label, definition, defaults) for every function of
    __all__ and for __init__ and each public method of every class of
    __all__; a class's __init__ is called by the class name."""
    exported = set(_exported(tree))
    for top in tree.body:
        if getattr(top, "name", None) not in exported:
            continue
        if isinstance(top, ast.FunctionDef):
            yield top.name, top.name, top, _defaults(top, 0)
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    yield (top.name if fn.name == "__init__" else fn.name,
                           f"{top.name}.{fn.name}", fn, _defaults(fn, 1))


def _passes(call, pos, name):
    """Whether the call passes the parameter: by keyword, at its position,
    or through *args or **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return pos is not None and (
        pos < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(sources, callers):
    """(module, label, parameter) for each defaulted parameter that no call
    to a function of that name passes, calls inside the definition itself
    not counted."""
    trees = {path: ast.parse(path.read_text()) for path in {*sources, *callers}}
    calls = [node for path in callers for node in ast.walk(trees[path])
             if isinstance(node, ast.Call)]
    missing = []
    for path in sources:
        for name, label, fn, params in _knobs(trees[path]):
            own = {id(node) for node in ast.walk(fn)}
            uses = [c for c in calls if _called(c) == name and id(c) not in own]
            missing += [(path.stem, label, param) for pos, param, _ in params
                        if not any(_passes(c, pos, param) for c in uses)]
    return missing


def test_every_default_has_a_caller():
    """With one value in use a parameter is a constant: each default of
    the public surface is set by some call in src/ or perfbench/."""
    missing = [found for found in unset_defaults(SOURCES, CALLERS)
               if found[1].split(".")[-1] not in ALLOWED]
    assert missing == []


@pytest.mark.parametrize("source, found", [
    ("__all__ = ['f']\ndef f(a, b=1):\n    return f(a, 2)\n",
     [("m", "f", "b")]),
    ("__all__ = ['f']\ndef f(a, b=1, *, c=2):\n    pass\n"
     "def g():\n    f(0, 1)\n    f(0, c=3)\n", []),
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\ndef g(xs):\n    f(*xs)\n", []),
    ("__all__ = ['C']\nclass C:\n    def __init__(self, x=0):\n        pass\n"
     "    def m(self, y=0):\n        pass\n    def _p(self, z=0):\n        pass\n"
     "def g(c):\n    C(1)\n    c.m()\n", [("m", "C.m", "y")]),
])
def test_unset_defaults_reads_each_call(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unset_defaults([path], [path]) == found


def unused_members(sources, callers):
    """(module, label) for each public method or property and each __init__
    of a class of __all__ that no caller uses outside the member's own
    definition: an attribute reference, or for __init__ a call by the
    class name or the name of a subclass."""
    trees = {path: ast.parse(path.read_text()) for path in {*sources, *callers}}
    bases = {top.name: [b.id for b in top.bases if isinstance(b, ast.Name)]
             for tree in trees.values() for top in tree.body
             if isinstance(top, ast.ClassDef)}

    def family(name):
        """The class and every class that derives from it."""
        names, grown = {name}, {name}
        while grown:
            grown = {c for c, bs in bases.items() if names & set(bs)} - names
            names |= grown
        return names

    nodes = [node for path in callers for node in ast.walk(trees[path])]
    missing = []
    for path in sources:
        exported = set(_exported(trees[path]))
        for cls in trees[path].body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if fn.name == "__init__":
                    names = family(cls.name)
                    used = any(isinstance(n, ast.Call) and _called(n) in names
                               and id(n) not in own for n in nodes)
                else:
                    used = any(isinstance(n, ast.Attribute) and n.attr == fn.name
                               and id(n) not in own for n in nodes)
                if not used:
                    missing.append((path.stem, f"{cls.name}.{fn.name}"))
    return missing


def test_every_member_has_a_caller_outside_the_tests():
    """Methods, properties and constructors that only tests reach are
    surface too."""
    assert unused_members(SOURCES, CALLERS) == []


@pytest.mark.parametrize("source, found", [
    ("__all__ = ['C']\nclass C:\n    def __init__(self):\n        pass\n"
     "    def m(self):\n        return self.m()\n    @property\n"
     "    def p(self):\n        return 0\n    def _q(self):\n        pass\n"
     "def g():\n    return C.p\n",
     [("m", "C.__init__"), ("m", "C.m")]),
    ("__all__ = ['C']\nclass C:\n    def __init__(self):\n        pass\n"
     "class D(C):\n    pass\nclass E(D):\n    pass\ndef g():\n    E()\n", []),
    ("__all__ = ['C']\nclass C:\n    def __init__(self):\n        pass\n"
     "    @classmethod\n    def make(cls):\n        return cls()\n"
     "def g():\n    return C.make()\n", [("m", "C.__init__")]),
])
def test_unused_members_reads_each_use(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert unused_members([path], [path]) == found


def _fields(tree):
    """(class name, label, class, defaults) for every dataclass of __all__:
    its constructor takes the annotated fields in order."""
    exported = set(_exported(tree))
    for top in tree.body:
        if not (isinstance(top, ast.ClassDef) and top.name in exported
                and any(_called(d) == "dataclass" if isinstance(d, ast.Call)
                        else getattr(d, "id", None) == "dataclass"
                        for d in top.decorator_list)):
            continue
        fields = [node for node in top.body if isinstance(node, ast.AnnAssign)]
        for pos, node in enumerate(fields):
            if node.value is not None:
                yield (top.name, f"{top.name}.{node.target.id}", top,
                       [(pos, node.target.id, node.value)])


def _literal(node):
    """A key for the value of a literal node, or None for any other node:
    an expression that is not a literal may take many values."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return type(value).__name__, repr(value)


def _given(call, pos, name, default):
    """The literal key of what the call gives the parameter: the argument
    it passes, or the default it leaves in place; None when that is not a
    literal or goes through *args or **kwargs."""
    for kw in call.keywords:
        if kw.arg == name:
            return _literal(kw.value)
    if any(kw.arg is None for kw in call.keywords):
        return None
    if pos is not None and any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if pos is not None and pos < len(call.args):
        return _literal(call.args[pos])
    return _literal(default)


def one_value_defaults(sources, callers):
    """(module, label, parameter) for each defaulted parameter or dataclass
    field that every call to a function of that name gives one and the
    same literal, by passing it or by leaving the default; calls inside the
    definition itself are not counted, and a name with no call is left to
    `unset_defaults`."""
    trees = {path: ast.parse(path.read_text()) for path in {*sources, *callers}}
    calls = [node for path in callers for node in ast.walk(trees[path])
             if isinstance(node, ast.Call)]
    found = []
    for path in sources:
        tree = trees[path]
        for name, label, definition, params in [*_knobs(tree), *_fields(tree)]:
            own = {id(node) for node in ast.walk(definition)}
            uses = [c for c in calls if _called(c) == name and id(c) not in own]
            for pos, param, default in params:
                given = {_given(c, pos, param, default) for c in uses}
                if len(given) == 1 and None not in given:
                    found.append((path.stem, label, param))
    return found


def test_no_default_has_one_value_in_use():
    """A knob that every caller sets to one literal is a constant."""
    found = [f for f in one_value_defaults(SOURCES, CALLERS)
             if (f[0], f[1].split(".")[-1], f[2]) not in ONE_VALUE_ALLOWED]
    assert found == []


def test_one_value_allowlist_is_still_found():
    assert ONE_VALUE_ALLOWED <= {
        (mod, label.split(".")[-1], param)
        for mod, label, param in one_value_defaults(SOURCES, CALLERS)}


@pytest.mark.parametrize("source, found", [
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\n"
     "def g():\n    f(0, 1)\n    f(0)\n    f(0, b=1)\n", [("m", "f", "b")]),
    ("__all__ = ['f']\ndef f(a, b=1):\n    return f(a, 2)\n"
     "def g():\n    f(0)\n", [("m", "f", "b")]),
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\n"
     "def g():\n    f(0, 2)\n    f(0)\n", []),
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\ndef g(x):\n    f(0, x)\n", []),
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\ndef g(xs):\n    f(*xs)\n", []),
    ("__all__ = ['f']\ndef f(a, b=1):\n    pass\n", []),
    ("from dataclasses import dataclass, field\n__all__ = ['C']\n"
     "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: bool = False\n"
     "    z: dict = field(default_factory=dict)\n"
     "def g():\n    C(1, True)\n    C(2, y=True)\n", [("m", "C.y", "y")]),
    ("__all__ = ['C']\nclass C:\n    def m(self, k=1):\n        pass\n"
     "def g(c):\n    c.m(-1)\n    c.m(k=-1)\n", [("m", "C.m", "k")]),
])
def test_one_value_defaults_reads_each_call(tmp_path, source, found):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert one_value_defaults([path], [path]) == found


def test_traced_benchmark_installs_and_restores(monkeypatch):
    """perfbench/tracing.py wraps package names through owner.__dict__, so
    deleting or renaming one breaks `run.py --trace 1`.  The tracer
    installs, and uninstall puts back every original."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._saved)
        assert all(owner.__dict__[attr].__wrapped__ is orig
                   for owner, attr, orig in wrapped)
    finally:
        tracer.uninstall()
    assert wrapped
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in wrapped)


def unused_imports(tree):
    """Names a module imports and never loads, other than __future__
    features and the names of its __all__."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(_exported(tree)))


def test_every_import_is_used():
    unused = {path.name: names for path in SOURCES + TESTS
              if (names := unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


@pytest.mark.parametrize("source, found", [
    ("import os\nimport numpy as np\nnp.zeros(os.sep)\n", []),
    ("from __future__ import annotations\nfrom a import b, c as d\nd\n",
     ["b"]),
    ("import os.path\n", ["os"]),
    ("from a import b\n__all__ = ['b']\n", []),
])
def test_unused_imports_reads_each_binding(source, found):
    assert unused_imports(ast.parse(source)) == found
