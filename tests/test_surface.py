"""The public surface of src/tailent: every name in a module's __all__ is
used by the package itself or by the benchmark in perfbench/, so code that
only tests reach does not grow back into the library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tailent").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# the paper's main rate bound, the admissibility it assumes and its p_eps
# scale, kept though no command reads them
ALLOWED = {"rate_bound_gen", "iterate_bound_main", "is_admissible",
           "min_branch_length_iterate"}


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
            if isinstance(node, ast.Name):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, owner))
            elif isinstance(node, ast.ImportFrom):
                out.extend((alias.name, owner) for alias in node.names)
    return out


def unused_exports(sources, callers):
    """(module, name) for each __all__ name that no caller uses outside the
    name's own definition."""
    refs = {path: _references(ast.parse(path.read_text())) for path in callers}
    missing = []
    for path in sources:
        for name in _exported(ast.parse(path.read_text())):
            if not any(ref == name and not (where == path and owner == name)
                       for where, found in refs.items()
                       for ref, owner in found):
                missing.append((path.stem, name))
    return missing


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
