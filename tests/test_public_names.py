"""Every name the package exports, every function and class defined at the
top of a package module, and every method of such a class but the dunders,
is used by the package itself.

A function or class earns its place by feeding a certificate or a CLI
command; a name that only the tests call is a second implementation waiting
to drift.  For each such name, the package source outside ``__init__.py``
must reference it somewhere other than its own definition, and a reference
from inside another name that fails this check does not count (so a dead
name cannot keep its helpers alive).  Independent oracles, which the tests
compare the engine against, are one exception; the functions the
benchmark's tracer wraps (``perfbench/tracing.py``, ``LAYERS``), methods
named there as ``Class.method`` included, are the other, since
``tests/test_tracing_names.py`` requires them to exist.  A method is known
by its name alone, since an attribute read does not say whose it is.
"""

import ast
import inspect
from pathlib import Path

import formstrength

from conftest import load_tracing

PACKAGE = Path(formstrength.__file__).resolve().parent

# exported on purpose although no package code calls them: tests compare the
# engine against these as independent references
ORACLES = {"strength_bruteforce_small"}


def _referenced(node):
    """Names a subtree reads, as bare names or as attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _top_level_statements():
    """Every top-level statement of every package module but ``__init__.py``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield from ast.parse(path.read_text(encoding="utf-8")).body


def _definitions():
    """(names a statement defines, names it reads) for every top-level
    statement of the package.  A class is split into its methods, each
    defining the class and the method name, and the rest of its body,
    defining the class alone."""
    out = []
    for stmt in _top_level_statements():
        if isinstance(stmt, ast.ClassDef):
            rest = stmt.bases + stmt.decorator_list
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    out.append(({stmt.name, sub.name}, _referenced(sub)))
                else:
                    rest.append(sub)
            out.append(({stmt.name}, set().union(*map(_referenced, rest))))
        elif isinstance(stmt, ast.FunctionDef):
            out.append(({stmt.name}, _referenced(stmt)))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            owner = {targets[0].id} if isinstance(targets[0], ast.Name) else set()
            out.append((owner, _referenced(stmt.value)))
        else:
            out.append((set(), _referenced(stmt)))
    return out


def _unused(names):
    """The names in ``names`` that no live package code reads."""
    definitions = _definitions()
    dead = set()
    while True:
        used = set()
        for owners, reads in definitions:
            if not owners & dead:
                used |= reads - owners
        now = {name for name in names if name not in used}
        if now == dead:
            return sorted(dead)
        dead = now


def unused_public_names():
    return _unused({
        name
        for name in formstrength.__all__
        if not inspect.ismodule(getattr(formstrength, name)) and name not in ORACLES
    })


def _traced():
    """The attributes the benchmark's tracer wraps: module-level functions
    and, as ``Class.method``, methods."""
    return {attr for targets in load_tracing().LAYERS.values() for _, attr in targets}


def unused_top_level_names():
    functions_and_classes = {
        stmt.name
        for stmt in _top_level_statements()
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    traced = {attr for attr in _traced() if "." not in attr}
    return _unused(functions_and_classes - ORACLES - traced)


def unused_methods():
    """``Class.method`` for every method of a package class, dunders aside,
    whose name no live package code reads."""
    methods = {
        (stmt.name, m.name)
        for stmt in _top_level_statements()
        if isinstance(stmt, ast.ClassDef)
        for m in stmt.body
        if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
    }
    methods -= {tuple(attr.split(".")) for attr in _traced() if "." in attr}
    dead = set(_unused({name for _, name in methods}))
    return sorted(f"{cls}.{name}" for cls, name in methods if name in dead)


def test_every_public_name_is_used_by_the_package():
    assert ORACLES <= set(formstrength.__all__)
    assert unused_public_names() == []


def test_every_top_level_function_and_class_is_used_by_the_package():
    assert unused_top_level_names() == []


def test_every_method_is_used_by_the_package():
    assert unused_methods() == []
