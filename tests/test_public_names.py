"""Every name the package exports is used by the package itself.

A public function or class earns its place by feeding a certificate or a
CLI command; a name that only the tests call is a second implementation
waiting to drift.  For each non-module name in ``formstrength.__all__``, the
package source outside ``__init__.py`` must reference it somewhere other than
its own definition, and a reference from inside another exported name that
fails this check does not count (so a dead name cannot keep its helpers
alive).  Independent oracles, which the tests compare the engine against,
are the one exception.
"""

import ast
import inspect
from pathlib import Path

import formstrength

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


def _definitions():
    """(defined name or None, names it reads) for every top-level statement
    of every package module but ``__init__.py``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                out.append((stmt.name, _referenced(stmt)))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                owner = targets[0].id if isinstance(targets[0], ast.Name) else None
                out.append((owner, _referenced(stmt.value)))
            else:
                out.append((None, _referenced(stmt)))
    return out


def unused_public_names():
    public = {
        name
        for name in formstrength.__all__
        if not inspect.ismodule(getattr(formstrength, name)) and name not in ORACLES
    }
    definitions = _definitions()
    dead = set()
    while True:
        used = set()
        for owner, reads in definitions:
            if owner not in dead:
                used |= reads - {owner}
        now = {name for name in public if name not in used}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_is_used_by_the_package():
    assert ORACLES <= set(formstrength.__all__)
    assert unused_public_names() == []
