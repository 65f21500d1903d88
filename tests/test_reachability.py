"""No library code that only the tests reach.

Every top-level function and class of `src/hgrcalc`, and every method that
is not a dunder, must be referenced somewhere in `src/hgrcalc` outside its
own body. A reference is an attribute or a string constant that is exactly
the name (so `getattr(x, "name")` counts, but a word in a docstring does
not); a bare identifier counts for a top-level name only, since a method
is never reached through a local variable that shares its name.

Every field a method sets as `self.X = ...` must also be read as `.X`
somewhere in `src/hgrcalc`. Exceptions are exempt: their payloads are for
the code that catches them.
"""

import ast
from collections import Counter
from pathlib import Path

import hgrcalc

SRC = Path(hgrcalc.__file__).resolve().parent


def _definitions(tree):
    """(node, is_method) for each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item, True


def _references(node, bare):
    """Counter of the names referenced anywhere under node as attributes
    or string constants, and as bare identifiers if bare."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if bare:
                refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def test_every_library_name_is_reached_from_the_library():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = {False: Counter(), True: Counter()}  # keyed by is_method
    for tree in trees.values():
        for is_method in everywhere:
            everywhere[is_method].update(_references(tree, not is_method))
    unreached = ["%s:%d %s" % (name, node.lineno, node.name)
                 for name, tree in trees.items()
                 for node, is_method in _definitions(tree)
                 if everywhere[is_method][node.name]
                 <= _references(node, not is_method)[node.name]]
    assert not unreached, unreached


def _error_classes(trees):
    """Names of the classes that derive from HgrcalcError."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    errors = {"HgrcalcError"}
    while True:
        found = {name for name, names in bases.items()
                 if errors.intersection(names)} - errors
        if not found:
            return errors
        errors |= found


def test_every_field_is_read_in_the_library():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    errors = _error_classes(trees)
    unread = sorted(
        "%s:%d %s.%s" % (name, node.lineno, cls.name, node.attr)
        for name, tree in trees.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name not in errors
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in reads)
    assert not unread, unread
