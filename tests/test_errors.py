from __future__ import annotations

import ast
import inspect
from pathlib import Path

import tagcraft
from tagcraft import errors

SOURCE = Path(tagcraft.__file__).parent


def _names(node: ast.expr | None) -> set[str]:
    """The class names an expression spells: a name, an attribute or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _used_error_names() -> set[str]:
    """Names the package constructs (and so raises), catches or passes to isinstance."""
    used: set[str] = set()
    for path in SOURCE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                used |= _names(node.type)
            elif isinstance(node, ast.Call):
                used |= _names(node.func)
                if _names(node.func) & {"isinstance", "issubclass"} and len(node.args) == 2:
                    used |= _names(node.args[1])
    return used


def test_every_error_type_is_raised_caught_or_checked_by_the_package() -> None:
    classes = {
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    # A base class counts only by its own name: a base that no code catches
    # tells a caller nothing its subclasses do not.
    assert sorted(classes - _used_error_names()) == []
