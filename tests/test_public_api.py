"""Every name in ``pdeseries.__all__`` has a caller outside the tests,
and so does every public method and property of a class in it.

A name counts as used when some library module (other than
``__init__.py``) or script refers to it as a name or an attribute,
outside its own top-level ``def``/``class``. References are read from the syntax
tree, so a mention in a docstring or a comment does not count, and
neither does an import that is never used.
"""

import ast
import inspect
from pathlib import Path

import pdeseries

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for path in (ROOT / "src" / "pdeseries").glob("*.py")
    if path.name != "__init__.py"
) + sorted((ROOT / "scripts").glob("*.py"))


def referenced_names(sources=SOURCES) -> set[str]:
    found = set()
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    found.add(name)
    return found


def test_every_public_name_has_a_caller():
    unused = sorted(set(pdeseries.__all__) - referenced_names())
    assert unused == [], f"public names with no library or script caller: {unused}"


def public_members() -> set[str]:
    """``Class.name`` of each public method and property of a class in
    ``__all__`` that the class itself defines."""
    members = set()
    for name in pdeseries.__all__:
        cls = getattr(pdeseries, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) or isinstance(
                value, (staticmethod, classmethod, property)
            ):
                members.add(f"{name}.{attr}")
    return members


def test_every_public_method_has_a_caller():
    names = referenced_names()
    unused = sorted(m for m in public_members() if m.split(".")[1] not in names)
    assert unused == [], f"public methods with no library or script caller: {unused}"


def test_docstring_mention_is_not_a_reference(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Mentions helper and Thing.helper."""\n'
        "def helper():\n    return helper()\n"
        "def other():\n    return 1\n",
        encoding="utf-8",
    )
    names = referenced_names([module])
    assert "helper" not in names
    assert "other" not in names
