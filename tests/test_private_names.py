"""Every module-level private function or class of the package is read
somewhere in the package.

A private helper has no caller outside src/, so once a change removes its
last reader inside src/ it is dead code. Imports count as reads, and so
does an attribute access such as `derivations._delta_images`.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qharmonic"


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions and classes of tree whose names start with _."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [n.name for n in tree.body if isinstance(n, defs) and n.name.startswith("_")]


def names_read(tree: ast.AST) -> set[str]:
    """Every name tree loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level definition no source reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(names_read(t) for t in trees.values()))
    return [f"{mod}:{name}" for mod, tree in sorted(trees.items())
            for name in private_definitions(tree) if name not in read]


def test_every_private_definition_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_an_unread_private_definition_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    pass\n\nclass _Base:\n    pass\n",
        "b.py": "from .a import _used\nimport a\nx = a._Base\n\ndef _self_call():\n"
                "    return _self_call\n",
    }
    # a definition that only reads itself counts as read: the check is cheap, not a call graph
    assert unread_private_names(sources) == ["a.py:_orphan"]
