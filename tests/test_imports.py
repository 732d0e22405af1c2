"""Every name a module of the package imports is used in that module, and
the modules import one another in layers.

No linter runs on this code, and a change that deletes a caller tends to
leave its import behind. __init__.py is left out: it imports to re-export.
The layers keep the evaluators (evalq, cyclo) free of the products and
derivations that build relations, which export holds as data.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qharmonic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from fractions import Fraction\nfrom math import gcd, lcm\nimport re\nx = lcm(2, 3)\n"
    assert unused_imports(source) == ["Fraction", "gcd", "re"]


#: The package's modules, each importing only from modules before it.
LAYERS = ("errors", "coeff", "algebra", "products", "series", "derivations",
          "evalq", "cyclo", "export", "verify", "cli")

#: The evaluators see values, never the operators that build relations.
EVALUATOR_IMPORTS = {"errors", "coeff", "algebra"}


def package_imports(source: str) -> set[str]:
    """The package modules that source imports, by relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_earlier_layers(name):
    earlier = set(LAYERS[:LAYERS.index(name)])
    assert package_imports((SRC / f"{name}.py").read_text()) - earlier == set()


@pytest.mark.parametrize("name", ["evalq", "cyclo"])
def test_evaluators_import_only_the_algebra(name):
    assert package_imports((SRC / f"{name}.py").read_text()) <= EVALUATOR_IMPORTS


def test_package_imports_reads_both_forms():
    source = "from . import coeff\nfrom .algebra import EPoly\nfrom fractions import Fraction\n"
    assert package_imports(source) == {"coeff", "algebra"}
