"""No module of the package, the tests or the tools imports a name it never uses.

A stand-in for a linter: every name bound by an import statement must
appear somewhere else in the module as a name (``x``) or as the root of an
attribute chain (``x.y``).  ``src/symtest/__init__.py`` is exempt, since its
imports are the package's public namespace.
"""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(TESTS), "src", "symtest")
TOOLS = os.path.join(os.path.dirname(TESTS), "tools")


def modules():
    for folder in (PACKAGE, TESTS, TOOLS):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py") and (folder, name) != (PACKAGE, "__init__.py"):
                yield os.path.join(folder, name)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", list(modules()), ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
