"""Static checks on the package source, made with the stdlib `ast` parser
only (no linter is a dependency)."""
import ast
import pathlib

import pytest

import qsdlab

MODULES = sorted(p for p in pathlib.Path(qsdlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names a module binds by `import` or `from ... import` and never
    references; a name listed in the module's `__all__` counts as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_checker_sees_an_unused_import():
    src = "import math\nfrom typing import Optional, Sequence\nx: Optional = 1\n"
    assert _unused_imports(src) == [(1, "math"), (2, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
