"""Static checks on the package source, made with the stdlib `ast` parser
only (no linter is a dependency)."""
import ast
import pathlib

import pytest

import qsdlab

PACKAGE = sorted(pathlib.Path(qsdlab.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _dead_private_names(sources: dict) -> list:
    """Module-level private names (`_name`: functions, classes, constants)
    that no module of `sources` (file name -> source) references, by a
    load, an attribute or an import."""
    defined, used = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((fname, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.extend((fname, node.lineno, t.id) for t in targets
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((f, line, name) for f, line, name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in used)


def test_the_checker_sees_a_dead_private_name():
    a = ("_USED = 1\n_DEAD = 2\n__all__ = []\n"
         "def _helper():\n    return _USED\n"
         "class _Gone:\n    pass\n")
    b = "from .a import _helper\n"
    assert _dead_private_names({"a.py": a, "b.py": b}) == [
        ("a.py", 2, "_DEAD"), ("a.py", 6, "_Gone")]


def test_no_dead_private_names():
    assert _dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []
