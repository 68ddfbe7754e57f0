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


def _callee(func) -> str:
    """The name a call or decorator goes by: `f` for f(...), obj.f(...)."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _unset_keyword_defaults(defining: dict, calling: dict) -> list:
    """Parameters with a default, and dataclass or NamedTuple fields with a
    default, that are defined in `defining` (file name -> source) and that
    no call of that name in `calling` passes, by keyword or by position.  A
    call is matched by the callee's name only (a class for its `__init__`
    and fields); forwarding through `*args` or `**kwargs` passes nothing."""
    settable = []                 # (file, line, callee, name, position)
    for fname, source in defining.items():
        tree = ast.parse(source)
        methods = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            record = (any(_callee(d.func if isinstance(d, ast.Call) else d)
                          == "dataclass" for d in node.decorator_list)
                      or any(_callee(b) == "NamedTuple" for b in node.bases))
            fields = [s for s in node.body if record
                      and isinstance(s, ast.AnnAssign)
                      and isinstance(s.target, ast.Name)]
            settable.extend((fname, s.lineno, node.name, s.target.id, i)
                            for i, s in enumerate(fields) if s.value)
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(_callee(d) == "staticmethod"
                                 for d in fn.decorator_list)
                    methods[fn] = (node.name, 0 if static else 1)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls, skip = methods.get(node, (None, 0))
            callee = cls if node.name == "__init__" else node.name
            args = node.args.posonlyargs + node.args.args
            with_default = args[len(args) - len(node.args.defaults):]
            settable.extend((fname, node.lineno, callee, a.arg,
                             args.index(a) - skip) for a in with_default)
            settable.extend((fname, node.lineno, callee, a.arg, None)
                            for a, d in zip(node.args.kwonlyargs,
                                            node.args.kw_defaults) if d)
    passed = set()                # (callee, keyword) and (callee, position)
    for source in calling.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                callee = _callee(node.func)
                passed.update((callee, k.arg) for k in node.keywords if k.arg)
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((callee, i))
    return sorted((f, line, callee, name)
                  for f, line, callee, name, i in settable
                  if (callee, name) not in passed and (callee, i) not in passed)


def test_the_checker_sees_an_unset_keyword_default():
    a = ("from dataclasses import dataclass\n"
         "def f(x, y=1, z=2, *, w=3):\n    pass\n"
         "@dataclass\nclass C:\n    p: int = 0\n    q: int = 1\n"
         "    def m(self, k=1):\n        pass\n")
    b = ("f(0, 5)\nf(0, w=4)\nf(0, **opts)\nC(7)\n"
         "C(0).m(*args)\n")
    assert _unset_keyword_defaults({"a.py": a}, {"a.py": a, "b.py": b}) == [
        ("a.py", 2, "f", "z"), ("a.py", 7, "C", "q"), ("a.py", 8, "m", "k")]


def test_no_unset_keyword_defaults():
    root = pathlib.Path(__file__).resolve().parent.parent
    calling = {p.name: p.read_text() for p in PACKAGE}
    for d in ("tests", "perfbench"):
        calling.update({f"{d}/{p.name}": p.read_text()
                        for p in sorted((root / d).glob("*.py"))})
    assert _unset_keyword_defaults(
        {p.name: p.read_text() for p in PACKAGE}, calling) == []


_BLAS_CALLS = {"matmul", "dot", "einsum"}


def _blas_uses(source: str, functions: set) -> list:
    """Matrix products in the named top-level functions of `source`: the `@`
    operator, and `matmul`, `dot` or `einsum` by name or attribute."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append((fn.name, node.lineno, "@"))
            elif (isinstance(node, (ast.Name, ast.Attribute))
                  and _callee(node) in _BLAS_CALLS):
                found.append((fn.name, node.lineno, _callee(node)))
    return found


def test_the_checker_sees_a_matrix_product():
    src = ("import numpy as np\n"
           "def f(a, b):\n    a @= b\n    return np.dot(a, b)\n"
           "def g(a, b):\n    return a.dot(b) + np.einsum('ij,jk', a, b)\n"
           "def h(a, b):\n    return a @ b\n")
    assert _blas_uses(src, {"f", "g"}) == [
        ("f", 3, "@"), ("f", 4, "dot"), ("g", 6, "dot"), ("g", 6, "einsum")]


def test_the_shooting_continuation_calls_no_blas():
    # the maps are multiplied out on component arrays, so a shot's bits do
    # not depend on which OpenBLAS kernel the host dispatches
    source = (pathlib.Path(qsdlab.__file__).parent / "numerics.py").read_text()
    assert _blas_uses(source, {"_magnus_cells", "_chunk_maps",
                               "integrate_sl_system"}) == []


def test_the_quadrature_calls_no_blas():
    # the Gauss sums run node by node in a fixed order and the clustered
    # eigenvectors are re-orthogonalized by fsum, so a custom model's log
    # rho, the classification integrals and the eigenvectors of the FE and
    # Schrodinger solves do not depend on the kernel
    root = pathlib.Path(qsdlab.__file__).parent
    assert _blas_uses((root / "numerics.py").read_text(),
                      {"_gauss", "_log_integral", "tridiagonal_lowest"}) == []
    assert _blas_uses((root / "boundary.py").read_text(),
                      {"_nested_feller_integral"}) == []


def _quadrature_rules(sources: dict) -> list:
    """(file, line, name) of every reference to `leggauss` and of every
    function whose name contains `log_integral`, in `sources` (file name ->
    source)."""
    found = []
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and _callee(node) == "leggauss") or (
                    isinstance(node, ast.ImportFrom)
                    and any(a.name == "leggauss" for a in node.names)):
                found.append((fname, node.lineno, "leggauss"))
            elif (isinstance(node, ast.FunctionDef)
                  and "log_integral" in node.name):
                found.append((fname, node.lineno, node.name))
    return sorted(found)


def test_the_checker_sees_a_quadrature_rule():
    a = ("import numpy as np\nx, w = np.polynomial.legendre.leggauss(8)\n"
         "def _inner_log_integral(f, lo, hi):\n    pass\n")
    b = "from numpy.polynomial.legendre import leggauss\nleggauss(4)\n"
    assert _quadrature_rules({"a.py": a, "b.py": b}) == [
        ("a.py", 2, "leggauss"), ("a.py", 3, "_inner_log_integral"),
        ("b.py", 1, "leggauss"), ("b.py", 2, "leggauss")]


def test_one_quadrature_rule_lives_in_numerics():
    # Gauss nodes and the log-space panel rule are defined once, in
    # numerics; every other module integrates through them
    found = _quadrature_rules({p.name: p.read_text() for p in MODULES})
    assert [f for f in found if f[0] != "numerics.py"] == []
    assert [name for f, _, name in found
            if name != "leggauss"] == ["_log_integral"]


def _scalar_twins(source: str) -> list:
    """(line, name) of every call of a `math` function, every name imported
    from `math`, and every reference to `isscalar` in `source`: the marks
    of a float body kept beside a numpy one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "math"):
            found.append((node.lineno, "math." + node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "math." + a.name) for a in node.names)
        elif (isinstance(node, (ast.Name, ast.Attribute))
              and _callee(node) == "isscalar"):
            found.append((node.lineno, "isscalar"))
    return found


def test_the_checker_sees_a_scalar_twin():
    src = ("import math\nfrom math import exp\nimport numpy as np\n"
           "INF = math.inf\n"
           "def f(x):\n"
           "    return math.exp(x) if np.isscalar(x) else np.exp(x)\n")
    assert _scalar_twins(src) == [(2, "math.exp"), (6, "math.exp"),
                                  (6, "isscalar")]


def test_one_body_per_coefficient():
    # a zoo coefficient is one numpy expression for floats and arrays
    # alike, and ScalarField owns the output type, so neither module keeps
    # a branch for a scalar argument
    root = pathlib.Path(qsdlab.__file__).parent
    assert _scalar_twins((root / "zoo.py").read_text()) == []
    assert [f for f in _scalar_twins((root / "model.py").read_text())
            if f[1] == "isscalar"] == []


# numpy functions that import numpy.ma on first use (numpy 2.4): np.unique
# and the quantiles through np.unique, the medians through their NaN check
_NUMPY_MA_LOADERS = {"quantile", "percentile", "median", "nanmedian",
                     "unique"}


def _numpy_ma_loaders(source: str) -> list:
    """(line, name) of every reference to one of `_NUMPY_MA_LOADERS` as an
    attribute of `np` or `numpy`, or imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute)
                and node.attr in _NUMPY_MA_LOADERS
                and getattr(node.value, "id", None) in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"):
            found.extend((node.lineno, a.name) for a in node.names
                         if a.name in _NUMPY_MA_LOADERS)
    return sorted(found)


def test_the_checker_sees_a_numpy_ma_loader():
    src = ("import numpy as np\nfrom numpy import unique, sort\n"
           "lo = np.quantile(x, 0.1) + np.median(x)\n"
           "f = numpy.percentile\nq = _quantiles(x, (0.1,))\n"
           "m = stats.median(x)\n")
    assert _numpy_ma_loaders(src) == [(2, "unique"), (3, "median"),
                                      (3, "quantile"), (4, "percentile")]


def test_no_module_calls_a_numpy_ma_loader():
    # numerics keeps same-bits replacements (_sorted_unique, _quantiles,
    # _median), so no command pays numpy.ma's import
    found = {p.name: _numpy_ma_loaders(p.read_text()) for p in PACKAGE}
    assert {name: f for name, f in found.items() if f} == {}
