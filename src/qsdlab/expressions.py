"""Arithmetic expressions for drift/killing coefficients in model JSON files.

The grammar is Python's arithmetic with `^` written for `**`, and Python's
precedence (-x^2 is -(x^2), and 2^-x^2 is 2^(-(x^2))):

    expr := expr ('+'|'-'|'*'|'/'|'^') expr | ('+'|'-') expr | '(' expr ')'
          | NUMBER | 'x' | 'pi' | 'e' | FUNC '(' expr ')'
    FUNC := exp | log | sqrt | sin | cos | sinh | cosh | tanh | abs

NUMBER is a decimal literal, leading zeros allowed (007 is 7).  `ast.parse`
reads the source and a whitelist compiler turns the tree into closures: no
eval(), and any node, name or literal outside the grammar is refused.

Compiled expressions evaluate on floats and numpy arrays alike, both by
numpy's rules: overflow, a zero divisor or a negative base under a
fractional power gives inf or nan, never an exception or a complex number.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable, Union

import numpy as np

from .numerics import QsdlabError

Number = Union[float, np.ndarray]

_FUNCS = {name: getattr(np, name) for name in
          ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "tanh", "abs")}

_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}

# refused before parsing: Python would read '#' as a comment and fold a
# full-width letter into its ASCII form
_BAD_CHAR = re.compile(r"[^\w\s.+\-*/^()]", re.ASCII)
# leading zeros of a decimal integer, which Python refuses; not after a '.'
# (the digits of a fraction) or a letter (a name, or an exponent)
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_DECIMAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


class ExpressionError(QsdlabError, ValueError):
    """Raised for syntax errors or unknown names in an expression string."""


def _compile(node: ast.AST, text: str) -> Callable[[Number], Number]:
    """The closure f(x) for one node of the parsed tree of `text`."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        a, b = _compile(node.left, text), _compile(node.right, text)
        return lambda x: op(a(x), b(x))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        g = _compile(node.operand, text)
        return g if isinstance(node.op, ast.UAdd) else lambda x: -g(x)
    if isinstance(node, ast.Constant):
        literal = ast.get_source_segment(text, node)
        if _DECIMAL.fullmatch(literal):
            val = np.float64(float(literal))
            return lambda x: val
        raise ExpressionError(f"{literal!r} is not a decimal number")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return lambda x: x
        if node.id in _CONSTS:
            val = _CONSTS[node.id]
            return lambda x: val
        raise ExpressionError(f"unknown name {node.id!r}")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1
            and not node.keywords):
        fn, inner = _FUNCS[node.func.id], _compile(node.args[0], text)
        return lambda x: fn(inner(x))
    raise ExpressionError(
        f"{ast.get_source_segment(text, node)!r} is outside the grammar")


def compile_expression(src: str) -> Callable[[Number], Number]:
    """Compile an expression in the grammar above to a callable of x."""
    if not isinstance(src, str) or not src.strip():
        raise ExpressionError("empty expression")
    text = " ".join(src.split())
    bad = _BAD_CHAR.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r} in "
                              f"expression {src!r}")
    text = _LEADING_ZEROS.sub("", text.replace("^", "**"))
    try:
        f = _compile(ast.parse(text, mode="eval").body, text)
        # force early failure on bad expressions
        with np.errstate(all="ignore"):
            f(np.float64(1.2345))
    except SyntaxError:
        raise ExpressionError(f"cannot parse expression {src!r}") from None
    except (RecursionError, MemoryError):
        # the parser reports a stack overflow as MemoryError
        raise ExpressionError(
            f"expression {src!r} is nested too deeply") from None
    except ExpressionError as exc:
        raise ExpressionError(f"{exc} in expression {src!r}") from None

    def fx(x):
        if np.ndim(x) == 0:
            return f(np.float64(x))
        out = f(x)
        # constants collapse to scalars; keep the input's shape so the
        # callable stays safely vectorized
        if np.ndim(out) == 0:
            return np.full(np.shape(x), float(out))
        return out

    return fx
