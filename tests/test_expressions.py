import math

import numpy as np
import pytest

from qsdlab.expressions import ExpressionError, compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("2 + 3*x^2 - x/4")
    assert f(2.0) == pytest.approx(2 + 12 - 0.5)
    g = compile_expression("-x^2")
    assert g(3.0) == pytest.approx(-9.0)          # unary minus binds after ^


def test_functions_and_constants():
    f = compile_expression("exp(-x) + sin(pi*x) + log(e)")
    assert f(0.0) == pytest.approx(2.0)
    assert f(1.0) == pytest.approx(math.exp(-1) + math.sin(math.pi) + 1.0)


def test_vectorized_evaluation():
    f = compile_expression("x*exp(-x)")
    xs = np.linspace(0.1, 3.0, 7)
    assert np.allclose(f(xs), xs*np.exp(-xs))


def test_constant_expression_broadcasts():
    # a pure constant must still honor the input shape, otherwise vectorized
    # quadrature downstream gets a scalar where it expects an array
    f = compile_expression("1.0")
    out = f(np.zeros(5))
    assert np.shape(out) == (5,)
    assert np.all(out == 1.0)
    assert np.ndim(f(2.0)) == 0


def test_sqrt_abs_power():
    f = compile_expression("sqrt(abs(x))^3")
    assert f(-4.0) == pytest.approx(8.0)


def test_double_star_is_power_alias():
    f = compile_expression("x**2 + x^2")
    assert f(3.0) == pytest.approx(18.0)


@pytest.mark.parametrize("src, value", [
    ("007", 7.0),                     # leading zeros, which Python refuses
    ("00.5", 0.5),
    ("1e-05", 1e-05),
    ("2^-x^2", 0.0625),               # 2^(-(x^2)) at x = 2
    ("x**2^0.5", 2.665144142690225),  # 2^(2^0.5): ** and ^ associate right
])
def test_accepted_spellings(src, value):
    assert compile_expression(src)(2.0) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("bad", [
    "", "x +", "foo(x)", "1..2", "(x", "x y", "x # c", "ｘ+1", "1_0", "0x10",
    "1j", "x % 2", "x // 2", "x < 1", "abs(x, 2)", "'a'",
    pytest.param("-" * 1000 + "x", id="1000-minus-signs")])
def test_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


@pytest.mark.parametrize("src", ["-x^10000", "(-x)^0.5", "log(-x)",
                                 "1/(x-1.2345)", "x^2", "10^400"])
def test_scalar_follows_the_array_rules(src):
    # Python float arithmetic would raise OverflowError or ZeroDivisionError,
    # or return a complex number, where numpy gives inf or nan
    with np.errstate(all="ignore"):
        f = compile_expression(src)
        for x in (1.2345, 2.0, -3.0):
            scalar, array = f(x), f(np.array([x]))
            assert not np.iscomplexobj(scalar) and np.ndim(scalar) == 0
            # bit for bit, but any nan equals any nan
            assert ((np.isnan(scalar) and np.isnan(array[0]))
                    or np.float64(scalar).tobytes() == array.tobytes())
