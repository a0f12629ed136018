import numpy as np
import pytest

from matorus.errors import ExpressionError
from matorus.expressions import sample_expression
from matorus.grid import GridSpec


@pytest.fixture
def grid():
    return GridSpec(2, 8)


def test_basic_cosine(grid):
    f = sample_expression("0.5*cos(2*pi*x1)", grid)
    c = grid.coordinates()
    want = 0.5 * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid.shape))
    assert np.allclose(f.values, want, atol=1e-15)


def test_sums_of_products(grid):
    f = sample_expression("cos(2*pi*(x1 + y2)) - 1/4*sin(4*pi*y1)*cos(2*pi*x2)", grid)
    c = grid.coordinates()
    want = np.cos(2 * np.pi * (c["x1"] + c["y2"])) - 0.25 * np.sin(
        4 * np.pi * c["y1"]
    ) * np.cos(2 * np.pi * c["x2"])
    assert np.allclose(f.values, np.broadcast_to(want, grid.shape), atol=1e-14)


def test_exp_factor(grid):
    g = sample_expression("exp(2*x1 - y2)", grid)
    c = grid.coordinates()
    want = np.exp(2 * c["x1"] - c["y2"])
    assert np.allclose(g.values, np.broadcast_to(want, grid.shape), atol=1e-14)


def test_rational_coefficients(grid):
    f = sample_expression("3/4*cos(2*pi*x1/2)", grid)
    c = grid.coordinates()
    want = 0.75 * np.cos(np.pi * np.broadcast_to(c["x1"], grid.shape))
    assert np.allclose(f.values, want, atol=1e-14)


def test_unary_minus(grid):
    f = sample_expression("-cos(2*pi*x1) + +1", grid)
    c = grid.coordinates()
    want = 1 - np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid.shape))
    assert np.allclose(f.values, want, atol=1e-14)


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os').system('true')",
        "x1.real",
        "open('/etc/passwd')",
        "unknown_name",
        "x3 + 1",                   # out of range for n=2
        "exp(cos(x1))",             # nested call
        "sin(x1*x1)",               # non-affine argument
        "x1*cos(2*pi*x1)",          # coordinate outside a call
        "cos(2*pi/x1)",             # division by a coordinate
        "1j*cos(x1)",               # complex constant
        "cos(x1, x2)",              # wrong arity
        "lambda: 1",
        "[1,2]",
        "sin 2*pi",                 # syntax error
        pytest.param("1" + "0" * 400 + "*cos(2*pi*x1)", id="401-digit-constant"),
        "0/0*cos(2*pi*x1)",         # constant division by zero
        "exp(1000)*cos(2*pi*x1)",   # overflows
        "cos(2*pi*x1)/0",           # divides by zero on the grid
        "1e308*10*cos(2*pi*x1)",    # constant arithmetic overflows to inf
    ],
)
def test_rejections(grid, bad):
    with pytest.raises(ExpressionError):
        sample_expression(bad, grid)


def test_n3_coordinates():
    grid = GridSpec(3, 8)
    f = sample_expression("sin(2*pi*x3) + cos(2*pi*y3)", grid)
    c = grid.coordinates()
    want = np.sin(2 * np.pi * c["x3"]) + np.cos(2 * np.pi * c["y3"])
    assert np.allclose(f.values, np.broadcast_to(want, grid.shape), atol=1e-14)
