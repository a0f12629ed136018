"""Safe expression mini-grammar for analytic problem data.

Grammar: sums of products of sin/cos/exp factors and rational constants;
the argument of each sin/cos/exp must be an affine combination of the
grid coordinates x1, y1, ..., xn, yn (with rational or pi-multiple
coefficients). Coordinates are only allowed inside those arguments, which
keeps sampled fields periodic when frequencies are integer multiples of
2*pi. No nested transcendentals, no attribute access, no names beyond the
coordinates and pi.

Examples:
    "0.5*cos(2*pi*x1)"                        accepted
    "cos(2*pi*(x1 + y2)) - 1/4*sin(4*pi*y1)"  accepted
    "exp(cos(x1))"                            rejected (nested call)
    "x1*cos(2*pi*x1)"                         rejected (coordinate outside a call)
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ExpressionError
from .grid import GridSpec, ScalarField

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}
_UNARY = {ast.UAdd, ast.USub}


def _err(msg: str, node: ast.AST) -> ExpressionError:
    col = getattr(node, "col_offset", None)
    where = f" (column {col})" if col is not None else ""
    return ExpressionError(msg + where)


def _poly_degree(node: ast.AST, coords: set) -> int:
    """Degree in the coordinates; raises unless the node is affine-safe."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise _err(f"constant {node.value!r} is not a real number", node)
        return 0
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return 0
        if node.id in coords:
            return 1
        raise _err(f"unknown name {node.id!r}", node)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _poly_degree(node.operand, coords)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _poly_degree(node.left, coords)
        right = _poly_degree(node.right, coords)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return max(left, right)
        if isinstance(node.op, ast.Mult):
            return left + right
        if right != 0:
            raise _err("division by a coordinate-dependent expression", node)
        return left
    if isinstance(node, ast.Call):
        raise _err("nested function calls are not allowed inside sin/cos/exp", node)
    raise _err(f"unsupported syntax {type(node).__name__}", node)


def _validate(node: ast.AST, coords: set) -> None:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise _err(f"constant {node.value!r} is not a real number", node)
        return
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return
        if node.id in coords:
            raise _err(
                f"coordinate {node.id!r} may only appear inside sin/cos/exp", node
            )
        raise _err(f"unknown name {node.id!r}", node)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        _validate(node.operand, coords)
        return
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        _validate(node.left, coords)
        _validate(node.right, coords)
        return
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise _err("only sin, cos and exp calls are allowed", node)
        if node.keywords or len(node.args) != 1:
            raise _err(f"{node.func.id} takes exactly one positional argument", node)
        degree = _poly_degree(node.args[0], coords)
        if degree > 1:
            raise _err(
                f"argument of {node.func.id} must be affine in the coordinates", node
            )
        return
    raise _err(f"unsupported syntax {type(node).__name__}", node)


def _eval(node: ast.AST, env: dict):
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        v = _eval(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp):
        left, right = _eval(node.left, env), _eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        return left / right
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_eval(node.args[0], env))
    raise AssertionError("validated expression contained an unexpected node")


class Expression:
    """Validated expression, callable on a grid."""

    def __init__(self, text: str, complex_dim: int):
        self.text = text
        self.complex_dim = complex_dim
        coords = set()
        for j in range(complex_dim):
            coords.update({f"x{j + 1}", f"y{j + 1}"})
        try:
            tree = ast.parse(text, mode="eval")
            _validate(tree.body, coords)
        except (SyntaxError, ValueError) as exc:  # ValueError: a null byte before 3.12
            raise ExpressionError(f"syntax error in expression: {exc}") from exc
        except RecursionError as exc:
            raise ExpressionError("expression is nested too deeply") from exc
        self._tree = tree.body
        self._coords = coords

    def sample(self, grid: GridSpec) -> ScalarField:
        if grid.complex_dim != self.complex_dim:
            raise ExpressionError(
                f"expression was validated for n={self.complex_dim}, grid has n={grid.complex_dim}"
            )
        env = dict(grid.coordinates())
        env["pi"] = np.pi
        try:
            vals = _eval(self._tree, env)
        except RecursionError as exc:
            raise ExpressionError("expression is nested too deeply") from exc
        vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), grid.shape).copy()
        return ScalarField(grid, vals)


def sample_expression(text: str, grid: GridSpec) -> ScalarField:
    return Expression(text, grid.complex_dim).sample(grid)
