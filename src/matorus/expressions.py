"""Safe expression mini-grammar for analytic problem data.

Grammar: sums of products of sin/cos/exp factors and rational constants;
the argument of each sin/cos/exp must be an affine combination of the
grid coordinates x1, y1, ..., xn, yn (with rational or pi-multiple
coefficients). Coordinates are only allowed inside those arguments, which
keeps sampled fields periodic when frequencies are integer multiples of
2*pi. No nested transcendentals, no attribute access, no names beyond the
coordinates and pi. Constants must fit a double, constant arithmetic
must not fail, and the sampled field must be finite at every grid point.
One walk of the tree checks each node as it evaluates it.

Examples:
    "0.5*cos(2*pi*x1)"                        accepted
    "cos(2*pi*(x1 + y2)) - 1/4*sin(4*pi*y1)"  accepted
    "exp(cos(x1))"                            rejected (nested call)
    "x1*cos(2*pi*x1)"                         rejected (coordinate outside a call)
    "0/0*cos(2*pi*x1)"                        rejected (division by zero)
    "exp(1000)*cos(2*pi*x1)"                  rejected (not finite)
"""

from __future__ import annotations

import ast
import operator
import sys

import numpy as np

from .errors import ExpressionError, GridMismatchError
from .grid import GridSpec, ScalarField

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
}
_UNARY = {ast.UAdd, ast.USub}


def _err(msg: str, node: ast.AST) -> ExpressionError:
    col = getattr(node, "col_offset", None)
    where = f" (column {col})" if col is not None else ""
    return ExpressionError(msg + where)


def _walk(node: ast.AST, coords: dict, in_call: bool) -> tuple:
    """(value, degree in the coordinates) of ``node``, checked as it is
    evaluated. Coordinates (``coords``: name -> array) may appear only
    ``in_call``, inside the affine argument of a sin/cos/exp."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise _err(f"constant {node.value!r} is not a real number", node)
        if not abs(node.value) <= sys.float_info.max:
            raise _err("constant does not fit a double", node)
        return float(node.value), 0
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return np.pi, 0
        if node.id not in coords:
            raise _err(f"unknown name {node.id!r}", node)
        if not in_call:
            raise _err(f"coordinate {node.id!r} may only appear inside sin/cos/exp", node)
        return coords[node.id], 1
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        value, degree = _walk(node.operand, coords, in_call)
        return (-value if isinstance(node.op, ast.USub) else value), degree
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left, left_degree = _walk(node.left, coords, in_call)
        right, right_degree = _walk(node.right, coords, in_call)
        if isinstance(node.op, ast.Div) and right_degree != 0:
            raise _err("division by a coordinate-dependent expression", node)
        try:
            value = _BINOPS[type(node.op)](left, right)
        except ArithmeticError as exc:  # constants only: arrays warn instead
            raise _err(f"constant arithmetic fails: {exc}", node) from exc
        if isinstance(node.op, ast.Mult):
            return value, left_degree + right_degree
        return value, max(left_degree, right_degree)
    if isinstance(node, ast.Call):
        if in_call:
            raise _err("nested function calls are not allowed inside sin/cos/exp", node)
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise _err("only sin, cos and exp calls are allowed", node)
        if node.keywords or len(node.args) != 1:
            raise _err(f"{node.func.id} takes exactly one positional argument", node)
        arg, degree = _walk(node.args[0], coords, True)
        if degree > 1:
            raise _err(f"argument of {node.func.id} must be affine in the coordinates", node)
        return _FUNCTIONS[node.func.id](arg), 0
    raise _err(f"unsupported syntax {type(node).__name__}", node)


def sample_expression(text: str, grid: GridSpec) -> ScalarField:
    """The real field of the expression ``text`` on ``grid``."""
    try:
        with np.errstate(all="ignore"):  # the field check below catches inf and nan
            vals, _ = _walk(ast.parse(text, mode="eval").body, grid.coordinates(), False)
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte before 3.12
        raise ExpressionError(f"syntax error in expression: {exc}") from exc
    except RecursionError as exc:
        raise ExpressionError("expression is nested too deeply") from exc
    vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), grid.shape).copy()
    try:
        return ScalarField(grid, vals)
    except GridMismatchError as exc:  # the shape is the grid's: a value is not finite
        raise ExpressionError(f"expression '{text}' is not finite on the grid") from exc
