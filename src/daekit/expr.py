"""Minimal arithmetic expression compiler for problem definition files.

The grammar covers exactly what the problem files need: the operators
+ - * / ^ (with ^ meaning power), the functions sin, cos, exp, numeric
literals, unary minus, and a caller-declared set of variable names such as
t, s, y1..yr.  Anything else in the text is rejected with ProblemFileError
before any evaluation happens, so loading an untrusted file can at worst
raise, never execute code.

Expressions are parsed with the ast module, validated node by node against
the whitelist, and compiled once to a plain Python function of the
declared variables (a lambda, with no builtins in reach).  Its arithmetic
is numpy's float64 arithmetic: every literal and every argument enters as
float64, a scalar at a float and a float array at an array, and the
functions are numpy ufuncs, so an expression evaluates elementwise over
arrays.  A division by zero, a negative base to a fractional power or an
overflow gives ``inf`` or ``nan`` with numpy's RuntimeWarning, never an
exception, and an untrusted file's arithmetic cannot run away: ``9^9^9``
is ``inf`` at once, not a Python integer of billions of digits.
"""

from __future__ import annotations

import ast
import sys

import numpy as np

from .errors import ProblemFileError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.USub, ast.UAdd)


def _validate(node: ast.AST, variables, source: str):
    if isinstance(node, ast.Expression):
        _validate(node.body, variables, source)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise ProblemFileError(
                f"operator {type(node.op).__name__} not allowed in {source!r}")
        _validate(node.left, variables, source)
        _validate(node.right, variables, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            raise ProblemFileError(
                f"operator {type(node.op).__name__} not allowed in {source!r}")
        _validate(node.operand, variables, source)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ProblemFileError(f"unknown function call in {source!r}")
        if len(node.args) != 1 or node.keywords:
            raise ProblemFileError(
                f"{node.func.id} takes exactly one argument in {source!r}")
        _validate(node.args[0], variables, source)
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ProblemFileError(
                f"unknown variable {node.id!r} in {source!r} "
                f"(allowed: {', '.join(variables)})")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ProblemFileError(f"literal {node.value!r} not allowed in {source!r}")
        if isinstance(node.value, int) and abs(node.value) > sys.float_info.max:
            raise ProblemFileError(f"integer literal past the float range in {source!r}")
    else:
        raise ProblemFileError(
            f"syntax element {type(node).__name__} not allowed in {source!r}")


class _Float64(ast.NodeTransformer):
    """Wrap each literal and each variable of a validated tree in float64(),
    so that numpy's arithmetic computes every operation."""

    def visit_Call(self, node):  # a function's name is no variable
        node.args = [self.visit(node.args[0])]
        return node

    def visit_Name(self, node):
        return ast.Call(ast.Name("float64", ast.Load()), [node], [])

    visit_Constant = visit_Name


def compile_expression(text, variables=("t",)):
    """Compile an expression string to a function of the given sequence of
    variable names, which are its parameters in that order.  A variable
    named sin, cos, exp or float64 would hide the global of that name.

    A finite number entry is compiled as its repr, so JSON files can mix
    numbers and strings in the same matrix.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        if not abs(text) <= sys.float_info.max:  # NaN, ±inf, an int past the float range
            raise ProblemFileError(f"a number entry must be finite, got {text!r}")
        text = repr(float(text))
    if not isinstance(text, str):
        raise ProblemFileError(f"expression must be a string or number, got {type(text)}")
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ProblemFileError(f"cannot parse expression {text!r}: {exc}") from None
    _validate(tree, variables, text)
    body = ast.unparse(_Float64().visit(tree))
    fn = eval(compile(f"lambda {', '.join(variables)}: {body}", f"<expression {text!r}>", "eval"),
              {"__builtins__": {}, "float64": np.float64, **_FUNCTIONS})
    fn.source = text
    return fn
