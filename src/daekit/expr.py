"""Minimal arithmetic expression compiler for problem definition files.

The grammar covers exactly what the problem files need: the operators
+ - * / ^ (with ^ meaning power), the functions sin, cos, exp, numeric
literals, unary minus, and a caller-declared set of variable names such as
t, s, y1..yr.  Anything else in the text is rejected with ProblemFileError
before any evaluation happens, so loading an untrusted file can at worst
raise, never execute code.

Expressions are parsed with the ast module, validated node by node against
the whitelist, and compiled once to a plain Python function of the
declared variables (a lambda, with no builtins in reach).  The same walk
collects the variables an expression reads, which ``variables_read``
returns: how a problem file's kernel is known to be free of t.  Its arithmetic
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


def _checked(node: ast.AST, variables, source: str, names: set) -> ast.AST:
    """The validated tree of ``node`` with each literal and each variable
    wrapped in float64(), so that numpy's arithmetic computes every
    operation; the variables it reads are added to ``names``.  Dispatched
    by isinstance: ``ast.NodeVisitor`` builds a fresh ``'visit_*'`` name
    per node, and CPython's type cache keeps them."""
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise ProblemFileError(
                f"operator {type(node.op).__name__} not allowed in {source!r}")
        node.left = _checked(node.left, variables, source, names)
        node.right = _checked(node.right, variables, source, names)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            raise ProblemFileError(
                f"operator {type(node.op).__name__} not allowed in {source!r}")
        node.operand = _checked(node.operand, variables, source, names)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ProblemFileError(f"unknown function call in {source!r}")
        if len(node.args) != 1 or node.keywords:
            raise ProblemFileError(
                f"{node.func.id} takes exactly one argument in {source!r}")
        node.args = [_checked(node.args[0], variables, source, names)]
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ProblemFileError(
                f"unknown variable {node.id!r} in {source!r} "
                f"(allowed: {', '.join(variables)})")
        names.add(node.id)
        return ast.Call(ast.Name("float64", ast.Load()), [node], [])
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ProblemFileError(f"literal {node.value!r} not allowed in {source!r}")
        if isinstance(node.value, int) and abs(node.value) > sys.float_info.max:
            raise ProblemFileError(f"integer literal past the float range in {source!r}")
        return ast.Call(ast.Name("float64", ast.Load()), [node], [])
    else:
        raise ProblemFileError(
            f"syntax element {type(node).__name__} not allowed in {source!r}")
    return node


def _parse(text, variables) -> tuple[ast.AST, set, str]:
    """(body, names, source) of an expression entry: its validated tree
    with float64() around each literal and variable (:func:`_checked`), the
    variables it reads, and its text.  A finite number entry is parsed as
    its repr."""
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
    names = set()
    return _checked(tree.body, variables, text, names), names, text


def variables_read(text, variables=("t",)) -> set:
    """The declared variables that an expression entry reads: ``{"s", "y1"}``
    for ``"y1*s"``, none for a number.  It raises as
    :func:`compile_expression` does."""
    return _parse(text, variables)[1]


def compile_expression(text, variables=("t",)):
    """Compile an expression string to a function of the given sequence of
    variable names, which are its parameters in that order.  A variable
    named sin, cos, exp or float64 would hide the global of that name.

    A finite number entry is compiled as its repr, so JSON files can mix
    numbers and strings in the same matrix.
    """
    body, _, text = _parse(text, variables)
    params = ast.arguments(posonlyargs=[], args=[ast.arg(v) for v in variables], kwonlyargs=[],
                           kw_defaults=[], defaults=[])
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, body)))
    fn = eval(compile(tree, f"<expression {text!r}>", "eval"),
              {"__builtins__": {}, "float64": np.float64, **_FUNCTIONS})
    fn.source = text
    return fn
