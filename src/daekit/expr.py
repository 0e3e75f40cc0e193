"""Minimal arithmetic expression compiler for problem definition files.

The grammar covers exactly what the problem files need: the operators
+ - * / ^ (with ^ meaning power), the functions sin, cos, exp, numeric
literals, unary minus, and a caller-declared set of variable names such as
t, s, y1..yr.  Anything else in the text is rejected with ProblemFileError
before any evaluation happens, so loading an untrusted file can at worst
raise, never execute code.

Expressions are parsed with the ast module, validated node by node against
the whitelist, and then compiled once to a plain Python function of the
declared variables.  The functions are numpy ufuncs, so a compiled
expression evaluates elementwise when its variables are arrays (an ``exp``
that overflows gives ``inf`` with a RuntimeWarning, not an exception).
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
    else:
        raise ProblemFileError(
            f"syntax element {type(node).__name__} not allowed in {source!r}")


def compile_expression(text, variables=("t",)):
    """Compile an expression string to a function of the given variables.

    Finite numeric inputs are accepted directly and become constant
    functions, so JSON files can mix numbers and strings in the same matrix.
    """
    variables = tuple(variables)
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        if not abs(text) <= sys.float_info.max:  # NaN, ±inf, an int past the float range
            raise ProblemFileError(f"a number entry must be finite, got {text!r}")
        value = float(text)
        fn = lambda *args: value  # noqa: E731
        fn.source = repr(value)
        return fn
    if not isinstance(text, str):
        raise ProblemFileError(f"expression must be a string or number, got {type(text)}")
    normalized = text.replace("^", "**")
    try:
        tree = ast.parse(normalized, mode="eval")
    except SyntaxError as exc:
        raise ProblemFileError(f"cannot parse expression {text!r}: {exc}") from None
    _validate(tree, variables, text)
    code = compile(tree, f"<expression {text!r}>", "eval")
    names = variables

    def fn(*args):
        if len(args) != len(names):
            raise ProblemFileError(
                f"expression {text!r} expects {len(names)} arguments, got {len(args)}")
        env = dict(zip(names, args))
        env.update(_FUNCTIONS)
        return eval(code, {"__builtins__": {}}, env)

    fn.source = text
    return fn
