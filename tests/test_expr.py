"""Expression compiler for problem files: accepted grammar and rejections."""

import ast
import builtins
import json

import numpy as np
import pytest

from daekit import ProblemFileError, compile_expression, load_problem
from daekit.expr import variables_read


def test_arithmetic_and_functions():
    fn = compile_expression("sin(t)*exp(t) + t^2 - 1/(t+2)")
    for t in (0.0, 0.5, 1.7, -0.3):
        want = np.sin(t) * np.exp(t) + t ** 2 - 1.0 / (t + 2.0)
        assert fn(t) == pytest.approx(want, abs=1e-14)


def test_power_operator_is_python_exponentiation():
    fn = compile_expression("t^3")
    assert fn(2.0) == 8.0
    assert compile_expression("2^t")(3.0) == 8.0


def test_multiple_variables():
    fn = compile_expression("t*s - cos(s)", ("t", "s"))
    assert fn(2.0, 0.0) == pytest.approx(-1.0)
    g = compile_expression("y1^2 + y2", ("t", "y1", "y2"))
    assert g(0.0, 3.0, 4.0) == pytest.approx(13.0)


def test_unary_signs_and_constants():
    assert compile_expression("-t + +1")(0.25) == pytest.approx(0.75)
    assert compile_expression("3.5")(9.9) == 3.5
    assert compile_expression(2)(0.3) == 2.0
    assert compile_expression(-1.25)(0.0) == -1.25


def test_source_is_recorded():
    fn = compile_expression("cos(t) * t")
    assert fn.source == "cos(t) * t"


@pytest.mark.parametrize("bad", [
    "__import__('os').system('true')",
    "t.real",
    "t < 1",
    "x",
    "tan(t)",
    "sin(t, t)",
    "'abc'",
    "t +",
    "abs(t)",
    "[1, 2]",
    "lambda: 1",
    "t if t else 0",
    "sin",
])
def test_rejected_expressions(bad):
    with pytest.raises(ProblemFileError):
        compile_expression(bad)


def test_unknown_variable_depends_on_declared_names():
    compile_expression("s", ("t", "s"))
    with pytest.raises(ProblemFileError):
        compile_expression("s", ("t",))


def test_array_evaluation_matches_scalar_evaluation():
    fn = compile_expression("(y1^2 + 2)*y2 + exp(y2) - sin(s)*cos(t)", ("t", "s", "y1", "y2"))
    rng = np.random.default_rng(3)
    s, y1, y2 = rng.uniform(-2.0, 2.0, size=(3, 17))
    got = fn(0.7, s, y1, y2)
    assert got.shape == (17,)
    want = [fn(0.7, float(a), float(b), float(c)) for a, b, c in zip(s, y1, y2)]
    np.testing.assert_array_equal(got, want)


def test_constant_kappa_entry_broadcasts_over_the_batch(tmp_path):
    path = tmp_path / "iae.json"
    path.write_text(json.dumps({
        "kind": "iae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
        "kappa": ["y1*s", 2], "f": ["t", 0]}))
    p = load_problem(path)
    s = np.linspace(0.0, 1.0, 5)
    y = np.vstack([np.arange(5.0), np.ones(5)])
    got = p.kappa(0.5, s, y)
    assert got.shape == (2, 5)
    np.testing.assert_array_equal(got, [np.arange(5.0) * s, np.full(5, 2.0)])
    np.testing.assert_array_equal(p.kappa(0.5, 0.25, np.array([3.0, 1.0])), [0.75, 2.0])


def test_exp_overflow_gives_inf_with_a_warning():
    with pytest.warns(RuntimeWarning):
        assert compile_expression("exp(t)")(1000.0) == np.inf


def test_a_compiled_expression_calls_no_eval(monkeypatch):
    # compiled once: a call evaluates the function itself, not eval on a code object
    fn = compile_expression("y1^2*sin(t) - 1/(t + 2)", ("t", "y1"))

    def no_eval(*args, **kwargs):
        raise AssertionError("eval called")

    monkeypatch.setattr(builtins, "eval", no_eval)
    assert fn(0.5, 3.0) == 9.0 * np.sin(0.5) - 0.4
    np.testing.assert_array_equal(fn(np.array([0.5, 1.0]), 3.0),
                                  [9.0 * np.sin(0.5) - 0.4, 9.0 * np.sin(1.0) - 1.0 / 3.0])


def test_wrong_number_of_arguments_is_a_type_error():
    with pytest.raises(TypeError):
        compile_expression("t*s", ("t", "s"))(1.0)


@pytest.mark.parametrize("text, t, want", [
    ("1/t", 0.0, np.inf),
    ("(0-t)^0.5", 0.5, np.nan),
    ("9^9^6", 0.0, np.inf),
    ("t/(t - t)", 1.0, np.inf),
    ("0/0 + t", 1.0, np.nan),
])
def test_a_float_computes_with_numpy_arithmetic(text, t, want):
    # as an array does: inf or nan with a RuntimeWarning, never an exception,
    # and an integer power is a float power, not a Python integer
    with pytest.warns(RuntimeWarning):
        got = compile_expression(text)(t)
    assert type(got) is np.float64
    np.testing.assert_array_equal(got, want)
    with pytest.warns(RuntimeWarning):
        np.testing.assert_array_equal(compile_expression(text)(np.full(3, t)), np.full(3, want))


def test_arguments_and_literals_enter_as_float64():
    assert type(compile_expression("2")(1)) is np.float64
    np.testing.assert_array_equal(compile_expression("t/2")(np.arange(3)), [0.0, 0.5, 1.0])
    assert compile_expression("t*s", ("t", "s"))(2, 3) == 6.0


def test_an_integer_literal_past_the_float_range_is_refused():
    with pytest.raises(ProblemFileError, match="past the float range"):
        compile_expression("t + 1" + "0" * 400)
    # a float literal past the range is inf, refused where it is evaluated
    assert compile_expression("t + 1e400")(0.0) == np.inf


def test_variables_read_are_the_variables_of_the_parsed_tree():
    assert variables_read("(y1^2 + 2)*y2 + exp(y2) - sin(s)", ("t", "s", "y1", "y2")) == \
        {"s", "y1", "y2"}
    assert variables_read("sin(t)") == {"t"}  # a function's name is no variable
    assert variables_read(2.5) == variables_read("3") == set()
    with pytest.raises(ProblemFileError, match="unknown variable 's'"):
        variables_read("s")


def test_compiling_uses_no_node_visitor_and_no_unparse(monkeypatch):
    # ast.NodeVisitor makes a fresh 'visit_*' name per node, which fills
    # CPython's type cache when problem files are loaded again and again
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(ast.NodeVisitor, "visit", refuse)
    monkeypatch.setattr(ast, "unparse", refuse)
    fn = compile_expression("-sin(s)*t^2 + 1/(t + 2)", ("t", "s"))
    assert fn(0.5, 2.0) == -np.sin(2.0) * 0.25 + 0.4


@pytest.mark.parametrize("kind, key, entries, free", [
    ("iae", "kappa", ["(y1^2 + 2)*y2 + exp(y2)", "y1^2*s"], True),
    ("iae", "kappa", ["y1", "2*t"], False),
    ("linear-iae", "k", [[0, "s"], ["exp(s)", 1]], True),
    ("linear-iae", "k", [[0, "t - s"], ["exp(s - t)", 0]], False),
], ids=["kappa-free-of-t", "kappa-of-t", "k-free-of-t", "k-of-t"])
def test_a_file_kernel_is_free_of_t_when_no_entry_reads_t(tmp_path, kind, key, entries, free):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"kind": kind, "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
                                key: entries, "f": ["t", 0]}))
    assert load_problem(path).kernel_free_of_t is free
