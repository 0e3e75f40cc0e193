"""Matrix utilities: numerical rank, semi-inverse, finite differences."""

import warnings

import numpy as np
import pytest
from hypothesis import example as pinned_example, given, settings
from hypothesis import strategies as st

from daekit import (
    DEFAULT_RANK_TOL,
    CollocationConfig,
    DaeSolveConfig,
    DomainError,
    EvaluationError,
    InvalidInputError,
    LinearIAE,
    MatrixFunction,
    example,
    fd_derivative,
    matfn_derivative,
    numerical_rank,
    rank_degree_index,
    semi_inverse,
    solve_dae,
    solve_iae,
)
from daekit import bdf, collocation
from daekit.linalg import all_finite, det, gauss_legendre, newton, norm2, per_point, quadrature
from helpers import float_bits, random_fixed_rank, reference_newton


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_numerical_rank_identity():
    assert numerical_rank(np.eye(3)) == 3


def test_numerical_rank_singular_leading_matrix():
    assert numerical_rank(np.array([[1.0, 0.0], [0.0, 0.0]])) == 1


def test_numerical_rank_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        numerical_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        numerical_rank(np.zeros((2, 3)))


@given(r=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**32 - 1),
       rel=st.lists(st.floats(min_value=-4e-6, max_value=4e-6), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_full_numerical_rank_bounds_the_condition_number(r, seed, rel):
    # σ_min/σ_max within 4e-6 (relative) of DEFAULT_RANK_TOL, either side:
    # full rank means σ_min > tol·σ_max, so cond ≤ 1/tol, and no separate
    # conditioning test after a rank test can fire
    rng = np.random.default_rng(seed)
    stack = []
    for d in rel:
        u, _ = np.linalg.qr(rng.standard_normal((r, r)))
        v, _ = np.linalg.qr(rng.standard_normal((r, r)))
        s = np.sort(10.0 ** rng.uniform(-10.0, 0.0, size=r))[::-1]
        s[0], s[-1] = 1.0, DEFAULT_RANK_TOL * (1.0 + d) if r > 1 else 1.0
        stack.append((u * s) @ v.T)
    stack = np.array(stack)
    full = numerical_rank(stack) == r
    assert np.all(np.linalg.cond(stack[full]) <= 1.0 / DEFAULT_RANK_TOL)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=0, max_value=4))
@settings(max_examples=50, deadline=None)
def test_numerical_rank_scale_invariant(scale, rank):
    rng = np.random.default_rng(rank * 7 + 1)
    m = random_fixed_rank(rng, 4, rank, scale_span=(0.5, 2.0))
    assert numerical_rank(scale * m) == numerical_rank(m) == rank


def test_semi_inverse_identity():
    res = semi_inverse(np.eye(3))
    np.testing.assert_allclose(res.a_minus, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(res.projector, np.zeros((3, 3)), atol=1e-14)
    assert res.rank == 3


def test_semi_inverse_diagonal_rank_one():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    res = semi_inverse(m)
    np.testing.assert_allclose(res.a_minus, m, atol=1e-14)
    np.testing.assert_allclose(res.projector, np.array([[0.0, 0.0], [0.0, 1.0]]),
                               atol=1e-14)
    assert res.rank == 1


def test_semi_inverse_repeated_row():
    # all four Penrose conditions check out by hand for this pair
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    res = semi_inverse(m)
    np.testing.assert_allclose(res.a_minus, np.array([[0.5, 0.5], [0.0, 0.0]]),
                               atol=1e-14)
    np.testing.assert_allclose(res.projector, np.array([[0.5, -0.5], [-0.5, 0.5]]),
                               atol=1e-14)
    assert res.rank == 1


def _check_semi_inverse_contract(m, res):
    scale = max(1.0, np.linalg.norm(m, "fro"))
    assert np.linalg.norm(m @ res.a_minus @ m - m, "fro") <= 1e-10 * scale
    assert np.linalg.norm(res.projector @ m, "fro") <= 1e-10 * scale
    assert np.linalg.norm(res.projector @ res.projector - res.projector, "fro") \
        <= 10.0 * DEFAULT_RANK_TOL


@pytest.mark.parametrize("r", range(1, 7))
def test_semi_inverse_random_rank_classes(r):
    rng = np.random.default_rng(100 + r)
    for rank in range(r + 1):
        for _ in range(100):
            m = random_fixed_rank(rng, r, rank)
            res = semi_inverse(m)
            assert res.rank == rank
            assert numerical_rank(m) == rank
            _check_semi_inverse_contract(m, res)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=60, deadline=None)
def test_semi_inverse_contract_property(r, data):
    rank = data.draw(st.integers(min_value=0, max_value=r))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    m = random_fixed_rank(np.random.default_rng(seed), r, rank)
    res = semi_inverse(m)
    assert res.rank == rank
    _check_semi_inverse_contract(m, res)


def test_matfn_derivative_constant():
    f = MatrixFunction.constant(np.array([[2.0, 1.0], [0.0, 3.0]]))
    np.testing.assert_allclose(matfn_derivative(f, 0.3), np.zeros((2, 2)),
                               atol=1e-10)


def test_constant_matrix_function_takes_an_array_in_one_call():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    f = MatrixFunction.constant(m, domain=(0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 5)
    assert f.vectorized
    assert _bits(f(ts)) == _bits([f(t) for t in ts])
    assert _bits(f(0.5)) == _bits(m)
    assert _bits(matfn_derivative(f, ts)) == _bits(np.zeros((5, 2, 2)))
    with pytest.raises(DomainError):
        f(np.array([0.5, 1.5]))


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "finite-differences"])
def test_matfn_derivative_on_an_array_is_the_loop_of_float_calls(declared):
    f = MatrixFunction(eval=_wiggle, domain=(0.0, 1.0),
                       derivative=(lambda t: np.cos(t) * np.eye(2)) if declared else None)
    ts = np.linspace(0.0, 1.0, 7)
    assert _bits(matfn_derivative(f, ts)) == _bits([matfn_derivative(f, t) for t in ts])


def test_matfn_derivative_linear():
    f = MatrixFunction(eval=lambda t: t * np.eye(2), domain=(0.0, 1.0))
    np.testing.assert_allclose(matfn_derivative(f, 0.5), np.eye(2), atol=1e-8)


def test_matfn_derivative_sine_corner():
    f = MatrixFunction(eval=lambda t: np.array([[np.sin(t), 0.0], [0.0, 0.0]]),
                       domain=(0.0, 1.0))
    # one-sided stencil at the left endpoint
    np.testing.assert_allclose(matfn_derivative(f, 0.0),
                               np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-8)


def test_matfn_derivative_uses_declared_derivative():
    marker = np.full((2, 2), 42.0)
    f = MatrixFunction(eval=lambda t: t * np.eye(2), domain=(0.0, 1.0),
                       derivative=lambda t: marker)
    np.testing.assert_allclose(matfn_derivative(f, 0.5), marker)


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=4, max_size=4),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_matfn_derivative_exact_on_cubics(coeffs, t):
    a, b, c, d = coeffs
    f = MatrixFunction(
        eval=lambda s: np.array([[a + b * s + c * s**2 + d * s**3]]),
        domain=(0.0, 1.0))
    want = b + 2.0 * c * t + 3.0 * d * t**2
    np.testing.assert_allclose(matfn_derivative(f, t), [[want]], atol=1e-9)


def test_fd_derivative_endpoint_stencils_are_fourth_order():
    fn = lambda t: np.array([np.exp(t)])  # noqa: E731
    for t in (0.0, 1.0, 0.5):
        got = fd_derivative(fn, t, lo=0.0, hi=1.0)
        np.testing.assert_allclose(got, [np.exp(t)], rtol=1e-9)


def test_fd_derivative_inside_a_domain_too_narrow_for_a_stencil():
    # on (0, 1e-4) a stencil of step width/4 fits only at 0, 5e-5 and 1e-4;
    # between them the one-sided stencil reaches the farther end
    f = MatrixFunction(eval=lambda t: np.array([[np.sin(1e4 * t)]]), domain=(0.0, 1e-4))
    ts = np.array([0.0, 2e-5, 5e-5, 9e-5, 1e-4])
    got = matfn_derivative(f, ts)[:, 0, 0]
    np.testing.assert_allclose(got[[1, 3]], 1e4 * np.cos(1e4 * ts[[1, 3]]), rtol=1e-3)
    assert _bits(got) == _bits([matfn_derivative(f, float(t))[0, 0] for t in ts])
    # the points that fit a stencil keep its step
    assert _bits(got[[0, 2, 4]]) == _bits(
        fd_derivative(f.__call__, ts[[0, 2, 4]], lo=0.0, hi=1e-4)[:, 0, 0])
    with pytest.raises(DomainError):
        fd_derivative(lambda t: np.array([t]), 0.0, lo=0.0, hi=0.0)


def test_fd_derivative_outside_domain():
    with pytest.raises(DomainError):
        fd_derivative(lambda t: np.array([t]), 2.0, lo=0.0, hi=1.0)


def test_matrix_function_domain_guard():
    f = MatrixFunction.constant(np.eye(2), domain=(0.0, 1.0))
    f(1.0)
    with pytest.raises(DomainError):
        f(1.5)


def test_matrix_function_rejects_non_finite_values():
    f = MatrixFunction(eval=lambda t: np.array([[np.inf]]), domain=(0.0, 1.0))
    with pytest.raises(InvalidInputError):
        f(0.5)


@pytest.mark.parametrize("vectorized", [False, True])
def test_a_non_finite_value_names_the_first_time_it_is_at(vectorized):
    # _stepped is not finite from t = 0.8 on; times are read in row-major
    # order, so 0.9 comes before 0.85
    f = MatrixFunction(eval=_stepped, domain=(0.0, 1.0), name="w", vectorized=vectorized)
    with pytest.raises(InvalidInputError, match=r"^non-finite w at t=0\.8$"):
        f(np.array([0.1, 0.5, 0.8, 0.95]))
    with pytest.raises(InvalidInputError, match=r"^non-finite w at t=0\.9$"):
        f(np.array([[0.1, 0.9], [0.85, 0.2]]))


# --- stacks of matrices and arrays of times ----------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _mixed_rank_stack():
    rng = np.random.default_rng(5)
    return np.stack([np.zeros((3, 3)),
                     random_fixed_rank(rng, 3, 1),
                     random_fixed_rank(rng, 3, 2),
                     random_fixed_rank(rng, 3, 3),
                     np.diag([1.0, 1e-12, 0.0])])


def _repeating_stack():
    """The mixed-rank stack, two of its matrices again, and a ±0.0 pair:
    the same matrix with +0.0 and with −0.0 in one entry, whose SVDs differ
    in the last bits."""
    plus = np.array([[0.0, -1.0, -1.0], [3.0, 1.0, 2.0], [1.0, 0.0, 0.5]])
    minus = plus.copy()
    minus[0, 0] = -0.0
    stack = _mixed_rank_stack()
    return np.concatenate([stack, stack[[3, 1]], [plus, minus, plus]])


def _stacks():
    """Stacks (..., 3, 3) with repeats: flat, with a broadcast middle axis
    (the (n, 1 → S, r, r) shape of a frozen chain's level 0), and a
    non-contiguous view."""
    stack = _repeating_stack()
    return [stack, np.broadcast_to(stack[:, None], (len(stack), 4, 3, 3)),
            np.swapaxes(stack.reshape(2, 5, 3, 3), 0, 1)]


def _is_fresh(x):
    return x.flags.c_contiguous and x.flags.writeable


def test_stacked_semi_inverse_is_the_loop_of_single_calls():
    stack = _mixed_rank_stack()
    got = semi_inverse(stack)
    singles = [semi_inverse(m) for m in stack]
    assert got.rank.tolist() == [res.rank for res in singles] == [0, 1, 2, 3, 1]
    assert _bits(got.a_minus) == _bits([res.a_minus for res in singles])
    assert _bits(got.projector) == _bits([res.projector for res in singles])
    plus, minus = _repeating_stack()[-3:-1]
    assert _bits(semi_inverse(plus).a_minus) != _bits(semi_inverse(minus).a_minus)
    for stack in _stacks():
        got = semi_inverse(stack)
        singles = [semi_inverse(stack[i]) for i in np.ndindex(stack.shape[:-2])]
        assert got.rank.shape == stack.shape[:-2]
        assert got.rank.ravel().tolist() == [res.rank for res in singles]
        assert _bits(got.a_minus) == _bits([res.a_minus for res in singles])
        assert _bits(got.projector) == _bits([res.projector for res in singles])
        assert all(map(_is_fresh, (got.a_minus, got.projector, got.rank)))


def test_stacked_numerical_rank_is_the_loop_of_single_calls():
    stack = _mixed_rank_stack()
    assert numerical_rank(stack).tolist() == [numerical_rank(m) for m in stack]
    # leading axes of any shape, gufunc style
    assert numerical_rank(stack[:4].reshape(2, 2, 3, 3)).tolist() == [[0, 1], [2, 3]]
    for stack in _stacks():
        got = numerical_rank(stack)
        assert got.shape == stack.shape[:-2] and _is_fresh(got)
        assert got.ravel().tolist() == [numerical_rank(stack[i])
                                        for i in np.ndindex(stack.shape[:-2])]


def test_stacked_det_is_the_loop_of_np_linalg_det():
    for stack in _stacks():
        got = det(stack)
        assert got.shape == stack.shape[:-2] and _is_fresh(got)
        assert _bits(got) == _bits([np.linalg.det(stack[i])
                                    for i in np.ndindex(stack.shape[:-2])])
    m = _mixed_rank_stack()[3]
    assert _bits(det(m)) == _bits(np.linalg.det(m))


@pytest.mark.parametrize("fn, routine", [(semi_inverse, "svd"), (numerical_rank, "svd"),
                                         (det, "det")])
def test_a_stack_factors_each_distinct_matrix_once(fn, routine, monkeypatch):
    factored = []
    lapack = getattr(np.linalg, routine)

    def spy(m, *args, **kwargs):
        factored.extend(np.reshape(m, (-1, 3, 3)))
        return lapack(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, spy)
    stack = _repeating_stack()
    fn(np.broadcast_to(stack[3], (1000, 3, 3)))
    assert _bits(factored) == _bits(stack[3])
    for stack in _stacks():
        factored.clear()
        fn(stack)
        # the ±0.0 pair is two matrices, and each matrix is factored once
        distinct = {m.tobytes() for m in stack.reshape(-1, 3, 3)}
        assert sorted(m.tobytes() for m in factored) == sorted(distinct)


@pytest.mark.parametrize("fn", [semi_inverse, numerical_rank])
def test_a_non_finite_slice_rejects_the_stack(fn):
    stack = _mixed_rank_stack()
    stack[3, 1, 2] = np.nan
    with pytest.raises(InvalidInputError):
        fn(stack)
    with pytest.raises(InvalidInputError):
        fn(np.zeros((4, 2, 3)))


def _wiggle(t, s=0.0):
    t, s = np.asarray(t)[..., None, None], np.asarray(s)[..., None, None]
    return np.array([[1.0, 0.0], [0.0, 2.0]]) * np.sin(3.0 * t) + np.cos(t + s) - t ** 3


def test_fd_derivative_on_an_array_is_the_loop_of_float_calls():
    # both ends of [0, 1] take one-sided stencils, the middle the central one
    ts = np.array([0.0, 1e-5, 2e-4, 0.5, 1.0 - 2e-4, 1.0 - 1e-5, 1.0])
    got = fd_derivative(_wiggle, ts, lo=0.0, hi=1.0)
    want = [fd_derivative(_wiggle, t, lo=0.0, hi=1.0) for t in ts]
    assert got.shape == (ts.size, 2, 2)
    assert _bits(got) == _bits(want)
    # extra arguments travel with their t, through every stencil kind
    ss = np.linspace(-1.0, 1.0, ts.size)
    got = fd_derivative(_wiggle, ts, lo=0.0, hi=1.0, args=(ss,))
    want = [fd_derivative(_wiggle, t, lo=0.0, hi=1.0, args=(s,))
            for t, s in zip(ts, ss)]
    assert _bits(got) == _bits(want)


def test_fd_derivative_on_an_array_calls_fn_once():
    calls = []

    def fn(tau):
        calls.append(np.shape(tau))
        return _wiggle(tau)

    fd_derivative(fn, np.array([0.0, 0.5, 1.0]), lo=0.0, hi=1.0)
    assert calls == [(4 + 5 + 5,)]
    with pytest.raises(DomainError):
        fd_derivative(fn, np.array([0.5, 1.5]), lo=0.0, hi=1.0)


def test_matrix_function_on_an_array_is_the_loop_of_float_calls():
    seen = []

    def ev(t):
        seen.append(type(t))
        return _wiggle(t)

    f = MatrixFunction(eval=ev, domain=(0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 7)
    got = f(ts)
    assert seen == [float] * ts.size
    assert _bits(got) == _bits([f(t) for t in ts])
    assert f(ts.reshape(7, 1)).shape == (7, 1, 2, 2)
    vec = MatrixFunction(eval=_wiggle, domain=(0.0, 1.0), vectorized=True)
    assert _bits(vec(ts)) == _bits(got)
    assert _bits(vec(0.25)) == _bits(f(0.25))
    with pytest.raises(DomainError):
        f(np.array([0.5, 1.5]))


def test_a_vectorized_eval_gets_a_float_t_as_a_one_point_array():
    # written for arrays only: t[:, None, None] fails on a float
    f = MatrixFunction(eval=lambda t: t[:, None, None] * np.eye(2), domain=(0.0, 1.0),
                       derivative=lambda t: np.ones_like(t)[:, None, None] * np.eye(2),
                       vectorized=True)
    assert _bits(f(0.25)) == _bits(0.25 * np.eye(2))
    assert _bits(matfn_derivative(f, 0.25)) == _bits(np.eye(2))
    ts = np.linspace(0.0, 1.0, 4)
    assert _bits(f(ts)) == _bits([f(t) for t in ts])
    assert _bits(matfn_derivative(f, ts)) == _bits([np.eye(2)] * 4)


def test_all_finite_gives_np_isfinite_alls_verdict():
    # finite entries from 1e-300 to 1e200 (v·v overflows past 1e154), with
    # NaN and ±inf mixed in; a RuntimeWarning fails the test
    rng = np.random.default_rng(29)
    cases = [np.array([1e200, 1.0]), np.array([[1e160, 0.0], [0.0, 1e-300]]),
             np.array([np.nan]), np.array([np.inf, -np.inf]), np.zeros(0), np.zeros((2, 0))]
    for shape in [(1,), (2,), (7,), (2, 2), (3, 3), (1, 2, 2), (4, 2, 2)]:
        for share in (0.0, 0.1, 0.5):
            for _ in range(30):
                v = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 200, shape)
                bad = rng.random(shape) < share
                v[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
                cases.append(v)
    # stacks as the chain makes them: a kernel's non-contiguous (n, S, r, r)
    # stack, a broadcast constant, a transposed view; and a long vector
    for bad in (None, np.nan, np.inf, -np.inf, 1e160, -1e200):
        values = 10.0 ** rng.uniform(-300, 150, (2, 2, 760 * 9))
        if bad is not None:
            values[1, 0, rng.integers(values.shape[-1])] = bad
        kernel = np.moveaxis(values, -1, 0).reshape(760, 9, 2, 2)
        cases += [kernel, kernel[::3, :, ::-1], np.swapaxes(kernel, -1, -2),
                  np.broadcast_to(kernel[7, 4], (760, 9, 2, 2)),
                  np.broadcast_to(kernel[:, None, 0], (760, 9, 2, 2)), values.ravel()]
    verdicts = [all_finite(v) for v in cases]
    assert verdicts == [bool(np.isfinite(v).all()) for v in cases]
    assert 0 < sum(verdicts) < len(verdicts)


def test_all_finite_takes_no_dot_product_of_a_large_value(monkeypatch):
    # a kernel stack as linear_kernel returns it, non-contiguous
    calls = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, b: calls.append(a.shape) or vdot(a, b))
    kernel = np.moveaxis(np.ones((2, 2, 760 * 9)), -1, 0).reshape(760, 9, 2, 2)
    for v in (kernel, np.ones((2, 2)), np.ones(10_000), np.ones(6)):
        assert all_finite(v)
    assert calls == [(2, 2), (6,)]


def _outcome(f, t):
    """f(t)'s value (its bytes, shape and type) or its error (type and text)."""
    try:
        value = f(t)
    except (DomainError, InvalidInputError) as exc:
        return type(exc), str(exc)
    return value.tobytes(), value.shape, type(value)


# in the span [0, 1], within its 1e-9 slack, outside it, and NaN
SPAN_TIMES = [0.25, np.float64(0.25), 0.0, -0.0, 1.0, -5e-10, 1.0 + 5e-10, -2e-9,
              1.0 + 2e-9, 1.5, np.nan, 0.9, np.float64(0.9)]


def _stepped(t):
    # _wiggle, non-finite from t = 0.8 on
    return np.where(np.asarray(t)[..., None, None] < 0.8, _wiggle(t), np.inf)


@pytest.mark.parametrize("make", [
    lambda: MatrixFunction(eval=_stepped, domain=(0.0, 1.0), name="w"),
    lambda: MatrixFunction(eval=_stepped, domain=(0.0, 1.0), name="w", vectorized=True),
    lambda: MatrixFunction(eval=lambda t: _wiggle(t)[0], domain=(0.0, 1.0)),
    lambda: MatrixFunction.constant(np.arange(4.0).reshape(2, 2), domain=(0.0, 1.0), name="c"),
    lambda: MatrixFunction.constant([[0.0, np.nan]], domain=(0.0, 1.0), name="c"),
], ids=["per-point", "vectorized", "per-point-vector", "constant", "constant-nan"])
def test_a_float_call_is_the_array_paths_call_bit_for_bit(make):
    # a 0-d array takes the path a float took before it had its own; the
    # (1,) call's row has the same bits
    f = make()
    for t in SPAN_TIMES:
        got = _outcome(f, t)
        assert got == _outcome(f, np.array(t))
        if isinstance(got[0], bytes):
            assert got[0] == f(np.array([t]))[0].tobytes()


def test_only_the_vectorized_field_decides_how_eval_is_called():
    # an attribute on the function itself changes nothing
    seen = []

    def ev(t):
        seen.append(type(t))
        return _wiggle(t)

    ev.vectorized = True
    f = MatrixFunction(eval=ev, domain=(0.0, 1.0))
    f(0.25)
    f(np.linspace(0.0, 1.0, 4))
    assert seen == [float] * 5


def test_further_arguments_are_broadcast_with_t_and_passed_along():
    seen = []

    def ev(t, s):
        seen.append((type(t), type(s)))
        return np.array([[t, s], [s * t, 1.0]])

    f = MatrixFunction(eval=ev, domain=(0.0, 1.0))
    vec = MatrixFunction(eval=lambda t, s: np.stack([ev(*p) for p in zip(t, s)]),
                         domain=(0.0, 1.0), vectorized=True)
    ts = np.linspace(0.0, 1.0, 5)
    want = np.stack([ev(t, 0.3) for t in ts])
    seen.clear()
    assert _bits(f(ts, 0.3)) == _bits(want)
    assert seen == [(float, float)] * ts.size
    assert _bits(f(0.4, ts)) == _bits([ev(0.4, s) for s in ts])
    assert _bits(vec(ts, 0.3)) == _bits(want)
    assert _bits(vec(0.4, 0.3)) == _bits(ev(0.4, 0.3))
    with pytest.raises(DomainError):
        f(1.5, 0.3)


def test_writing_into_a_constant_value_raises_and_changes_nothing():
    a = example("ex34").A
    before = a(1.5).copy()
    for value in (a(1.5), a(np.array([1.2, 1.5])), matfn_derivative(a, 1.5)):
        with pytest.raises(ValueError, match="read-only"):
            value[..., 1, 1] = 5.0
    assert _bits(a(1.5)) == _bits(before)
    assert _bits(a(np.array([1.2, 1.5]))) == _bits([before, before])
    assert _bits(matfn_derivative(a, 1.5)) == _bits(np.zeros((2, 2)))


def test_a_constant_keeps_its_own_copy_of_m():
    m = np.array([[2.0, 1.0], [0.0, 3.0]])
    f = MatrixFunction.constant(m, domain=(0.0, 1.0))
    m[0, 0] = 7.0
    assert _bits(f(0.5)) == _bits([[2.0, 1.0], [0.0, 3.0]])
    assert _bits(f(np.array([0.5]))) == _bits([[[2.0, 1.0], [0.0, 3.0]]])


def test_a_constant_kernel_is_the_kernel_of_its_value():
    # k(t, s) = m as MatrixFunction.constant(m), which ignores s, and as a
    # plain function of (t, s): the same collocation and the same chain
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0))
    out = []
    for k in (MatrixFunction.constant(m, domain=(0.0, 1.0)), lambda t, s: m):
        p = LinearIAE(A=a, k=k, f=lambda t: np.array([np.sin(t), t]), r=2, T=1.0)
        sol, diag = solve_iae(p, CollocationConfig(h=0.1))
        assert diag["failure"] is None
        out.append((_bits(sol.nodal_values), float_bits(rank_degree_index(a, k).to_dict())))
    assert out[0][1]["nu"] == 2
    assert out[0] == out[1]


def test_a_vectorized_view_kernel_gives_the_per_point_kernels_values():
    # a user's kernel returning a zero-stride view of one matrix, against
    # the same matrix per point: the nodal values agree bit for bit
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    view = MatrixFunction(eval=lambda t, s: np.broadcast_to(m, t.shape + m.shape),
                          domain=(0.0, 1.0), vectorized=True)
    out = []
    for k in (view, lambda t, s: m):
        p = LinearIAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)), k=k,
                      f=lambda t: np.array([np.sin(t), t]), r=2, T=1.0)
        out.append(_bits(solve_iae(p, CollocationConfig(h=0.1))[0].nodal_values))
    assert out[0] == out[1]


def test_per_point_wraps_a_plain_callable_and_keeps_a_matrix_function():
    f = MatrixFunction.constant(np.eye(2))
    assert per_point(f, (5.0, 6.0)) is f
    g = per_point(_wiggle, (0.0, 1.0), "g")
    assert (g.domain, g.name, g.vectorized) == ((0.0, 1.0), "g", False)
    assert _bits(g(0.25)) == _bits(_wiggle(0.25))


def test_matrix_function_evaluates_at_every_call():
    calls = []
    f = MatrixFunction(eval=lambda t: calls.append(t) or np.eye(2), domain=(0.0, 1.0))
    f(0.5)
    f(0.5)
    assert calls == [0.5, 0.5]


# --- the shared Newton routine ------------------------------------------------

def _no_jacobian(x):
    raise AssertionError("jacobian called after a non-finite residual")


@pytest.mark.parametrize("residual, jacobian, x0, max_iter, affine, want_x, want_iters", [
    (lambda x: x ** 2 - 2.0, lambda x: np.diag(2.0 * x), [1.0], 25, False, np.sqrt(2.0), 5),
    (lambda x: x - 1.0, lambda x: np.zeros((1, 1)), [0.5], 25, False, None, 1),
    (lambda x: np.array([np.inf]), _no_jacobian, [0.5], 25, False, None, 1),
    (lambda x: x - 1.0, lambda x: np.array([[np.nan]]), [0.5], 25, False, None, 1),
    # affine: the first step is taken as the answer, converged or not
    (lambda x: x ** 2 - 2.0, lambda x: np.diag(2.0 * x), [1.0], 25, True, 1.5, 1),
    # x^2 + 1 has no real root: the iterates wander until max_iter
    (lambda x: x ** 2 + 1.0, lambda x: np.diag(2.0 * x), [0.5], 7, False, None, 7),
    # the first step lands near -5e159: finite, but ‖x‖ overflows, and
    # ‖δ‖ ≤ tol·(1 + ‖x‖) would then accept it whatever δ is
    (lambda x: x ** 2 + 1.0, lambda x: np.diag(2.0 * x), [1e-160], 25, False, None, 1),
], ids=["sqrt2", "singular-jacobian", "non-finite-residual", "non-finite-jacobian",
        "affine-one-step", "no-root", "overflowing-iterate"])
def test_newton_outcomes(residual, jacobian, x0, max_iter, affine, want_x, want_iters):
    x, iters, res, jac = newton(residual, jacobian, x0, 1e-12, max_iter, affine=affine)
    _assert_same_newton((x, iters, res, jac),
                        reference_newton(residual, jacobian, x0, 1e-12, max_iter, affine))
    assert iters == want_iters
    if want_x is None:
        assert x is None
    else:
        np.testing.assert_allclose(x, [want_x], rtol=1e-15)
    assert res.shape == (1,)
    if jacobian is _no_jacobian:
        assert jac is None
    else:
        assert jac.shape == (1, 1)


def _assert_same_newton(got, want):
    """The same (x, iterations, residual, Jacobian), byte for byte."""
    x, iters, res, jac = got
    assert iters == want[1]
    for g, w in zip((x, res, jac), (want[0], want[2], want[3])):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.shape == w.shape and _bits(g) == _bits(w)


def _newton_cases(r: int):
    vec = st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=r, max_size=r)
    return st.tuples(vec, vec, vec)


# a, b and x0 all (0, −0): the step's second entry is −0 − 0·(−0), whose
# sign only a reference that steps x − solve(J, res) as newton does gets
@pinned_example(case=([0.0, -0.0],) * 3, affine=False)
@given(case=st.integers(min_value=1, max_value=3).flatmap(_newton_cases), affine=st.booleans())
@settings(max_examples=80, deadline=None)
def test_newton_matches_the_reference_loop_bit_for_bit(case, affine):
    # x + a·sin(x) = b: smooth, with a singular or nearly singular Jacobian
    # wherever 1 + a·cos(x) vanishes, so every exit is reachable
    a, b, x0 = (np.array(v) for v in case)
    r = a.size

    def residual(x):
        return x + a * np.sin(x) - b

    def jacobian(x):
        return np.eye(r) + np.diag(a * np.cos(x))

    _assert_same_newton(newton(residual, jacobian, x0, 1e-12, 25, affine=affine),
                        reference_newton(residual, jacobian, x0, 1e-12, 25, affine))


@pytest.mark.parametrize("jac", [
    np.zeros((2, 2)),
    np.outer([1.0, 2.0], [3.0, -1.0]),
    np.array([[1.0, 0.0], [2.0, 0.0]]),
    np.zeros((3, 3)),
    np.outer([1.0, -2.0, 0.5], [2.0, 1.0, 3.0]),
    np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]]),
], ids=["zero-2", "rank1-2", "zero-column-2", "zero-3", "rank1-3", "zero-column-3"])
def test_newton_exits_at_once_on_an_exactly_singular_jacobian(jac):
    # the solve gives a NaN step, a non-finite iterate: the record of a
    # singular Jacobian, and no warning from the solve's invalid flag
    def residual(x):
        return x - 1.0

    x0 = np.zeros(jac.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = newton(residual, lambda x: jac, x0, 1e-12, 25)
    _assert_same_newton(got, reference_newton(residual, lambda x: jac, x0, 1e-12, 25))
    assert got[0] is None and got[1] == 1


@pytest.mark.parametrize("module, run", [
    (bdf, lambda: solve_dae(example("ex32"), DaeSolveConfig(h=1e-3))),
    (collocation, lambda: solve_iae(example("ex34"), CollocationConfig(h=0.025))),
], ids=["solve_dae-ex32", "solve_iae-ex34"])
def test_solvers_step_without_np_linalg_solve(module, run, monkeypatch):
    # the reference loop steps with np.linalg.solve; newton calls LAPACK's
    # gesv directly and must give the same bits
    with monkeypatch.context() as m:
        m.setattr(module, "newton", reference_newton)
        want = run()

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    got = run()
    if module is bdf:
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.newton_iters, got.halvings, got.failure) == \
            (want.newton_iters, want.halvings, want.failure)
    else:
        assert got[0].nodal_values.tobytes() == want[0].nodal_values.tobytes()
        assert got[1] == want[1]


def test_norm2_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = []
    for scale in (1e-300, 1e-160, 1e-10, 1.0, 1e10, 1e160, 1e200):
        cases += [scale * rng.normal(size=n) for n in (0, 1, 2, 3, 8)]
        m = scale * rng.normal(size=(3, 4))
        cases += [m, m.T, np.asfortranarray(m)]
    cases += [np.array(v) for v in ([1.0, np.nan], [np.inf, 2.0], [-np.inf, 1.0],
                                    [np.inf, -np.inf], [np.nan, np.inf], [[np.inf, 0.5]])]
    # 1e160² and 1e200² overflow the dot to inf, as in np.linalg.norm
    with np.errstate(over="ignore"):
        for v in cases:
            assert _bits(norm2(v)) == _bits(np.linalg.norm(v))
        assert norm2(1e200 * np.ones(2)) == np.inf


# --- quadrature -----------------------------------------------------------------

def test_each_gauss_rule_is_built_once_on_first_use(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: built.append(n) or leggauss(n))
    gauss_legendre.cache_clear()
    x, w = gauss_legendre(8)
    assert _bits(x) == _bits(leggauss(8)[0]) and _bits(w) == _bits(leggauss(8)[1])
    assert not x.flags.writeable and not w.flags.writeable
    # quadrature's rule and the collocation solver's are the one rule
    quadrature(np.sin, 0.0, 1.0, 1e-12)
    quadrature(np.cos, 0.0, 1.0, 1e-12)
    solve_iae(example("ex34"), CollocationConfig(h=0.05, newton_tol=1e-10),
              interval=(1.0, 1.1))
    assert built == [8] == [collocation.QUAD_ORDER]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 2.0), (0.3, 0.30001), (-2.0, 3.0),
                                  (1.0, 0.5)])
def test_quadrature_agrees_with_scipy_quad(a, b):
    quad = pytest.importorskip("scipy.integrate").quad
    fns = [np.sin, lambda s: np.exp(-s * s), lambda s: 1.0 / (1.0 + s * s),
           lambda s: np.cos(5.0 * s) * s ** 3]
    got = quadrature(lambda s: np.array([fn(s) for fn in fns]), a, b, 1e-12)
    want = [quad(fn, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0] for fn in fns]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fn, match", [
    (lambda s: np.array([1.0, np.nan if s > 0.5 else 0.0]), "non-finite"),
    # a jump inside a panel: the estimates never settle to 1e-12
    (lambda s: np.array([float(s > 1.0 / 3.0)]), "panels"),
], ids=["nan", "panel-cap"])
def test_quadrature_raises_evaluation_error(fn, match):
    with pytest.raises(EvaluationError, match=match):
        quadrature(fn, 0.0, 1.0, 1e-12)
