"""Problem registry, Jacobians, trajectory sampling, exact-solution gates."""

import numpy as np
import pytest

from daekit import (
    CollocationConfig,
    DaeSolveConfig,
    ExtrapolationError,
    InvalidInputError,
    LinearDAE,
    LinearIAE,
    MatrixFunction,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    TrajectorySample,
    available,
    example,
    fd_jacobian,
    solve_dae,
    solve_iae,
    verify_exact,
)
from daekit.problems import MAX_STEPS, mesh_steps
from helpers import ex33_as_integral_equation


def test_registry_lists_all_five():
    assert available() == ["ex31", "ex32", "ex33", "ex34", "ex35"]


def test_unknown_example_name():
    with pytest.raises(InvalidInputError):
        example("ex99")


def test_fd_jacobian_identity_map():
    jac = fd_jacobian(lambda t, y: y, 0.3, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(jac, np.eye(3), atol=1e-9)


def test_fd_jacobian_of_a_non_finite_value_is_non_finite_not_an_error():
    # the caller checks the Jacobian, as it checks a declared one
    g = lambda t, y: np.where(y <= 1.0 + 5e-7, y - 1.0, np.inf)  # noqa: E731
    assert fd_jacobian(g, 0.1, np.ones(1)).tolist() == [[np.inf]]
    assert fd_jacobian(g, np.zeros(3), np.ones((1, 3))).tolist() == [[[np.inf] * 3]]


def test_fd_jacobian_on_shared_dae_rows():
    # d/dy of (-y1^2 - e^{y2}, -y1 y2) at (1, 0)
    p = example("ex32")
    jac = fd_jacobian(p.F, 0.4, np.array([1.0, 0.0]))
    np.testing.assert_allclose(jac, [[-2.0, -1.0], [0.0, -1.0]], atol=1e-6)


def test_fd_jacobian_on_shared_kernel_rows():
    # d/dy of ((y1^2+2) y2 + e^{y2}, y1^2) at (0, 1)
    p = example("ex34")
    jac = fd_jacobian(p.kappa, 1.5, 0.0, np.array([0.0, 1.0]))
    np.testing.assert_allclose(jac, [[0.0, 2.0 + np.e], [0.0, 0.0]], atol=1e-6)


def kappa_of_t_and_s(t, s, y):
    return np.array([np.sin(t * y[0]) + s * y[1] ** 2, np.exp(y[0] - s) * t])


def test_fd_jacobian_on_a_batch_matches_the_pointwise_loop():
    # y of shape (r, M): one Jacobian per point on the last axis, from one
    # call of g on all 2r perturbed copies (t and s tiled to match), with the
    # arithmetic of differencing each point on its own, two calls per column
    rng = np.random.default_rng(7)
    s = rng.uniform(1.0, 2.0, size=9)
    y = rng.uniform(-2.0, 2.0, size=(2, 9))
    for t, t_shape in ((1.5, ()), (np.linspace(1.0, 2.0, 9), (36,))):
        shapes = []

        def g(tt, ss, yy):
            shapes.append((np.shape(tt), np.shape(ss), np.shape(yy)))
            return kappa_of_t_and_s(tt, ss, yy)

        batch = fd_jacobian(g, t, s, y)
        assert batch.shape == (2, 2, 9)
        assert shapes == [(t_shape, (36,), (2, 36))]
        t_at = np.broadcast_to(t, s.shape)
        for j in range(9):
            want = fd_jacobian(kappa_of_t_and_s, float(t_at[j]), s[j], y[:, j])
            np.testing.assert_array_equal(batch[:, :, j], want)


@pytest.mark.parametrize("name", ["ex31", "ex32", "ex33"])
def test_analytic_jacobians_match_finite_differences_dae(name):
    p = example(name)
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = rng.uniform(*p.interval)
        y = rng.uniform(-2.0, 2.0, size=p.r)
        np.testing.assert_allclose(p.F_y(t, y), fd_jacobian(p.F, t, y), atol=1e-6)


@pytest.mark.parametrize("name", ["ex34", "ex35"])
def test_analytic_jacobians_match_finite_differences_iae(name):
    p = example(name)
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = rng.uniform(*p.interval)
        s = rng.uniform(p.t_start, t)
        y = rng.uniform(-2.0, 2.0, size=p.r)
        got = p.kappa_y(t, s, y)
        want = fd_jacobian(p.kappa, t, s, y)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_verify_exact_ex33():
    p = example("ex33")
    assert verify_exact(p, np.linspace(0.0, 2.0, 101)) <= 1e-8


def test_verify_exact_ex32():
    p = example("ex32")
    assert verify_exact(p, np.linspace(0.5, 1.0, 51)) <= 1e-8


def test_verify_exact_ex34():
    p = example("ex34")
    assert verify_exact(p, np.linspace(1.0, 2.0, 21)) <= 1e-6


def test_verify_exact_ex35():
    p = example("ex35")
    assert verify_exact(p, np.linspace(1.0, 2.0, 21)) <= 1e-6


def test_verify_exact_integrated_ex33():
    p = ex33_as_integral_equation()
    assert verify_exact(p, np.linspace(0.0, 2.0, 21)) <= 1e-8


def _constant(rows):
    return MatrixFunction.constant(np.array(rows, dtype=float), domain=(0.0, 1.0))


def test_verify_exact_linear_dae():
    # y1' = y2, y2 = cos t
    p = LinearDAE(A=_constant([[1, 0], [0, 0]]), B=_constant([[0, -1], [0, 1]]),
                  f=lambda t: np.array([0.0, np.cos(t)]), y0=np.array([0.0, 1.0]),
                  r=2, T=1.0)
    grid = np.linspace(0.0, 1.0, 11)
    p.exact = lambda t: np.array([np.sin(t), np.cos(t)])
    assert verify_exact(p, grid) <= 1e-6
    p.exact = lambda t: np.array([np.cos(t), np.cos(t)])
    assert verify_exact(p, grid) >= 0.5


def test_verify_exact_linear_iae():
    # y1 + int y2 = 1, int y1 = sin t: the index-2 constant pair
    p = LinearIAE(A=_constant([[1, 0], [0, 0]]),
                  k=lambda t, s: np.array([[0.0, 1.0], [1.0, 0.0]]),
                  f=lambda t: np.array([1.0, np.sin(t)]), r=2, T=1.0)
    grid = np.linspace(0.0, 1.0, 11)
    p.exact = lambda t: np.array([np.cos(t), np.sin(t)])
    assert verify_exact(p, grid) <= 1e-8
    p.exact = lambda t: np.array([np.cos(t), np.cos(t)])
    assert verify_exact(p, grid) >= 0.1


@pytest.mark.parametrize("cls, fields", [
    (LinearIAE, {"k": lambda t, s: np.array([[0.0, 1.0], [1.0, 0.0]])}),
    (LinearDAE, {"B": MatrixFunction.constant(np.array([[0.0, 1.0], [1.0, 0.0]])), "y0": None}),
    (SemiNonlinearIAE, {"kappa": lambda t, s, y: y[::-1]}),
    (SemiNonlinearDAE, {"F": lambda t, y: y[::-1]}),
], ids=["LinearIAE", "LinearDAE", "SemiNonlinearIAE", "SemiNonlinearDAE"])
def test_a_problem_refuses_an_A_whose_domain_starts_before_t_start(cls, fields):
    # the chain takes the start of A's domain as the integral origin, so A
    # on (0, 1) with t_start = 0.5 would check consistency at 0, not 0.5
    a = MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0))
    f = lambda t: np.array([t + 1.0, np.sin(t)])  # noqa: E731
    with pytest.raises(InvalidInputError, match=r"domain \(0.0, 1.0\) must start at t_start = 0.5"):
        cls(A=a, f=f, r=2, T=1.0, t_start=0.5, **fields)
    assert cls(A=a, f=f, r=2, T=1.0, t_start=0.0, **fields).interval == (0.0, 1.0)


def test_mesh_steps_refuses_more_than_max_steps():
    assert mesh_steps(0.0, 1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        mesh_steps(0.0, 1.0, 1e-300)


def test_verify_exact_needs_exact_solution():
    with pytest.raises(InvalidInputError):
        verify_exact(example("ex31"), np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("name", ["ex32", "ex33"])
def test_initial_values_satisfy_algebraic_rows(name):
    p = example(name)
    assert p.consistency_defect(p.t_start, p.y0) <= 1e-8


def test_registered_critical_conditions():
    for name in ("ex32", "ex34", "ex35"):
        p = example(name)
        assert len(p.critical_conditions) == 1
        g = p.critical_conditions[0]
        assert g(1.2, np.array([0.7, 3.0])) == pytest.approx(0.7)
    assert example("ex33").critical_conditions == ()


def test_problem_kinds():
    assert isinstance(example("ex31"), SemiNonlinearDAE)
    assert isinstance(example("ex32"), SemiNonlinearDAE)
    assert isinstance(example("ex33"), SemiNonlinearDAE)
    assert isinstance(example("ex34"), SemiNonlinearIAE)
    assert isinstance(example("ex35"), SemiNonlinearIAE)


def test_trajectory_sample_interpolates_linearly():
    traj = TrajectorySample(times=np.array([0.0, 1.0, 2.0]),
                            values=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    np.testing.assert_allclose(traj(0.5), [1.0, 2.0])
    np.testing.assert_allclose(traj(2.0), [4.0, 5.0])
    assert traj.span == (0.0, 2.0)


def test_trajectory_sample_rejects_bad_data():
    with pytest.raises(InvalidInputError):
        TrajectorySample(times=np.array([0.0, 0.0]), values=np.zeros((2, 1)))
    with pytest.raises(InvalidInputError):
        TrajectorySample(times=np.array([0.0, 1.0]), values=np.zeros((3, 1)))
    with pytest.raises(InvalidInputError):
        TrajectorySample(times=np.array([0.0, 1.0]),
                         values=np.array([[np.nan], [1.0]]))


def test_trajectory_sample_extrapolation_guard():
    traj = TrajectorySample.from_function(lambda t: np.array([t, t * t]),
                                          np.linspace(0.0, 1.0, 11))
    with pytest.raises(ExtrapolationError):
        traj(1.5)
    with pytest.raises(ExtrapolationError):
        traj(np.array([0.5, 1.5]))


def _interpolated(traj, t):
    """The interpolant at one float t, in scalar arithmetic."""
    lo, hi = traj.span
    t = min(max(float(t), lo), hi)
    i = min(max(int(np.searchsorted(traj.times, t, side="right")) - 1, 0), traj.times.size - 2)
    t0, t1 = traj.times[i], traj.times[i + 1]
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * traj.values[i] + w * traj.values[i + 1]


def test_trajectory_on_an_array_is_the_loop_of_float_calls():
    rng = np.random.default_rng(11)
    times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=9)]))
    traj = TrajectorySample.from_function(lambda t: np.array([np.sin(3.0 * t), t * t]), times)
    # random points, every sample time, and ends just outside the span (clamped)
    ts = np.concatenate([rng.uniform(0.0, 1.0, size=50), times, [-1e-10, 1.0 + 1e-10]])
    want = np.stack([_interpolated(traj, t) for t in ts]).tobytes()
    assert traj(ts).tobytes() == want
    assert np.stack([traj(t) for t in ts]).tobytes() == want
    single = TrajectorySample(times=[0.5], values=[[1.0, 2.0]])
    assert single(np.array([0.5, 0.5])).tobytes() == np.stack([single(0.5)] * 2).tobytes()


def _outcome(traj, t):
    """traj(t)'s value (its bytes, shape and type) or its error (type and text)."""
    try:
        value = traj(t)
    except ExtrapolationError as exc:
        return ExtrapolationError, str(exc)
    return value.tobytes(), value.shape, type(value)


@pytest.mark.parametrize("make", [
    lambda: TrajectorySample.from_function(lambda t: np.array([np.sin(3.0 * t), t * t]),
                                           np.linspace(0.0, 1.0, 9)),
    lambda: TrajectorySample(times=[0.0], values=[[1.0, 2.0]]),
    lambda: solve_dae(example("ex33"), DaeSolveConfig(h=0.125), interval=(0.0, 1.0)),
    # one accepted point: y' = exp(60y) blows up before t = 0.5
    lambda: solve_dae(SemiNonlinearDAE(
        A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
        F=lambda t, y: -np.exp(60.0 * y), f=lambda t: np.zeros(1), r=1, T=1.0,
        y0=np.zeros(1)), DaeSolveConfig(h=0.5)),
    lambda: solve_iae(ex33_as_integral_equation(), CollocationConfig(c=(0.0, 0.7, 0.9), h=0.125),
                      interval=(0.0, 1.0))[0],
], ids=["sample", "one-point-sample", "bdf", "one-point-bdf", "collocation"])
def test_a_float_call_on_a_trajectory_is_the_array_paths_call_bit_for_bit(make):
    # a 0-d array takes the path a float took before it had its own; the
    # (1,) call's row has the same bits
    traj = make()
    lo, hi = traj.span
    slack = 5e-10 * max(1.0, abs(hi))
    inside = np.linspace(lo, hi, 13).tolist()
    for t in [*inside, *map(np.float64, inside), -0.0 if lo == 0.0 else lo, lo - 5e-10,
              hi + slack, lo - 2e-9, hi + 4 * slack, np.nan]:
        got = _outcome(traj, t)
        assert got == _outcome(traj, np.array(t))
        if isinstance(got[0], bytes):
            assert got[0] == traj(np.array([t]))[0].tobytes()


@pytest.mark.parametrize("declared", [True, False], ids=["kappa_y", "finite-differences"])
def test_batched_kappa_jacobian_is_the_pointwise_stack(declared):
    p = example("ex34")
    if not declared:
        p.kappa_y = None
    rng = np.random.default_rng(8)
    s = rng.uniform(1.0, 2.0, size=9)
    y = rng.uniform(-2.0, 2.0, size=(2, 9))
    batch = p.kappa_jacobian(1.5, s, y)
    want = np.stack([p.kappa_jacobian(1.5, s[g], y[:, g]) for g in range(9)], axis=-1)
    np.testing.assert_array_equal(batch, want)
