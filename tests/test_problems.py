"""Problem registry, Jacobians, trajectory sampling, exact-solution gates."""

import numpy as np
import pytest

from daekit import (
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


def test_fd_jacobian_on_shared_dae_rows():
    # d/dy of (-y1^2 - e^{y2}, -y1 y2) at (1, 0)
    p = example("ex32")
    jac = fd_jacobian(p.F, 0.4, np.array([1.0, 0.0]))
    np.testing.assert_allclose(jac, [[-2.0, -1.0], [0.0, -1.0]], atol=1e-6)


def test_fd_jacobian_on_shared_kernel_rows():
    # d/dy of ((y1^2+2) y2 + e^{y2}, y1^2) at (0, 1)
    p = example("ex34")
    jac = fd_jacobian(lambda t, y: p.kappa(t, 0.0, y), 1.5, np.array([0.0, 1.0]))
    np.testing.assert_allclose(jac, [[0.0, 2.0 + np.e], [0.0, 0.0]], atol=1e-6)


def test_fd_jacobian_on_a_batch_matches_the_pointwise_loop():
    # y of shape (r, M): one Jacobian per point on the last axis, the same
    # arithmetic as differencing each point on its own
    p = example("ex34")
    rng = np.random.default_rng(7)
    s = rng.uniform(1.0, 2.0, size=9)
    y = rng.uniform(-2.0, 2.0, size=(2, 9))
    batch = fd_jacobian(lambda t, yy: p.kappa(t, s, yy), 1.5, y)
    assert batch.shape == (2, 2, 9)
    for g in range(9):
        want = fd_jacobian(lambda t, yy: p.kappa(t, s[g], yy), 1.5, y[:, g])
        np.testing.assert_array_equal(batch[:, :, g], want)


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
        want = fd_jacobian(lambda tt, yy: p.kappa(t, s, yy), t, y)
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
    assert p.consistency_defect() <= 1e-8


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
