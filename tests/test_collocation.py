"""Piecewise polynomial collocation for integral-algebraic systems."""

import math
import warnings

import numpy as np
import pytest

from daekit import (
    CollocationConfig,
    InvalidInputError,
    LinearIAE,
    MatrixFunction,
    PiecewiseSolution,
    SemiNonlinearIAE,
    example,
    residual,
    solve_iae,
    verify_exact,
)
from helpers import ex33_as_integral_equation

HALF_PI = np.pi / 2.0


def scalar_second_kind():
    # y(t) + int_0^t y ds = 1 has the closed form y = exp(-t)
    return SemiNonlinearIAE(
        A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
        kappa=lambda t, s, y: np.array([y[0]]),
        f=lambda t: np.array([1.0]),
        r=1, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.eye(1),
        exact=lambda t: np.array([np.exp(-t)]))


def sup_error(p, sol, a, b, n=101):
    grid = np.linspace(a, b, n)
    return max(np.max(np.abs(sol(t) - p.exact(t))) for t in grid)


# --- scalar oracle ----------------------------------------------------------

def test_scalar_second_kind_accuracy():
    p = scalar_second_kind()
    assert verify_exact(p, np.linspace(0.0, 1.0, 51)) <= 1e-12
    sol, diag = solve_iae(p, CollocationConfig(h=0.1))
    assert diag["failure"] is None
    assert sup_error(p, sol, 0.0, 1.0) <= 1e-4


def test_scalar_second_kind_order_at_least_two():
    p = scalar_second_kind()
    errs = []
    for h in (0.1, 0.05, 0.025):
        sol, _ = solve_iae(p, CollocationConfig(h=h))
        errs.append(sup_error(p, sol, 0.0, 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0


def test_residual_vanishes_at_collocation_points():
    p = scalar_second_kind()
    cfg = CollocationConfig(h=0.1)
    sol, _ = solve_iae(p, cfg)
    r = residual(p, sol, np.array(sol.collocation_times()))
    assert np.max(np.abs(r)) <= cfg.newton_tol * 10.0


# --- linear IAEs through the kernel adapter --------------------------------

@pytest.mark.parametrize("k, exact", [
    # y + int_0^t y ds = 1 gives exp(-t); y + int_0^t (t - s) y ds = 1 gives cos t
    (lambda t, s: np.array([[1.0]]), lambda t: np.exp(-t)),
    (lambda t, s: np.array([[t - s]]), np.cos),
], ids=["exp", "cos"])
def test_linear_iae_closed_forms(k, exact):
    p = LinearIAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)), k=k,
                  f=lambda t: np.array([1.0]), r=1, T=1.0)
    sol, diag = solve_iae(p, CollocationConfig(h=0.02))
    assert diag["failure"] is None
    grid = np.linspace(0.0, 1.0, 101)
    assert max(abs(sol(t)[0] - exact(t)) for t in grid) <= 1e-8
    assert np.max(residual(p, sol, grid)) <= 1e-8


# --- the vectorised κ contract ----------------------------------------------

@pytest.mark.parametrize("kappa", [
    lambda t, s, y: np.array([math.exp(y[0])]),
    lambda t, s, y: np.array([float(y[0])]),
    lambda t, s, y: np.array([1.0]),
], ids=["math.exp", "float", "wrong-shape"])
def test_non_vectorised_kappa_is_rejected_with_the_contract(kappa):
    p = scalar_second_kind()
    p.kappa = kappa
    with pytest.raises(InvalidInputError, match="vectorised"):
        solve_iae(p, CollocationConfig(h=0.1))


def test_finite_difference_jacobian_matches_the_analytic_one():
    p = example("ex34")
    sol, diag = solve_iae(p, CollocationConfig())
    p.kappa_y = None
    fd_sol, fd_diag = solve_iae(p, CollocationConfig())
    assert fd_diag["failure"] is None
    assert fd_diag["newton_iters"] == diag["newton_iters"]
    assert np.max(np.abs(fd_sol.nodal_values - sol.nodal_values)) <= 1e-9


@pytest.mark.parametrize("c, h", [((0.3, 0.8), 0.1), ((0.5,), 0.05)])
def test_breakdown_without_kappa_y_is_a_failure_record(c, h):
    # the iterate diverges until κ overflows; the finite-difference Jacobian
    # is never formed at a non-finite residual, so the breakdown is data
    p = example("ex34")
    p.kappa_y = None
    sol, diag = solve_iae(p, CollocationConfig(c=c, h=h))
    assert diag["failure"] is not None
    assert sol.n_intervals == diag["failure"]["step"]
    assert diag["condition_numbers"][-1] == np.inf


@pytest.mark.parametrize("with_kappa_y", [True, False])
def test_an_overflowing_iterate_is_not_accepted(with_kappa_y):
    # at c = (0.3, 0.8) the iterate on [1.6, 1.7] blows up to |u| ~ 1e172;
    # once ‖u‖ overflows, ‖δ‖ ≤ tol·(1 + ‖u‖) holds for any δ, so that
    # interval must be the failure, not an accepted step
    p = example("ex34")
    if not with_kappa_y:
        p.kappa_y = None
    sol, diag = solve_iae(p, CollocationConfig(c=(0.3, 0.8), h=0.1))
    assert diag["failure"]["step"] == sol.n_intervals == 6
    assert diag["failure"]["t"] == pytest.approx(1.6)
    assert np.all(np.isfinite(diag["residual_norms"][:-1]))
    assert np.max(np.abs(sol.nodal_values)) < 1e3


@pytest.mark.parametrize("with_kappa_y", [True, False])
def test_a_diverged_interval_records_an_infinite_residual_without_a_warning(with_kappa_y):
    # the failing interval's residual overflows; its norm is recorded as
    # inf without numpy's "overflow encountered in dot"
    p = example("ex34")
    if not with_kappa_y:
        p.kappa_y = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol, diag = solve_iae(p, CollocationConfig(c=(0.3, 0.8), h=0.1))
    assert diag["failure"]["step"] == sol.n_intervals
    assert diag["residual_norms"][-1] == np.inf


# --- index-2 system with a growing solution ---------------------------------

def test_growing_solution_completes_accurately():
    p = example("ex34")
    sol, diag = solve_iae(p, CollocationConfig())
    assert diag["failure"] is None
    assert sol.t_end == pytest.approx(2.0)
    assert sup_error(p, sol, 1.0, 2.0, 201) <= 1e-6
    assert max(diag["residual_norms"]) <= 1e-10
    assert max(diag["newton_iters"]) <= 10


def test_growing_solution_improves_under_refinement():
    p = example("ex34")
    sol, _ = solve_iae(p, CollocationConfig())
    half, _ = solve_iae(p, CollocationConfig(h=0.0125))
    assert sup_error(p, sol, 1.0, 2.0, 201) / sup_error(p, half, 1.0, 2.0, 201) >= 2.0


# --- critical point: converged residuals, wrong branch ----------------------

@pytest.fixture(scope="module")
def oscillating_run():
    p = example("ex35")
    sol, diag = solve_iae(p, CollocationConfig())
    return p, sol, diag


def test_error_jumps_across_the_critical_point(oscillating_run):
    p, sol, diag = oscillating_run
    assert diag["failure"] is None
    early = sup_error(p, sol, 1.0, 1.5, 101)
    late = sup_error(p, sol, 1.6, 2.0, 81)
    assert early <= 1e-6
    assert late / early >= 10.0


def test_large_error_is_not_a_convergence_failure(oscillating_run):
    # Newton converged everywhere; past the crossing it settled on the
    # reflected branch, so the residual stays tiny while the error is O(1)
    p, sol, diag = oscillating_run
    r = residual(p, sol, np.array(sol.collocation_times()))
    assert np.max(np.abs(r)) <= 1e-8
    branch_gap = max(abs(sol(t)[0] - abs(np.cos(t)))
                     for t in np.linspace(1.6, 2.0, 81))
    assert branch_gap <= 1e-3


# --- residual of an injected exact solution ----------------------------------

def test_residual_of_injected_exact_solution():
    p = ex33_as_integral_equation()
    assert verify_exact(p, np.linspace(0.0, 2.0, 51)) <= 1e-8
    cfg = CollocationConfig()
    tau = tuple(cfg.tau_nodes())
    n_steps = int(round((p.T - p.t_start) / cfg.h))
    nodal = np.empty((n_steps, len(tau), p.r))
    for n in range(n_steps):
        for j, tj in enumerate(tau):
            nodal[n, j] = p.exact(p.t_start + (n + tj) * cfg.h)
    inj = PiecewiseSolution(t_start=p.t_start, h=cfg.h, c=tuple(cfg.c),
                            tau_nodes=tau, nodal_values=nodal)
    r = residual(p, inj, np.linspace(0.0, 2.0, 161))
    assert np.max(np.abs(r)) <= 1e-7


# --- solution object, determinism, validation --------------------------------

def test_solver_is_deterministic():
    p = example("ex34")
    a, _ = solve_iae(p, CollocationConfig())
    b, _ = solve_iae(p, CollocationConfig())
    assert np.array_equal(a.nodal_values, b.nodal_values)


def test_solution_is_continuous_at_mesh_points():
    sol, _ = solve_iae(example("ex34"), CollocationConfig())
    for m in sol.mesh[1:-1]:
        jump = np.max(np.abs(sol(m - 1e-13) - sol(m + 1e-13)))
        assert jump <= 1e-10


def test_solution_rejects_points_outside_span():
    sol, _ = solve_iae(example("ex34"), CollocationConfig())
    with pytest.raises(InvalidInputError):
        sol(0.9)
    with pytest.raises(InvalidInputError):
        residual(example("ex34"), sol, np.array([0.9, 1.5]))


def test_interval_must_start_at_the_problem_origin():
    with pytest.raises(InvalidInputError):
        solve_iae(example("ex34"), CollocationConfig(), interval=(1.3, 2.0))


@pytest.mark.parametrize("b", [np.nan, 1.0, 0.5, 2.5])
def test_interval_end_must_lie_after_the_start_inside_the_problem(b):
    with pytest.raises(InvalidInputError, match="bad interval"):
        solve_iae(example("ex34"), CollocationConfig(), interval=(1.0, b))


def test_interval_must_be_a_whole_number_of_steps():
    with pytest.raises(InvalidInputError):
        solve_iae(example("ex34"), CollocationConfig(h=0.3))


def test_config_validation():
    for bad in [dict(h=0.0), dict(c=(0.0, 0.9, 0.7)), dict(newton_tol=0.0),
                dict(c=())]:
        with pytest.raises(InvalidInputError):
            CollocationConfig(**bad).validate()


@pytest.mark.parametrize("bad", [dict(h=np.nan), dict(h=np.inf), dict(c=(0.0, np.nan)),
                                 dict(newton_tol=np.nan)],
                         ids=["h-nan", "h-inf", "c-nan", "newton-tol-nan"])
def test_config_rejects_non_finite_settings(bad):
    with pytest.raises(InvalidInputError):
        CollocationConfig(**bad).validate()
