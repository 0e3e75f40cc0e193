"""Fixed-step BDF solver: convergence, algebraic rows, monitor, failure data."""

import numpy as np
import pytest

from daekit import (
    DaeSolveConfig,
    InvalidInputError,
    MatrixFunction,
    SemiNonlinearDAE,
    SolveResult,
    dae_residual,
    example,
    solve_dae,
)

HALF_PI = np.pi / 2.0
HS = [4e-3, 2e-3, 1e-3, 5e-4]


def max_error(p, sol):
    exact = np.array([p.exact(t) for t in sol.times])
    return float(np.max(np.abs(np.asarray(sol.values) - exact)))


def algebraic_test_problem():
    # second row carries no derivative, so it must hold exactly: y2 = sin(t)
    return SemiNonlinearDAE(
        A=MatrixFunction.constant(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                  domain=(0.0, 1.0)),
        F=lambda t, y: np.array([y[0] - y[1], y[1] - np.sin(t)]),
        f=lambda t: np.zeros(2),
        r=2, T=1.0, t_start=0.0, y0=np.array([1.0, 0.0]),
        F_y=lambda t, y: np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_algebraic_rows_hold_at_every_accepted_step():
    sol = solve_dae(algebraic_test_problem(), DaeSolveConfig(h=1e-2))
    assert sol.success
    worst = max(abs(sol.values[i][1] - np.sin(t))
                for i, t in enumerate(sol.times))
    assert worst <= 1e-10


@pytest.mark.parametrize("order, lo, hi", [(1, 0.9, 1.1), (2, 1.8, 2.2)])
def test_convergence_order(order, lo, hi):
    p = example("ex32")
    errs = []
    for h in HS:
        sol = solve_dae(p, DaeSolveConfig(h=h, order=order),
                        interval=(0.5, 1.0))
        assert sol.success
        errs.append(max_error(p, sol))
    slope = np.polyfit(np.log(HS), np.log(errs), 1)[0]
    assert lo <= slope <= hi
    assert errs == sorted(errs, reverse=True)


def test_accuracy_on_smooth_interval():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-3), interval=(0.5, 1.0))
    assert sol.success
    err = max_error(p, sol)
    assert err <= 5e-3
    half = max_error(p, solve_dae(p, DaeSolveConfig(h=5e-4),
                                  interval=(0.5, 1.0)))
    assert err / half >= 1.5


def test_second_order_start_up_does_not_spoil_accuracy():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-3, order=2), interval=(0.5, 1.0))
    assert sol.success
    assert max_error(p, sol) <= 1e-5


# --- residual probe -------------------------------------------------------

def test_residual_of_injected_exact_solution_is_small():
    p = example("ex33")
    grid = np.linspace(0.0, 2.0, 201)
    vals = np.array([p.exact(t) for t in grid])
    inj = SolveResult(times=grid, values=vals, newton_iters=[],
                      monitor_warnings=[], halvings=[], failure=None,
                      config=DaeSolveConfig(h=1e-2), initial_defect=0.0)
    r = np.max(dae_residual(p, inj, np.linspace(0.1, 1.9, 99)))
    assert r <= 1e-6


def test_residual_of_numerical_solution_scales_with_h():
    p = example("ex32")
    probe = np.linspace(0.501, 0.999, 97)
    r_h = np.max(dae_residual(
        p, solve_dae(p, DaeSolveConfig(h=1e-3), interval=(0.5, 1.0)), probe))
    r_half = np.max(dae_residual(
        p, solve_dae(p, DaeSolveConfig(h=5e-4), interval=(0.5, 1.0)), probe))
    assert r_h <= 5e-3
    assert r_h / r_half >= 1.5


def test_residual_probe_must_stay_inside_solved_span():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    with pytest.raises(InvalidInputError):
        dae_residual(p, sol, np.array([0.4, 0.6]))


# --- monitor and failure behavior around the critical point ----------------

@pytest.fixture(scope="module")
def crossing_run():
    return solve_dae(example("ex32"), DaeSolveConfig(h=1e-3),
                     interval=(1.0, 2.0))


def test_monitor_warns_before_the_condition_crosses(crossing_run):
    sol = crossing_run
    assert sol.monitor_warnings
    first = sol.monitor_warnings[0]
    assert first.condition == 0
    assert abs(first.t - HALF_PI) <= 0.05
    assert abs(first.value) <= 1e-2


def test_monitor_warnings_cover_sign_changes(crossing_run):
    sol = crossing_run
    vals = np.asarray(sol.values)
    warn_times = [w.t for w in sol.monitor_warnings]
    changes = 0
    for i in range(len(sol.times) - 1):
        if vals[i][0] * vals[i + 1][0] < 0.0:
            changes += 1
            lo, hi = sol.times[i], sol.times[i + 1]
            assert any(lo - 1e-12 <= t <= hi + 1e-12 for t in warn_times)
    assert changes >= 1


def test_newton_failure_is_reported_not_raised(crossing_run):
    sol = crossing_run
    assert not sol.success
    assert sol.failure["t"] > HALF_PI
    assert sol.failure["t"] <= 1.75
    assert "Newton" in sol.failure["reason"]
    assert sol.times[-1] < 2.0
    assert len(sol.halvings) == 3
    tried = [rec["h_tried"] for rec in sol.halvings]
    assert tried == [5e-4, 2.5e-4, 1.25e-4]
    assert not any(rec["converged"] for rec in sol.halvings)


def test_error_blows_up_where_the_monitor_warned(crossing_run):
    sol = crossing_run
    p = example("ex32")
    early = np.max(dae_residual(p, sol, np.linspace(1.0, 1.5, 40)))
    late = np.max(dae_residual(
        p, sol, np.linspace(1.55, sol.times[-1] - 1e-9, 40)))
    assert late / early >= 100.0
    assert min(w.t for w in sol.monitor_warnings) <= HALF_PI + 0.01


def test_unstable_interval_truncates_with_failure_record():
    # the growing solution amplifies perturbations until Newton stops
    # converging shortly before the right endpoint
    sol = solve_dae(example("ex33"), DaeSolveConfig(h=1e-3))
    assert not sol.success
    assert 1.9 <= sol.failure["t"] <= 2.0
    assert len(sol.times) > 1500


# --- interpolant, intervals, validation ------------------------------------

def test_solution_is_callable_between_nodes():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    t = 0.7345
    np.testing.assert_allclose(sol(t), p.exact(t), atol=1e-3)


def test_interval_start_needs_a_value():
    with pytest.raises(InvalidInputError):
        solve_dae(example("ex31"), DaeSolveConfig(h=1e-2), interval=(0.2, 0.8))


def test_inconsistent_initial_value_is_rejected():
    p = algebraic_test_problem()
    bad = SemiNonlinearDAE(
        A=p.A, F=p.F, f=p.f, r=2, T=1.0, t_start=0.0,
        y0=np.array([1.0, 0.5]), F_y=p.F_y)
    with pytest.raises(InvalidInputError):
        solve_dae(bad, DaeSolveConfig(h=1e-2))


def test_interval_must_fit_the_step():
    with pytest.raises(InvalidInputError):
        solve_dae(example("ex32"), DaeSolveConfig(h=0.3), interval=(0.5, 1.0))


def test_config_validation():
    for bad in [dict(h=0.0), dict(h=1e-2, order=3),
                dict(h=1e-2, newton_tol=0.0), dict(h=1e-2, max_halvings=-1)]:
        with pytest.raises(InvalidInputError):
            DaeSolveConfig(**bad).validate()


@pytest.mark.parametrize("bad", [dict(h=np.nan), dict(h=np.inf),
                                 dict(h=1e-2, newton_tol=np.nan)],
                         ids=["h-nan", "h-inf", "newton-tol-nan"])
def test_config_rejects_non_finite_settings(bad):
    with pytest.raises(InvalidInputError, match="finite"):
        DaeSolveConfig(**bad).validate()


def test_result_serializes():
    sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-2),
                    interval=(0.5, 1.0))
    d = sol.to_dict()
    assert d["failure"] is None
    assert d["success"] is True
    assert d["t_span"] == [0.5, 1.0]
    assert d["n_steps"] == 50
