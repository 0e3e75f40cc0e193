"""Fixed-step BDF solver: convergence, algebraic rows, monitor, failure data."""

import dataclasses
import sys

import numpy as np
import pytest

from daekit import (
    DaeSolveConfig,
    ExtrapolationError,
    InvalidInputError,
    MatrixFunction,
    SemiNonlinearDAE,
    SolveResult,
    dae_residual,
    example,
    monitor,
    solve_dae,
)
from daekit import linalg
from daekit.bdf import MAX_HALVINGS, NEWTON_TOL
from daekit.structure import WARN_THRESHOLD
from daekit.linalg import NEWTON_MAX_ITER
from daekit.problems import mesh_steps
from helpers import reference_newton

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
    inj = SolveResult(times=grid, values=vals, newton_iters=[], halvings=[], failure=None,
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


def test_solution_refuses_to_extrapolate_its_spline():
    sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    np.testing.assert_array_equal(sol(sol.times), sol.values)
    # within the slack of check_span, clamped to the end as TrajectorySample does
    np.testing.assert_array_equal(sol(1.0 + 1e-10), sol(1.0))
    np.testing.assert_array_equal(sol(1.0 + 1e-9), sol.values[-1])
    for t in (5.0, 0.4, np.array([0.6, 1.01])):
        with pytest.raises(ExtrapolationError, match="outside"):
            sol(t)


@pytest.mark.parametrize("n", [2, 3, 4, 50, 2001])
def test_solution_spline_agrees_with_scipy_natural_cubic_spline(n):
    cubic_spline = pytest.importorskip("scipy.interpolate").CubicSpline
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(0.2, 1.8, n)) / n     # non-uniform steps
    values = np.column_stack([np.sin(7.0 * times), np.exp(times) - 2.0 * times ** 2])
    sol = SolveResult(times=times, values=values, newton_iters=[], halvings=[], failure=None,
                      config=DaeSolveConfig(h=1.0 / n))
    t = np.linspace(times[0], times[-1], 4 * n + 1)
    want = cubic_spline(times, values, axis=0, bc_type="natural")
    bound = 1e-12 * np.max(np.abs(values))
    np.testing.assert_allclose(sol(t), want(t), rtol=0.0, atol=bound)
    # each row of an array call is its float call, bit for bit
    assert sol(t[::7]).tobytes() == np.stack([sol(float(x)) for x in t[::7]]).tobytes()
    _, slopes = sol._spline_at(t)
    np.testing.assert_allclose(slopes, want(t, 1), rtol=0.0, atol=bound)


def test_residual_reads_a_and_f_on_the_probe_grid_with_the_per_probe_bits():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    probes = np.linspace(0.5, 1.0, 11)
    values, slopes = sol._spline_at(probes)
    want = [linalg.norm2(p.A(t) @ slopes[i] + p.F(t, values[i]) - p.f(t))
            for i, t in enumerate(probes.tolist())]
    assert dae_residual(p, sol, probes).tobytes() == np.array(want).tobytes()


def test_residual_refuses_a_non_finite_f_as_collocations_residual_does():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    f = p.f
    p.f = lambda t: f(t) if t <= 0.9 else np.array([np.nan, 0.0])
    with pytest.raises(InvalidInputError, match=r"^non-finite f at t=0\.95$"):
        dae_residual(p, sol, np.linspace(0.5, 1.0, 11))


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


def _warnings(sol):
    return monitor(sol, example("ex32").critical_conditions)


def test_monitor_warns_before_the_condition_crosses(crossing_run):
    sol = crossing_run
    assert _warnings(sol)
    first = _warnings(sol)[0]
    assert first.condition == 0
    assert abs(first.t - HALF_PI) <= 0.05
    assert abs(first.value) <= 1e-2


def test_monitor_warnings_cover_sign_changes(crossing_run):
    sol = crossing_run
    vals = np.asarray(sol.values)
    warn_times = [w.t for w in _warnings(sol)]
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


def test_a_failed_step_counts_the_iterations_of_its_failed_halvings(crossing_run):
    # the step's own Newton solve stops at the iteration cap, then each of
    # the three halvings fails in turn
    sol = crossing_run
    assert [rec["newton_iters"] for rec in sol.halvings] == [25, 35, 51]
    assert sol.newton_iters[-1] == NEWTON_MAX_ITER + 25 + 35 + 51


def test_error_blows_up_where_the_monitor_warned(crossing_run):
    sol = crossing_run
    p = example("ex32")
    early = np.max(dae_residual(p, sol, np.linspace(1.0, 1.5, 40)))
    late = np.max(dae_residual(
        p, sol, np.linspace(1.55, sol.times[-1] - 1e-9, 40)))
    assert late / early >= 100.0
    assert min(w.t for w in _warnings(sol)) <= HALF_PI + 0.01


def test_the_monitor_warns_at_the_start_point():
    # ex32's condition y1 = 0 holds at π/2, 8e-5 after the start
    sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-4), interval=(1.5707, 1.6))
    first = _warnings(sol)[0]
    assert (first.t, first.condition) == (1.5707, 0)
    assert abs(first.value) < WARN_THRESHOLD


def test_a_solve_that_stops_at_its_first_step_is_a_one_point_trajectory():
    # y' = exp(60y) from y(0) = 0 blows up at t = 1/60: no step is accepted
    p = SemiNonlinearDAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
                         F=lambda t, y: -np.exp(60.0 * y), f=lambda t: np.zeros(1),
                         r=1, T=1.0, y0=np.zeros(1))
    sol = solve_dae(p, DaeSolveConfig(h=0.5))
    assert sol.failure["step"] == 0 and sol.times.tolist() == [0.0]
    assert sol(0.0).tolist() == [0.0]
    assert sol(np.zeros(3)).tolist() == [[0.0]] * 3
    # the residual needs the slope that one point does not give
    with pytest.raises(InvalidInputError, match="two accepted points"):
        dae_residual(p, sol, [0.0])


def test_a_differenced_jacobian_fails_where_a_declared_one_does():
    # F = y − 1 up to y = 1 + 5e-7 and inf beyond: differencing at y = 1
    # meets the inf copy, as a declared F_y of inf does; both are the same
    # Newton failure, whichever way the Jacobian was obtained
    def make(F_y):
        return SemiNonlinearDAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
                                F=lambda t, y: np.where(y <= 1.0 + 5e-7, y - 1.0, np.inf),
                                f=lambda t: np.zeros(1), r=1, T=1.0, y0=np.ones(1), F_y=F_y)

    declared = solve_dae(make(lambda t, y: np.full((1, 1), np.inf)), DaeSolveConfig(h=0.1))
    differenced = solve_dae(make(None), DaeSolveConfig(h=0.1))
    assert differenced.failure == declared.failure == {
        "t": 0.1, "step": 0,
        "reason": f"Newton iteration did not converge (after {MAX_HALVINGS} local halvings)"}
    assert differenced.newton_iters == declared.newton_iters
    assert differenced.halvings == declared.halvings


def test_unstable_interval_truncates_with_failure_record():
    # the growing solution amplifies perturbations until Newton stops
    # converging shortly before the right endpoint
    sol = solve_dae(example("ex33"), DaeSolveConfig(h=1e-3))
    assert not sol.success
    assert 1.9 <= sol.failure["t"] <= 2.0
    assert len(sol.times) > 1500


# --- the step loop against its per-step reference ------------------------------

def _reference_solve(p, h, order, interval):
    """solve_dae's trajectory computed plainly: A(t) evaluated at every step
    and substep, c·A and A·d formed again in every Newton iteration."""
    def step(t_new, c, d, guess):
        a = p.A(t_new)
        fv = np.atleast_1d(np.asarray(p.f(t_new), dtype=float))
        y, it, _, _ = reference_newton(
            lambda y: c * (a @ y) - a @ d
            + np.atleast_1d(np.asarray(p.F(t_new, y), dtype=float)) - fv,
            lambda y: c * a + p.jacobian(t_new, y), guess, NEWTON_TOL, NEWTON_MAX_ITER)
        return y, it

    lo, hi = interval
    y_n = np.array(p.y0 if lo == p.t_start else p.exact(lo), dtype=float)
    y_nm1, times, values, iters, halvings, failure = None, [lo], [y_n], [], [], None
    for k in range(mesh_steps(lo, hi, h)):
        t_n, t_new = lo + k * h, lo + (k + 1) * h
        if order == 2 and y_nm1 is not None:
            c, d, guess = 1.5 / h, (4.0 * y_n - y_nm1) / (2.0 * h), 2.0 * y_n - y_nm1
        else:
            c, d, guess = 1.0 / h, y_n / h, y_n if y_nm1 is None else 2.0 * y_n - y_nm1
        y_new, its = step(t_new, c, d, guess)
        if y_new is None:
            # every halving's iterations count, failed ones included
            for m in [2 ** i for i in range(1, MAX_HALVINGS + 1)]:
                sub_h, y, t, total, ok = h / m, y_n, t_n, 0, True
                for i in range(m):
                    y_next, more = step(t + sub_h, 1.0 / sub_h, y / sub_h, y)
                    total += more
                    if y_next is None:
                        ok = False
                        break
                    y, t = y_next, t_n + (i + 1) * sub_h
                halvings.append({"step": k, "t": t_n, "h_tried": sub_h, "substeps": m,
                                 "newton_iters": total, "converged": ok})
                its += total
                if ok:
                    y_new = y
                    break
        iters.append(its)
        if y_new is None:
            failure = {"t": t_new, "step": k, "reason": "Newton iteration did not converge "
                                                        f"(after {MAX_HALVINGS} local halvings)"}
            break
        times.append(t_new)
        values.append(y_new)
        y_nm1, y_n = y_n, y_new
    return np.array(times), np.array(values), iters, halvings, failure


def _ex33_with_exponential_a():
    # ex33's F and f behind A(t) = diag(e^t, 0), evaluated one float at a time
    return dataclasses.replace(example("ex33"), A=MatrixFunction(
        eval=lambda t: np.diag([np.exp(t), 0.0]), domain=(0.0, 2.0), name="A"))


def _ex32_with_a_undefined_past_its_breakdown():
    # ex32's A one float at a time, NaN after t = 1.8: A is asked for only up
    # to the breakdown at t = 1.675, so the run ends in a failure record
    a_sing = example("ex32").A(0.0)
    return dataclasses.replace(example("ex32"), A=MatrixFunction(
        eval=lambda t: a_sing if t <= 1.8 else np.full((2, 2), np.nan),
        domain=(0.0, 2.0), name="A"))


@pytest.mark.parametrize("make, interval, order", [
    (lambda: example("ex33"), (0.0, 1.0), 1),
    (lambda: example("ex33"), (0.0, 1.0), 2),
    # three halvings, all failing, then the failure record at t = 1.675
    (lambda: example("ex32"), (1.0, 2.0), 1),
    (_ex33_with_exponential_a, (0.0, 1.0), 2),
    (_ex32_with_a_undefined_past_its_breakdown, (1.0, 2.0), 1),
], ids=["ex33-bdf1", "ex33-bdf2", "ex32-breakdown", "time-varying-A", "A-undefined-past-breakdown"])
def test_solve_dae_matches_the_per_step_reference_bit_for_bit(make, interval, order):
    sol = solve_dae(make(), DaeSolveConfig(h=1e-3, order=order), interval=interval)
    times, values, iters, halvings, failure = _reference_solve(make(), 1e-3, order, interval)
    assert sol.times.tobytes() == times.tobytes()
    assert sol.values.tobytes() == values.tobytes()
    assert (sol.newton_iters, sol.halvings, sol.failure) == (iters, halvings, failure)


# --- interpolant, intervals, validation ------------------------------------

def test_solution_is_callable_between_nodes():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-2), interval=(0.5, 1.0))
    t = 0.7345
    np.testing.assert_allclose(sol(t), p.exact(t), atol=1e-3)


def test_interval_start_needs_a_value():
    with pytest.raises(InvalidInputError):
        solve_dae(example("ex31"), DaeSolveConfig(h=1e-2), interval=(0.2, 0.8))


def test_y0_holds_at_a_start_within_the_span_slack_of_t_start():
    # one ulp above t_start = 1e5 (1.5e-11) lies inside check_span's slack;
    # y' + y = 0 has no exact solution registered to start from instead
    p = SemiNonlinearDAE(A=MatrixFunction.constant(np.eye(1), domain=(1e5, 1e5 + 1.0)),
                         F=lambda t, y: y, f=lambda t: np.zeros(1), r=1, T=1e5 + 1.0,
                         t_start=1e5, y0=np.ones(1), F_y=lambda t, y: np.eye(1))
    sol = solve_dae(p, DaeSolveConfig(h=0.25), interval=(np.nextafter(1e5, np.inf), 1e5 + 1.0))
    assert sol.success
    np.testing.assert_array_equal(sol.values[0], [1.0])


def test_inconsistent_initial_value_is_rejected():
    p = algebraic_test_problem()
    bad = SemiNonlinearDAE(
        A=p.A, F=p.F, f=p.f, r=2, T=1.0, t_start=0.0,
        y0=np.array([1.0, 0.5]), F_y=p.F_y)
    with pytest.raises(InvalidInputError):
        solve_dae(bad, DaeSolveConfig(h=1e-2))


@pytest.mark.parametrize("source", ["y0", "exact"])
def test_a_non_finite_initial_value_is_rejected(source):
    # a NaN start value has a NaN consistency defect, which no threshold
    # test refuses: the solve must refuse the value itself
    p = example("ex32")
    if source == "y0":
        p.y0 = np.array([np.nan, 0.0])
        interval = None
    else:
        p.exact = lambda t: np.array([0.0, np.inf])
        interval = (0.5, 1.0)
    with pytest.raises(InvalidInputError, match="non-finite initial value"):
        solve_dae(p, DaeSolveConfig(h=0.25), interval=interval)


def test_a_non_finite_f_is_refused_not_reported_as_a_breakdown():
    # f = inf from t = 0.5 on: the step to 0.5 fails, and the solve names
    # the right side instead of recording a Newton failure
    p = example("ex33")
    f = p.f
    p.f = lambda t: f(t) if t < 0.5 else np.array([np.inf, 0.0])
    with pytest.raises(InvalidInputError, match=r"non-finite f at t=0\.5$"):
        solve_dae(p, DaeSolveConfig(h=0.1))
    p.f = lambda t: np.array([np.inf, 0.0])
    with pytest.raises(InvalidInputError, match=r"non-finite f at t=0\.0$"):
        solve_dae(p, DaeSolveConfig(h=0.1))


def test_a_non_finite_f_inside_a_failed_step_is_refused_at_its_substep():
    # ex32's Newton solve fails at t = 1.675, 1e-3 after the last accepted
    # step; f = inf only around 1.6745 is met by the first halving's substep
    p = example("ex32")
    f = p.f
    p.f = lambda t: np.array([np.inf, 0.0]) if 1.6742 < t < 1.6748 else f(t)
    with pytest.raises(InvalidInputError, match=r"non-finite f at t=1\.6744999"):
        solve_dae(p, DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))


def test_f_reaches_solve_dae_as_one_mesh_call_besides_the_start_and_the_substeps():
    # the crossing run: 1000 mesh times, a failure at step 674 after three
    # halvings; a vectorized f records every array of times it is given
    p = example("ex32")
    f, seen = p.f, []

    def recording(t):
        seen.append(t.copy())
        return np.array([f(x) for x in t.tolist()])

    p.f = MatrixFunction(eval=recording, domain=p.interval, name="f", vectorized=True)
    sol = solve_dae(p, DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    plain = solve_dae(example("ex32"), DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    assert sol.values.tobytes() == plain.values.tobytes()
    assert (sol.newton_iters, sol.halvings, sol.failure) \
        == (plain.newton_iters, plain.halvings, plain.failure)
    # f(a), the start's consistency defect, then the whole mesh at once
    assert [t.shape for t in seen[:3]] == [(1,), (1,), (1000,)]
    assert seen[0][0] == seen[1][0] == 1.0
    assert seen[2].tobytes() == np.array([1.0 + k * 1e-3 for k in range(1, 1001)]).tobytes()
    # then one time per substep, all inside the failed step (1.674, 1.675]
    subs = np.concatenate(seen[3:])
    assert [t.shape for t in seen[3:]] == [(1,)] * subs.size
    assert subs.size >= len(sol.halvings) == MAX_HALVINGS
    assert np.all((subs > 1.674) & (subs <= 1.675 + 1e-12))


def test_a_non_finite_f_anywhere_on_the_mesh_is_refused_before_the_first_step():
    # f = NaN only past t = 1.9, beyond the breakdown at 1.675 that the
    # march would otherwise report: the mesh read names the first such time
    p = example("ex32")
    f, F, calls = p.f, p.F, []
    p.f = lambda t: f(t) if t <= 1.9 else np.array([np.nan, 0.0])
    p.F = lambda t, y: calls.append(t) or F(t, y)
    with pytest.raises(InvalidInputError, match=r"^non-finite f at t=1\.901$"):
        solve_dae(p, DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    assert calls == [1.0]  # the start's consistency defect only: no step was taken


def test_a_non_finite_F_at_the_start_is_refused():
    # the README's relaxation problem with 1e400 in F's second row: its
    # consistency defect would be NaN, which no defect test refuses
    p = SemiNonlinearDAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                         F=lambda t, y: np.array([y[0] - y[1], y[1] - np.sin(t) + 1e400]),
                         f=lambda t: np.zeros(2), r=2, T=1.0, y0=np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError, match=r"non-finite F at t=0\.0$"):
        solve_dae(p, DaeSolveConfig(h=0.25))


def test_newtons_finiteness_checks_make_no_call_of_numpys_all_wrapper():
    # np.isfinite(v).all() goes through numpy's Python-level _methods._all;
    # the crossing run (675 steps, three failed halvings) makes none from newton
    methods = pytest.importorskip("numpy._core._methods")
    newton_code = linalg.newton.__code__

    def in_newton(frame):
        while frame is not None and frame.f_code is not newton_code:
            frame = frame.f_back
        return frame is not None

    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is methods._all.__code__ and in_newton(frame):
            seen.append(frame.f_lineno)

    sys.setprofile(profile)
    try:
        sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    finally:
        sys.setprofile(None)
    assert seen == []
    assert (len(sol.newton_iters), sum(sol.newton_iters), sol.newton_iters[-5:]) \
        == (675, 1547, [4, 4, 4, 6, 136])
    assert sol.failure == {"t": 1.675, "step": 674, "reason": "Newton iteration did not "
                           f"converge (after {MAX_HALVINGS} local halvings)"}


def test_interval_must_fit_the_step():
    with pytest.raises(InvalidInputError):
        solve_dae(example("ex32"), DaeSolveConfig(h=0.3), interval=(0.5, 1.0))


def test_config_validation():
    for bad in [dict(h=0.0), dict(h=1e-2, order=3)]:
        with pytest.raises(InvalidInputError):
            DaeSolveConfig(**bad).validate()


@pytest.mark.parametrize("bad", [dict(h=np.nan), dict(h=np.inf)], ids=["h-nan", "h-inf"])
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
