"""Piecewise polynomial collocation for integral-algebraic systems."""

import math
import warnings

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
    PiecewiseSolution,
    SemiNonlinearIAE,
    dae_to_iae,
    example,
    residual,
    solve_dae,
    solve_iae,
    verify_exact,
)
from daekit import collocation
from daekit.collocation import QUAD_ORDER
from daekit.linalg import NEWTON_MAX_ITER, newton, norm2
from daekit.problems import start_value
from helpers import ex33_as_integral_equation

HALF_PI = np.pi / 2.0


def scalar_second_kind():
    # y(t) + int_0^t y ds = 1 has the closed form y = exp(-t)
    return SemiNonlinearIAE(
        A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
        kappa=lambda t, s, y: np.array([y[0]]),
        f=lambda t: np.array([1.0]),
        r=1, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.multiply.outer(np.eye(1), np.ones_like(y[0])),
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


def test_a_per_point_kappa_y_is_refused_by_the_solve():
    # ex34's κ_y on floats: the solve's first Jacobian call is a batch
    q = example("ex34")

    def per_point(t, s, y):
        y1, y2 = float(y[0]), float(y[1])
        return np.array([[2.0 * y1 * y2, (y1 ** 2 + 2.0) + math.exp(y2)], [2.0 * y1, 0.0]])

    q.kappa_y = per_point
    with pytest.raises(InvalidInputError, match=r"κ_y and F_y .*must take the batch: κ_y\(t, s, y\)"):
        solve_iae(q, CollocationConfig(h=0.05), interval=(1.0, 1.5))


# --- the stacked Newton system of one interval --------------------------------

def history_of(p, cfg, steps):
    """An empty history of ``steps`` intervals, of the kind the solver keeps for p."""
    kappa = collocation._kernel_of(p)[0]
    sch = collocation._build_scheme(cfg.c, cfg.h)
    if p.kernel_free_of_t:
        return collocation._RunningSum(kappa, sch, p.t_start, p.r)
    return collocation._GaussHistory.empty(kappa, sch, p.t_start, steps, p.r)


def interval_system(p, cfg, history, n, left_value):
    """Interval n's system, built from its left value and the intervals
    before it as the solver builds it, with A and f evaluated at its
    equation times alone, and its kernel's ``linear`` flag."""
    kappa, kappa_jac, linear = collocation._kernel_of(p)
    sch = collocation._build_scheme(cfg.c, cfg.h)
    t_n = p.t_start + n * cfg.h
    t_eq = t_n + sch.eq_taus * sch.h
    return collocation._Interval(kappa, kappa_jac, sch, t_n, p.A(t_eq),
                                 collocation._rhs_of(p)(t_eq),
                                 history.integral(t_eq, [n] * t_eq.size), left_value), linear


def first_interval_system(p, cfg):
    """(x, residual, Jacobian) of the solver's first interval at a point x
    near its initial guess, the start value at every free node."""
    sch = collocation._build_scheme(cfg.c, cfg.h)
    left = start_value(p, p.t_start)
    system, _ = interval_system(p, cfg, history_of(p, cfg, 1), 0, left)
    x = np.tile(left, sch.eq_taus.size)
    x = x + 0.01 * np.sin(np.arange(1.0, x.size + 1.0))
    # the Jacobian reuses the iterate of the residual called before it
    return x, system.residual(x), system.jacobian(x)


def per_equation_system(p, cfg, x):
    """The first interval's residual and Newton matrix, one equation at a
    time, with per-point κ_y calls: the solver's own Gauss rule written out."""
    nodes = collocation._tau_nodes(cfg.c)
    c = np.asarray(cfg.c)
    eq_taus = np.append(c[1:], 1.0) if c[0] == 0.0 else c
    xg, wg = np.polynomial.legendre.leggauss(QUAD_ORDER)
    n_eq, r, a, h = eq_taus.size, p.r, p.t_start, cfg.h

    def lagrange(tau):
        return np.array([np.prod([(tau - nodes[l]) / (nodes[j] - nodes[l])
                                  for l in range(nodes.size) if l != j])
                         for j in range(nodes.size)])

    u_all = np.vstack([p.exact(a), x.reshape(n_eq, r)])
    res, rows = [], []
    for i, tau_eq in enumerate(eq_taus):
        t = a + tau_eq * h
        taus = tau_eq * 0.5 * (xg + 1.0)
        w = h * tau_eq * 0.5 * wg
        basis = np.array([lagrange(tau) for tau in taus])  # (q, n_nodes)
        s, u = a + taus * h, (basis @ u_all).T
        res.append(p.A(t) @ u_all[i + 1] + p.kappa(t, s, u) @ w - p.f(t))
        blocks = [sum(w[g] * basis[g, j] * p.kappa_y(t, s[g], u[:, g])
                      for g in range(taus.size)) for j in range(nodes.size)]
        blocks[i + 1] = blocks[i + 1] + p.A(t)
        rows.append(np.hstack(blocks[1:]))
    return np.concatenate(res), np.vstack(rows)


def scalar_nonlinear_second_kind():
    # κ depends on t, s and y, so a wrong time on any Gauss point shows
    return SemiNonlinearIAE(
        A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
        kappa=lambda t, s, y: (1.0 + t - s) * np.sin(y),
        f=lambda t: np.array([1.0]),
        r=1, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.array([[(1.0 + t - s) * np.cos(y[0])]]),
        exact=lambda t: np.array([1.0]))


@pytest.mark.parametrize("make, c", [
    (lambda: example("ex34"), (0.0, 0.7, 0.9)),
    (lambda: example("ex34"), (0.3, 0.8)),
    (scalar_nonlinear_second_kind, (0.0, 0.7, 0.9)),
], ids=["ex34-closing-equation", "ex34-c1-positive", "r1"])
def test_the_stacked_newton_system_is_the_per_equation_one(make, c):
    p = make()
    cfg = CollocationConfig(c=c, h=0.05)
    x, res, jac = first_interval_system(p, cfg)
    want_res, want_jac = per_equation_system(p, cfg, x)
    assert jac.shape == want_jac.shape == (x.size, x.size)
    np.testing.assert_allclose(res, want_res, rtol=0.0, atol=1e-14 * np.abs(want_res).max())
    np.testing.assert_allclose(jac, want_jac, rtol=0.0, atol=1e-14 * np.abs(want_jac).max())


def test_the_residual_of_a_time_dependent_kappa_is_the_per_equation_one():
    # one κ call on every equation's Gauss points, each with its own t, and
    # one product per equation: the same bits as one call per equation
    p = scalar_nonlinear_second_kind()
    builtin, ts = p.kappa, []
    cfg = CollocationConfig(h=0.05)
    p.kappa = lambda t, s, y: ts.append(t) or builtin(t, s, y)
    x, res, _ = first_interval_system(p, cfg)
    p.kappa = builtin
    want_res, _ = per_equation_system(p, cfg, x)
    np.testing.assert_array_equal(res, want_res)
    # the first call is that residual's: each equation's time over its points
    t_eq = cfg.h * np.array([0.7, 0.9, 1.0])
    np.testing.assert_array_equal(ts[0], np.repeat(t_eq, QUAD_ORDER))


def solve_and_rebuild(p, cfg):
    """Solve p, then rebuild each interval from outside the solve: interval n
    from its stored left value, with the stored intervals before it as
    history and A and f at its own equation times, solved by Newton as the
    solver does (a failed interval's left value is the right end of the
    last kept one).  Asserts that the rebuilt march gives the solve's
    nodal values, iterations, residual norms and condition numbers bit for
    bit, and returns the solve."""
    sol, diag = solve_iae(p, cfg)
    steps = len(diag["newton_iters"])
    assert steps == sol.n_intervals + (diag["failure"] is not None)
    history = history_of(p, cfg, steps)
    right_end = collocation._lagrange_weights(sol.tau_nodes, 1.0)
    iters, norms, conds = [], [], []
    for n in range(steps):
        kept = n < sol.n_intervals
        left = sol.nodal_values[n, 0] if kept else right_end @ sol.nodal_values[n - 1]
        system, linear = interval_system(p, cfg, history, n, left)
        x, it, res, jac = newton(system.residual, system.jacobian,
                                 np.tile(left, sol.tau_nodes.size - 1), cfg.newton_tol,
                                 NEWTON_MAX_ITER, affine=linear)
        iters.append(it)
        with np.errstate(over="ignore"):
            norms.append(norm2(res))
        conds.append(np.inf if x is None else float(np.linalg.cond(jac)))
        if kept:
            assert x.tobytes() == sol.nodal_values[n, 1:].tobytes()
            history.store(n, sol.nodal_values[n])
        else:
            assert x is None
    assert iters == diag["newton_iters"]
    assert np.array(norms).tobytes() == np.array(diag["residual_norms"]).tobytes()
    assert np.array(conds).tobytes() == np.array(diag["condition_numbers"]).tobytes()
    return sol, diag


@pytest.mark.parametrize("c, h", [((0.0, 0.7, 0.9), 0.05), ((0.3, 0.8), 0.1)],
                         ids=["converging", "diverging"])
def test_each_interval_rebuilt_from_outside_the_solve_reproduces_the_march(c, h):
    # the diverging run fails at interval 6; ex34's κ is free of t, and
    # undeclared it takes the whole history at every time
    for free_of_t in (True, False):
        p = example("ex34")
        p.kernel_free_of_t = free_of_t
        solve_and_rebuild(p, CollocationConfig(c=c, h=h))


def time_dependent_problem():
    """y·(1 + t/2) + ∫ (1 + t − s) sin y ds = 1 + t²: A, κ and f all depend
    on t, A and f evaluated per point."""
    return SemiNonlinearIAE(
        A=MatrixFunction(eval=lambda t: np.array([[1.0 + 0.5 * t]]), domain=(0.0, 1.0)),
        kappa=lambda t, s, y: (1.0 + t - s) * np.sin(y),
        f=lambda t: np.array([1.0 + t * t]),
        r=1, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.array([[(1.0 + t - s) * np.cos(y[0])]]))


def test_a_kernel_that_depends_on_t_keeps_the_march_of_one_interval_at_a_time():
    # A and f evaluated once on the whole mesh, and the history of a kernel
    # that depends on t, give the bits of a march that evaluates A, f and
    # the whole history interval by interval
    p = time_dependent_problem()
    assert not p.kernel_free_of_t
    sol, diag = solve_and_rebuild(p, CollocationConfig(h=0.01))
    assert diag["failure"] is None and sol.n_intervals == 100


def test_kappa_y_is_called_once_per_newton_iteration():
    p = example("ex34")
    builtin, calls = p.kappa_y, []
    p.kappa_y = lambda t, s, y: calls.append(np.shape(y)) or builtin(t, s, y)
    sol, diag = solve_iae(p, CollocationConfig(h=0.05), interval=(1.0, 1.5))
    assert diag["failure"] is None and sol.n_intervals == 10
    assert len(calls) == sum(diag["newton_iters"])
    assert calls.count((2,)) == 0


def kappa_batch_sizes(free_of_t, with_kappa_y):
    """The size of t at each κ call of ex34's solve over three intervals,
    sorted, and the solve's total Newton iterations."""
    p = example("ex34")
    p.kernel_free_of_t = free_of_t
    if not with_kappa_y:
        p.kappa_y = None
    builtin, t_shapes = p.kappa, []
    p.kappa = lambda t, s, y: t_shapes.append(np.shape(t)) or builtin(t, s, y)
    sol, diag = solve_iae(p, CollocationConfig(h=0.05), interval=(1.0, 1.15))
    assert diag["failure"] is None and sol.n_intervals == 3
    return sorted(t_shapes), sum(diag["newton_iters"])


@pytest.mark.parametrize("with_kappa_y", [True, False], ids=["kappa_y", "differenced"])
def test_kappa_is_called_once_per_collocation_stage(with_kappa_y):
    # a kernel that depends on t: one call per Newton residual on the Gauss
    # points of the 3 equations, one per history integral from the second
    # interval on (interval n's covers n intervals' Gauss points for each
    # equation) and, without κ_y, one per Jacobian on all 2r = 4 perturbed
    # copies of the residual's points
    sizes, iters = kappa_batch_sizes(False, with_kappa_y)
    want = [(3 * QUAD_ORDER,)] * iters + [(3 * n * QUAD_ORDER,) for n in (1, 2)]
    if not with_kappa_y:
        want += [(4 * 3 * QUAD_ORDER,)] * iters
    assert sizes == sorted(want)


@pytest.mark.parametrize("with_kappa_y", [True, False], ids=["kappa_y", "differenced"])
def test_a_kernel_free_of_t_makes_one_history_call_per_completed_interval(with_kappa_y):
    # the history is a running sum: each completed interval adds its own
    # integral, one call on its q Gauss points; the Newton calls are as above
    sizes, iters = kappa_batch_sizes(True, with_kappa_y)
    want = [(3 * QUAD_ORDER,)] * iters + [(QUAD_ORDER,)] * 3
    if not with_kappa_y:
        want += [(4 * 3 * QUAD_ORDER,)] * iters
    assert sizes == sorted(want)


def test_a_kernel_free_of_t_keeps_no_history_of_points(monkeypatch):
    # the march keeps one (r,) sum, not u at the Gauss points of every interval
    def refuse(*args):
        raise AssertionError("a whole history was built")

    monkeypatch.setattr(collocation._GaussHistory, "empty", refuse)
    sol, diag = solve_iae(example("ex34"), CollocationConfig(h=0.05), interval=(1.0, 1.15))
    assert diag["failure"] is None and sol.n_intervals == 3


def linear_dae():
    # y1' + y2 = sin t, y1 = t: index 2, y = (t, sin t − 1)
    return LinearDAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                     B=MatrixFunction.constant(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                               domain=(0.0, 1.0)),
                     f=lambda t: np.array([np.sin(t), t]), y0=np.array([0.0, -1.0]), r=2, T=1.0,
                     exact=lambda t: np.array([t, np.sin(t) - 1.0]))


def test_the_builtin_kernels_and_dae_to_iae_are_declared_free_of_t():
    assert example("ex34").kernel_free_of_t and example("ex35").kernel_free_of_t
    assert dae_to_iae(linear_dae()).kernel_free_of_t
    assert not scalar_second_kind().kernel_free_of_t  # the default: κ depends on t


@pytest.mark.parametrize("make, cfg", [
    (lambda: example("ex34"), CollocationConfig(h=0.005, newton_tol=1e-10)),
    (lambda: dae_to_iae(linear_dae()), CollocationConfig(h=0.02)),
], ids=["ex34-N200", "dae_to_iae"])
def test_the_running_sum_agrees_with_the_whole_history(make, cfg):
    # the same solve declared free of t and undeclared: only the order of
    # the history sums differs
    p = make()
    assert p.kernel_free_of_t
    sol, diag = solve_iae(p, cfg)
    p.kernel_free_of_t = False
    full, full_diag = solve_iae(p, cfg)
    assert diag["failure"] is None and full_diag["failure"] is None
    assert sol.n_intervals == full.n_intervals
    assert np.max(np.abs(sol.nodal_values - full.nodal_values)) <= 1e-9


def test_the_running_sum_solves_a_fine_mesh_to_its_residual():
    # residual() integrates the whole history: an independent check
    p = example("ex34")
    sol, diag = solve_iae(p, CollocationConfig(h=1.0 / 800, newton_tol=1e-10))
    assert diag["failure"] is None and sol.n_intervals == 800
    assert np.max(residual(p, sol, sol.collocation_times())) <= 1e-8


def test_scalar_second_kind_order_at_least_two():
    p = scalar_second_kind()
    errs = []
    for h in (0.1, 0.05, 0.025):
        sol, _ = solve_iae(p, CollocationConfig(h=h))
        errs.append(sup_error(p, sol, 0.0, 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0


def test_residual_makes_one_kappa_call_per_batch_of_probes():
    # one call for the partial intervals of all probes, and one per batch of
    # histories of at most the solver's largest history call (3 equations ×
    # 10 intervals of Gauss points) plus one probe's; each probe's residual
    # keeps the bits of a residual at that probe alone
    p = example("ex34")
    sol, _ = solve_iae(p, CollocationConfig(h=0.05), interval=(1.0, 1.5))
    probes = sol.collocation_times()
    builtin, sizes = p.kappa, []
    p.kappa = lambda t, s, y: sizes.append(np.size(s)) or builtin(t, s, y)
    got = residual(p, sol, probes)
    assert sizes[-1] == 20 * QUAD_ORDER  # the 20 probes inside an interval
    assert len(sizes) <= 6 and max(sizes[:-1]) <= (3 + 1) * 10 * QUAD_ORDER
    p.kappa = builtin
    want = np.concatenate([residual(p, sol, [t]) for t in probes])
    np.testing.assert_array_equal(got, want)


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
    lambda t, s, y: y[:1] * math.exp(1.0 - t),
    lambda t, s, y: y[:1] * (float(t) / float(t)),
], ids=["math.exp", "float", "wrong-shape", "math.exp-of-t", "float-of-t"])
def test_non_vectorised_kappa_is_rejected_with_the_contract(kappa):
    # t has one entry per point too, so a κ of a scalar t alone is refused
    p = scalar_second_kind()
    p.kappa = kappa
    with pytest.raises(InvalidInputError, match=r"vectorised: κ\(t, s, y\) with t and s of shape"):
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
    assert diag["failure"]["t"] == pytest.approx(1.7)
    assert np.all(np.isfinite(diag["residual_norms"][:-1]))
    assert np.max(np.abs(sol.nodal_values)) < 1e3


@pytest.mark.parametrize("solver, h, step, t", [("bdf1", 1e-3, 674, 1.675),
                                                ("collocation", 0.1, 6, 1.7)])
def test_both_solvers_record_the_end_of_the_step_that_failed(solver, h, step, t):
    # one convention, so that stop times compare across solver families:
    # t = a + (step + 1)·h, one step past the end of the kept trajectory
    if solver == "bdf1":
        sol = solve_dae(example("ex32"), DaeSolveConfig(h=h), interval=(1.0, 2.0))
        failure = sol.failure
    else:
        sol, diag = solve_iae(example("ex34"), CollocationConfig(c=(0.3, 0.8), h=h))
        failure = diag["failure"]
    a = sol.span[0]
    assert a == 1.0
    assert failure["t"] == a + (failure["step"] + 1) * h
    assert sol.span[1] == a + failure["step"] * h
    assert (failure["step"], failure["t"]) == (step, pytest.approx(t))


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


def test_an_overflowing_history_integral_is_a_failure_record():
    # interval 7 converges to |u| ~ 2.6e5, so exp(y2) in κ overflows in the
    # next interval's history integral: its first residual is non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol, diag = solve_iae(example("ex34"),
                              CollocationConfig(c=(0.3, 0.8), h=0.0125, newton_tol=1e-10))
    assert diag["failure"]["step"] == sol.n_intervals == 8
    assert diag["newton_iters"][-1] == 1
    assert diag["residual_norms"][-1] == np.inf


def test_residual_of_an_overflowing_history_is_inf_without_a_warning():
    # the accepted solution reaches |u| ~ 2.6e5 on its last interval, so κ's
    # exp(y2) overflows in the history integral behind the last probe
    p = example("ex34")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol, _ = solve_iae(p, CollocationConfig(c=(0.3, 0.8), h=0.0125, newton_tol=1e-10))
    assert sol.n_intervals == 8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = residual(p, sol, np.linspace(1.0, sol.t_end, 5))
    assert np.all(np.isfinite(res[:-1])) and res[0] <= 1e-12
    assert res[-1] == np.inf


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
    tau = collocation._tau_nodes(cfg.c)
    n_steps = int(round((p.T - p.t_start) / cfg.h))
    nodal = np.empty((n_steps, len(tau), p.r))
    for n in range(n_steps):
        for j, tj in enumerate(tau):
            nodal[n, j] = p.exact(p.t_start + (n + tj) * cfg.h)
    inj = PiecewiseSolution(t_start=p.t_start, h=cfg.h, c=tuple(cfg.c), nodal_values=nodal)
    r = residual(p, inj, np.linspace(0.0, 2.0, 161))
    assert np.max(np.abs(r)) <= 1e-7


# --- a non-finite right side is invalid input, not a breakdown ---------------

def nan_at_one_half(p):
    """p with f NaN at t = 1.5 alone, a right end of the h = 0.125 mesh on [1, 2]."""
    f = p.f
    p.f = lambda t: np.full(p.r, np.nan) if t == 1.5 else f(t)
    return p


def test_a_non_finite_f_is_refused_by_the_solver():
    with pytest.raises(InvalidInputError, match="non-finite f"):
        solve_iae(nan_at_one_half(example("ex34")), CollocationConfig(h=0.125))


def test_a_non_finite_f_past_a_newton_failure_is_refused_before_the_march():
    # at c = (0.3, 0.8) the march fails at t = 1.7; f is evaluated on every
    # equation time of the mesh first, so a NaN from t = 1.9 on is refused
    # at the first equation time past it, 1.9 + 0.3·0.1
    p = example("ex34")
    f = p.f
    p.f = lambda t: np.full(2, np.nan) if t > 1.9 else f(t)
    with pytest.raises(InvalidInputError, match=r"non-finite f at t=1\.93"):
        solve_iae(p, CollocationConfig(c=(0.3, 0.8), h=0.1))
    p.f = f
    assert solve_iae(p, CollocationConfig(c=(0.3, 0.8), h=0.1))[1]["failure"]["t"] == \
        pytest.approx(1.7)


def test_a_non_finite_f_is_refused_by_the_residual():
    sol, _ = solve_iae(example("ex34"), CollocationConfig(h=0.125))
    p = nan_at_one_half(example("ex34"))
    assert np.all(np.isfinite(residual(p, sol, [1.25, 1.75])))
    with pytest.raises(InvalidInputError, match="non-finite f"):
        residual(p, sol, [1.25, 1.5, 1.75])


# --- solution object, determinism, validation --------------------------------

def test_solver_is_deterministic():
    p = example("ex34")
    a, _ = solve_iae(p, CollocationConfig())
    b, _ = solve_iae(p, CollocationConfig())
    assert np.array_equal(a.nodal_values, b.nodal_values)


def test_solution_is_continuous_at_mesh_points():
    sol, _ = solve_iae(example("ex34"), CollocationConfig())
    for m in sol.times[1:-1]:
        jump = np.max(np.abs(sol(m - 1e-13) - sol(m + 1e-13)))
        assert jump <= 1e-10


@pytest.mark.parametrize("nodes", [(0.0, 0.7, 0.9, 1.0), (0.0, 0.3, 0.8), (0.0, 0.5)])
def test_lagrange_weights_on_an_array_are_the_scalar_products_bit_for_bit(nodes):
    nodes = np.array(nodes)
    taus = np.concatenate([np.linspace(0.0, 1.0, 41), nodes, [1.0 / 3.0, 0.9999999]])

    def scalar(tau):
        out = np.ones(nodes.size)
        for j in range(nodes.size):
            for l in range(nodes.size):
                if l != j:
                    out[j] *= (tau - nodes[l]) / (nodes[j] - nodes[l])
        return out

    want = np.array([scalar(float(tau)) for tau in taus])
    assert collocation._lagrange_weights(nodes, taus).tobytes() == want.tobytes()
    assert collocation._lagrange_weights(nodes, taus.reshape(-1, 1)).shape == (taus.size, 1, nodes.size)
    for tau, row in zip(taus, want):
        assert collocation._lagrange_weights(nodes, float(tau)).tobytes() == row.tobytes()


def _random_solution(c, n_intervals=10, seed=7):
    # random nodal values: what is under test is the evaluation, not the solve
    n_nodes = collocation._tau_nodes(c).size
    values = np.random.default_rng(seed).standard_normal((n_intervals, n_nodes, 2))
    return PiecewiseSolution(t_start=1.0, h=0.05, c=c, nodal_values=values)


@pytest.mark.parametrize("c", [(0.0, 0.7, 0.9), (0.3, 0.8), (0.0, 0.5, 1.0)],
                         ids=["1-appended", "0-prepended", "nodes-are-c"])
def test_solution_on_an_array_of_times_gives_the_float_calls_row_by_row(c):
    sol = _random_solution(c)
    lo, hi = sol.span
    times = np.concatenate([np.random.default_rng(11).uniform(lo, hi, 200), sol.times,
                            sol.times - 1e-13, sol.times + 1e-13, sol.collocation_times(),
                            [hi, lo - 1e-12, hi + 1e-12]])
    values = sol(times)
    assert values.shape == (times.size, 2)
    for t, row in zip(times, values):
        value = sol(float(t))
        assert value.shape == (2,)
        assert value.tobytes() == row.tobytes()
    assert sol(np.array([[1.1, 1.2]])).shape == (1, 2, 2)
    with pytest.raises(ExtrapolationError):
        sol(np.array([1.2, 0.9]))


def test_a_float_call_is_worked_out_on_floats(monkeypatch):
    sol = _random_solution((0.0, 0.7, 0.9))
    seen = []
    interval_of, weights = PiecewiseSolution.interval_of, collocation._lagrange_weights
    monkeypatch.setattr(PiecewiseSolution, "interval_of",
                        lambda self, t: seen.append(t) or interval_of(self, t))
    monkeypatch.setattr(collocation, "_lagrange_weights",
                        lambda nodes, tau: seen.append(tau) or weights(nodes, tau))
    sol(1.2345)
    assert [type(x) for x in seen] == [float, float]


def test_an_empty_solution_refuses_a_float_call():
    sol = _random_solution((0.0, 0.7, 0.9), n_intervals=0)
    with pytest.raises(InvalidInputError, match="empty solution"):
        sol(1.0)
    assert sol(np.array([])).shape == (0, 2)


def test_residual_of_an_empty_solution_is_refused_as_the_solution_is():
    # κ = −exp(50y) blows up in the first interval, so the solve keeps none
    p = SemiNonlinearIAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
                         kappa=lambda t, s, y: -np.exp(50.0 * y),
                         f=lambda t: np.array([0.5]), r=1, T=1.0)
    sol, diag = solve_iae(p, CollocationConfig(h=0.5))
    assert sol.n_intervals == 0 and diag["failure"]["step"] == 0
    with pytest.raises(InvalidInputError, match="empty solution"):
        residual(p, sol, [0.0])


def test_an_affine_interval_records_the_residual_of_its_accepted_value():
    # y + ∫ y = 1: one Newton step solves each interval of a linear problem
    p = LinearIAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
                  k=lambda t, s: np.eye(1), f=lambda t: np.ones(1), r=1, T=1.0)
    sol, diag = solve_iae(p, CollocationConfig(h=0.1))
    assert diag["newton_iters"] == [1] * 10
    assert max(diag["residual_norms"]) <= 1e-14
    assert residual(p, sol, sol.collocation_times()).max() <= 1e-14


def test_start_data_that_violate_the_equation_at_a_are_a_warning():
    # A = diag(1, 0) and f = (1, 1): no y gives A(0)y = f(0), and the
    # least-squares start y = (1, 0) misses the second row by 1
    p = LinearIAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                  k=lambda t, s: np.eye(2), f=lambda t: np.ones(2), r=2, T=1.0)
    _, diag = solve_iae(p, CollocationConfig(h=0.5))
    assert diag["start_consistency"] == 1.0
    assert diag["warnings"][-1] == "initial data violate A(a)y = f(a) by 1.000e+00"


@pytest.mark.parametrize("t_start, h, c", [
    (0.0, 0.0, (0.0,)), (0.0, np.inf, (0.0,)), (0.0, -0.1, (0.0,)), (0.0, np.nan, (0.0,)),
    (np.inf, 0.1, (0.0,)), (np.nan, 0.1, (0.0,)),
    (0.0, 0.1, ()), (0.0, 0.1, (0.5, 0.2)), (0.0, 0.1, (0.0, np.nan)), (0.0, 0.1, (0.5, 1.5)),
    (0.0, 0.1, (-0.5, 0.5)),
], ids=["h-zero", "h-inf", "h-negative", "h-nan", "t-start-inf", "t-start-nan",
        "c-empty", "c-decreasing", "c-nan", "c-above-1", "c-below-0"])
def test_solution_refuses_a_step_or_start_it_cannot_evaluate(t_start, h, c):
    with pytest.raises(InvalidInputError):
        PiecewiseSolution(t_start=t_start, h=h, c=c, nodal_values=np.zeros((2, 2, 1)))


@pytest.mark.parametrize("c, nodes", [
    ((0.0, 0.7, 0.9), (0.0, 0.7, 0.9, 1.0)),
    ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)),
    ((0.3, 0.8), (0.0, 0.3, 0.8)),
], ids=["starts-at-0", "ends-at-1", "starts-above-0"])
def test_a_solution_takes_its_nodes_from_c_as_the_solver_does(c, nodes, monkeypatch):
    seen = []
    build = collocation._build_scheme

    def spy(c, h):
        sch = build(c, h)
        seen.append(sch.nodes)
        return sch

    monkeypatch.setattr(collocation, "_build_scheme", spy)
    sol, _ = solve_iae(example("ex34"), CollocationConfig(c=c, h=0.05, newton_tol=1e-10),
                       interval=(1.0, 1.1))
    assert sol.n_intervals == 2
    assert seen[0].tolist() == sol.tau_nodes.tolist() == list(nodes)


@pytest.mark.parametrize("c", [(0.0, 0.7, 0.9), (0.3, 0.8)], ids=["c0-node-1", "no-node-1"])
def test_solution_at_mesh_times_reads_the_stored_nodes(c):
    # (t − t_start)/h can round below its whole number, which once put a
    # mesh time in the interval before it at τ just under 1.  The run at
    # c = (0.3, 0.8) stops after 7 intervals; the ones it kept serve.
    sol, _ = solve_iae(example("ex34"), CollocationConfig(c=c, h=0.025, newton_tol=1e-10),
                       interval=(1.0, 2.0))
    assert sol.n_intervals >= 7
    # the residual places its probes with the same rule
    assert sol.interval_of(sol.times[:-1]).tolist() == list(range(sol.n_intervals))
    assert sol(sol.times[:-1]).tobytes() == sol.nodal_values[:, 0].tobytes()
    right_end = collocation._lagrange_weights(sol.tau_nodes, np.ones(1)) @ sol.nodal_values[-1]
    assert sol(sol.t_end).tobytes() == right_end[0].tobytes()
    if c[0] == 0.0:
        assert sol(sol.t_end).tobytes() == sol.nodal_values[-1, -1].tobytes()
    for t in sol.times:
        assert sol(float(t)).tobytes() == sol(np.array([t]))[0].tobytes()


def test_solution_rejects_points_outside_span():
    sol, _ = solve_iae(example("ex34"), CollocationConfig())
    with pytest.raises(ExtrapolationError):
        sol(0.9)
    with pytest.raises(InvalidInputError):
        residual(example("ex34"), sol, np.array([0.9, 1.5]))


def test_interval_must_start_at_the_problem_origin():
    with pytest.raises(InvalidInputError):
        solve_iae(example("ex34"), CollocationConfig(), interval=(1.3, 2.0))


def test_a_non_finite_exact_start_is_refused():
    # its start defect is NaN, which no threshold test flags: the solve
    # must refuse the value itself, as solve_dae does
    p = example("ex34")
    p.exact = lambda t: np.array([np.nan, 1.0])
    with pytest.raises(InvalidInputError, match="non-finite initial value"):
        solve_iae(p, CollocationConfig())


def test_a_start_within_the_span_slack_of_the_origin_is_accepted():
    # one ulp above t_start = 1e5 (1.5e-11) lies inside check_span's slack
    p = LinearIAE(A=MatrixFunction.constant(np.eye(1), domain=(1e5, 1e5 + 1.0)),
                  k=lambda t, s: np.eye(1), f=lambda t: np.ones(1), r=1,
                  T=1e5 + 1.0, t_start=1e5)
    sol, diag = solve_iae(p, CollocationConfig(h=0.25),
                          interval=(np.nextafter(1e5, np.inf), 1e5 + 1.0))
    assert diag["failure"] is None and sol.n_intervals == 4


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
