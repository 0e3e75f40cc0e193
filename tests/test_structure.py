"""Linearization along trajectories, pointwise index, classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daekit import (
    ClassificationUnreliableError,
    CollocationConfig,
    DaeSolveConfig,
    DomainError,
    ExtrapolationError,
    InvalidInputError,
    MatrixFunction,
    PiecewiseSolution,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    TrajectorySample,
    classify,
    detect_critical_points,
    example,
    frozen_index_report,
    linearize_iae,
    monitor,
    numerical_rank,
    pointwise_index,
    rank_degree_index,
    solve_dae,
    solve_iae,
)
from daekit.structure import TIME_TOL, WARN_THRESHOLD
from helpers import exact_traj, float_bits

HALF_PI = np.pi / 2.0


def traj_through(p, a, b, t_extra=None, n=201):
    """Exact trajectory sampled on [a, b], optionally forcing extra nodes."""
    grid = np.linspace(a, b, n)
    if t_extra is not None:
        grid = np.union1d(grid, np.atleast_1d(t_extra))
    return TrajectorySample.from_function(p.exact, grid)


# --- linearize_iae on a DAE ------------------------------------------------

def test_linearize_iae_of_dae_jacobian_along_exact_solution():
    p = example("ex32")
    lin = linearize_iae(p, exact_traj(p, 0.5, 1.0, 101))
    assert lin.interval == lin.A.domain == lin.k.domain == (0.5, 1.0)
    assert lin.A(0.7).tobytes() == p.A(0.7).tobytes()
    # A is constant, so the kernel is F_y(s, traj(s)) whatever t is
    want = np.array([[-2.0 * np.cos(0.5), -np.exp(0.5)],
                     [-0.5, -np.cos(0.5)]])
    for t in (0.5, 0.8, 1.0):
        np.testing.assert_allclose(lin.k(t, 0.5), want, atol=1e-8)
    np.testing.assert_allclose(lin.f(0.7), np.zeros(2), atol=1e-15)


def test_linearize_iae_of_linear_dae_ignores_trajectory():
    m = np.array([[1.0, 2.0], [-1.0, 0.5]])
    da = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = SemiNonlinearDAE(
        A=MatrixFunction(eval=lambda t: np.array([[1.0, t], [0.0, 0.0]]),
                         domain=(0.0, 1.0), derivative=lambda t: da),
        F=lambda t, y: m @ y,
        f=lambda t: np.zeros(2),
        r=2, T=1.0, t_start=0.0,
        F_y=lambda t, y: np.multiply.outer(m, np.ones_like(y[0])))
    grid = np.linspace(0.0, 1.0, 31)
    tr1 = TrajectorySample(grid, np.column_stack([np.sin(grid), grid]))
    tr2 = TrajectorySample(grid, np.column_stack([np.exp(grid), -grid]))
    k1 = linearize_iae(p, tr1).k
    k2 = linearize_iae(p, tr2).k
    for t, s in [(0.5, 0.0), (0.3, 0.3), (1.0, 0.9)]:
        np.testing.assert_allclose(k1(t, s), m - da, atol=1e-12)
        np.testing.assert_allclose(k1(t, s), k2(t, s), atol=1e-12)


# --- linearize_iae --------------------------------------------------------

def test_linearize_iae_kernel_along_exact_solution():
    p = example("ex34")
    lin = linearize_iae(p, exact_traj(p))
    for t, s in [(1.5, 1.2), (2.0, 1.9), (1.1, 1.05)]:
        want = np.array([
            [2.0 * s * np.exp(s), (np.exp(2.0 * s) + 2.0) + np.exp(s)],
            [2.0 * np.exp(s), 0.0]])
        np.testing.assert_allclose(lin.k(t, s), want, atol=1e-6)
    np.testing.assert_allclose(lin.f(1.5), np.zeros(2), atol=1e-15)


def test_linearize_iae_kernel_vanishes_where_condition_crosses():
    p = example("ex35")
    lin = linearize_iae(p, traj_through(p, 1.0, 2.0, t_extra=HALF_PI))
    # (cos s) hits zero at pi/2, so the lower-left kernel entry does too
    assert abs(lin.k(1.8, HALF_PI)[1][0]) <= 1e-12
    assert abs(lin.k(1.8, 1.2)[1][0] - 2.0 * np.cos(1.2)) <= 1e-8


def test_linearize_iae_of_linear_operator_ignores_trajectory():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = SemiNonlinearIAE(
        A=MatrixFunction.constant(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                  domain=(0.0, 1.0)),
        kappa=lambda t, s, y: m @ y,
        f=lambda t: np.zeros(2),
        r=2, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.multiply.outer(m, np.ones_like(y[0])))
    grid = np.linspace(0.0, 1.0, 31)
    tr1 = TrajectorySample(grid, np.column_stack([grid, grid ** 2]))
    tr2 = TrajectorySample(grid, np.column_stack([np.cos(grid), np.sin(grid)]))
    k1 = linearize_iae(p, tr1).k
    k2 = linearize_iae(p, tr2).k
    for t, s in [(0.5, 0.2), (1.0, 0.9)]:
        np.testing.assert_allclose(k1(t, s), m, atol=1e-12)
        np.testing.assert_allclose(k1(t, s), k2(t, s), atol=1e-12)


# --- pointwise index ------------------------------------------------------

def test_pointwise_index_away_from_critical_point():
    p = example("ex32")
    assert pointwise_index(p, exact_traj(p, 0.5, 1.0), 0.7) == 1


def test_pointwise_index_at_critical_point():
    p = example("ex32")
    tr = traj_through(p, 1.0, 2.0, t_extra=HALF_PI)
    assert pointwise_index(p, tr, HALF_PI) == 2
    # the jump is confined to the crossing itself
    assert pointwise_index(p, tr, HALF_PI - 0.06) == 1
    assert pointwise_index(p, tr, HALF_PI + 0.06) == 1


def test_pointwise_index_constant_for_integral_example():
    p = example("ex34")
    tr = exact_traj(p)
    for t in (1.0, 1.3, 1.7, 2.0):
        assert pointwise_index(p, tr, t) == 2


def test_frozen_report_carries_chain_details():
    p = example("ex34")
    tr = exact_traj(p)
    rep = frozen_index_report(p, tr(1.5), 1.5, tr)
    assert rep.nu == 2
    assert rep.status.ok
    assert [lev.rank for lev in rep.levels] == [1, 1, 2]


def test_pointwise_index_with_a_ball_runs_the_centre_in_the_ball_chain():
    # traj(t) is sample 0 of one chain with the ball's η's: each report
    # equals its single-η report, and an empty ball gives the centre's alone
    p = example("ex32")
    tr = traj_through(p, 1.0, 2.0, t_extra=HALF_PI)
    centre = tr(HALF_PI)
    ball = centre + np.array([[0.2, 0.0], [-0.3, 0.1], [0.0, -0.2]])
    nu, reports = pointwise_index(p, tr, HALF_PI, ball=ball)
    single = [frozen_index_report(p, eta, HALF_PI, tr) for eta in [centre, *ball]]
    assert nu == reports[0].nu == pointwise_index(p, tr, HALF_PI) == 2
    assert [rep.nu for rep in reports] == [2, 1, 1, 2]
    assert [float_bits(rep.to_dict()) for rep in reports] == \
        [float_bits(rep.to_dict()) for rep in single]
    nu, reports = pointwise_index(p, tr, HALF_PI, ball=np.empty((0, p.r)))
    assert nu == 2
    assert [float_bits(rep.to_dict()) for rep in reports] == [float_bits(single[0].to_dict())]


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_classify_runs_every_grid_point_through_one_chain(monkeypatch):
    # classify(ex34) on 6 points, where ν = 2 everywhere: one pointwise_index
    # call puts every point's window, its centre and 8 samples, in one chain,
    # which steps twice and whose A_2 gives every determinant, and the chain
    # along the trajectory steps twice more (a chain per point made it 2·6 + 2)
    import daekit.chain
    import daekit.structure

    calls = []
    for module, name in [(daekit.chain, "chain_step"), (daekit.structure, "chain_step"),
                         (daekit.structure, "pointwise_index"),
                         (daekit.structure, "frozen_index_report"),
                         (daekit.structure, "rank_degree_index")]:
        _count_calls(monkeypatch, module, name, calls)
    prof = classify(example("ex34"), grid=np.linspace(1.0, 2.0, 6))
    assert prof.nu_at == [2] * 6
    assert prof.to_dict()["samples_per_point"] == 8
    assert prof.classification == "well-structure"
    assert calls.count("chain_step") == 2 + 2
    assert calls.count("pointwise_index") == 1
    assert calls.count("frozen_index_report") == 1
    assert calls.count("rank_degree_index") == 1


def test_classify_refuses_at_the_first_point_past_20_percent_undefined(monkeypatch):
    # ν is undefined everywhere for A = 0 and F_y = 0: the refusal names the
    # point at which 5 of the 21 grid points are undefined, read from the
    # one chain that holds every point's window
    import daekit.structure

    bad = SemiNonlinearDAE(
        A=MatrixFunction.constant(np.zeros((2, 2)), domain=(0.0, 1.0)),
        F=lambda t, y: np.zeros(2), f=lambda t: np.zeros(2), r=2, T=1.0, t_start=0.0,
        F_y=lambda t, y: np.zeros((2, 2) + np.shape(y)[1:]))
    flat = TrajectorySample(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
    calls = []
    _count_calls(monkeypatch, daekit.structure, "rank_degree_index", calls)
    with pytest.raises(ClassificationUnreliableError, match="5 of 21 grid points by t=0.2"):
        classify(bad, traj=flat)
    assert len(calls) == 1


def test_an_evaluation_error_anywhere_on_the_grid_comes_before_the_refusal():
    # ν is undefined everywhere, which would refuse at t = 0.2, but F_y is
    # not finite from s = 0.5 on: the one chain evaluates every window
    # first, and its error names the first time whose kernel is not finite
    bad = SemiNonlinearDAE(
        A=MatrixFunction.constant(np.zeros((2, 2)), domain=(0.0, 1.0)),
        F=lambda t, y: np.zeros(2), f=lambda t: np.zeros(2), r=2, T=1.0, t_start=0.0,
        F_y=lambda t, y: np.where(np.asarray(t) >= 0.5, np.inf, 0.0)
        * np.ones((2, 2) + np.shape(y)[1:]))
    flat = TrajectorySample(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
    with pytest.raises(InvalidInputError, match=r"^non-finite kernel at t=0\.5$"):
        classify(bad, traj=flat)


def test_an_overflowing_jacobian_is_a_non_finite_kernel_not_a_warning():
    # η's from a ball of radius 1000 overflow e^{y2} in ex32's F_y; the
    # typed error comes, not numpy's overflow warning
    with pytest.raises(InvalidInputError, match=r"^non-finite kernel at t=1\.0$"):
        classify(example("ex32"), eps=1000.0, grid=np.linspace(1.0, 2.0, 21))


def _assert_batch_is_pointwise(p, tr, times, balls, nus=(1, 2)):
    """pointwise_index at the (n,) times with the (n, S, r) balls, all in one
    chain, equals its n single-point calls: each report's float bits, and
    _final_det's bytes for each ν that classify may compare against."""
    import daekit.structure

    batch = pointwise_index(p, tr, times, ball=balls)
    singles = [pointwise_index(p, tr, float(t), ball=ball) for t, ball in zip(times, balls)]
    assert [nu for nu, _ in batch] == [nu for nu, _ in singles]
    for (_, got), (_, want) in zip(batch, singles):
        assert [float_bits(rep.to_dict()) for rep in got] == \
            [float_bits(rep.to_dict()) for rep in want]
    for nu in nus:
        dets = daekit.structure._final_det([reps for _, reps in batch], nu, times)
        assert dets.tobytes() == np.array(
            [daekit.structure._final_det(reps, nu, float(t))
             for t, (_, reps) in zip(times, singles)]).tobytes()
    return batch


def _ball(tr, times, n_samples, seed, eps=0.1):
    rng = np.random.default_rng(seed)
    return tr(times)[:, None] + rng.uniform(-eps, eps, size=(times.size, n_samples, 2))


def test_a_batch_with_windows_clipped_at_both_ends_is_pointwise():
    # ex32 on its whole interval [0, 2]: the windows at both ends are clipped
    # to half width, and the index changes at π/2
    p = example("ex32")
    tr = exact_traj(p)
    times = np.linspace(0.0, 2.0, 41)
    batch = _assert_batch_is_pointwise(p, tr, times, _ball(tr, times, 8, 5))
    grids = [reps[0].grid for _, reps in batch]
    assert (grids[0][0], grids[0][-1], grids[-1][0], grids[-1][-1]) == (0.0, 0.05, 1.95, 2.0)


def test_a_batch_needs_one_stack_of_etas_per_time():
    p = example("ex34")
    tr = exact_traj(p)
    times = np.array([1.2, 1.5])
    with pytest.raises(InvalidInputError, match=r"needs an \(n, S, r\) stack"):
        frozen_index_report(p, tr(times), times, tr)


@pytest.mark.parametrize("solve", [
    lambda: (example("ex32"), _ex32_bdf1()),
    lambda: (example("ex34"), solve_iae(example("ex34"), CollocationConfig(h=0.025))[0]),
    lambda: (example("ex35"), solve_iae(example("ex35"), CollocationConfig(h=0.025))[0]),
], ids=["ex32-bdf1", "ex34-collocation", "ex35-collocation"])
def test_a_batch_along_a_solve_is_pointwise(solve):
    p, sol = solve()
    times = np.linspace(*sol.span, 11)
    _assert_batch_is_pointwise(p, sol, times, _ball(sol, times, 8, 7))


def test_a_window_inside_a_too_short_trajectory_is_refused():
    # a trajectory on [1, 1 + 1e-9] leaves the window around t = 1 no width
    p = example("ex34")
    traj = TrajectorySample.from_function(p.exact, [1.0, 1.0 + 1e-9])
    with pytest.raises(DomainError, match="degenerate"):
        frozen_index_report(p, traj(1.0), 1.0, traj)


def _ex32_crossing_inside_the_window():
    # ex32 linearized at y1 = η1 + t − π/2: for η1 = 0 the critical condition
    # y1 = 0 holds at the middle window point only
    p = example("ex32")
    F_y = p.F_y
    p.F_y = lambda t, y: F_y(t, y + np.array([t - HALF_PI, np.zeros_like(t)]))
    return p


# η = (η1, π/2) at t = π/2; ex32's A_1 = [[1, 0], [−η2, −η1]] is singular
# (rank tolerance 1e-10) for |η1| below about 3.5e-10
@pytest.mark.parametrize("make, nu_max, eta1, outcomes", [
    (lambda: example("ex32"), 4, [0.0, 1e-11, 1e-6, -0.05],
     [(2, "ok"), (2, "ok"), (1, "ok"), (1, "ok")]),
    (lambda: example("ex32"), 1, [1e-6, 0.0, -1e-11],
     [(1, "ok"), (None, "exceeded-max-level"), (None, "exceeded-max-level")]),
    (_ex32_crossing_inside_the_window, 4, [0.0, 0.2],
     [(None, "non-constant-rank"), (1, "ok")]),
], ids=["nu-1-and-2", "exceeded-max-level", "non-constant-rank"])
def test_stacked_report_equals_single_reports_near_the_critical_point(monkeypatch, make, nu_max,
                                                                     eta1, outcomes):
    import daekit.chain
    import daekit.structure

    monkeypatch.setattr(daekit.chain, "NU_MAX", nu_max)
    p = make()
    tr = exact_traj(p)
    etas = [np.array([e, HALF_PI]) for e in eta1]
    reports = frozen_index_report(p, etas, HALF_PI, tr)
    singles = [frozen_index_report(p, eta, HALF_PI, tr) for eta in etas]
    assert [(rep.nu, rep.status.kind) for rep in reports] == outcomes
    assert [float_bits(rep.to_dict()) for rep in reports] == \
        [float_bits(rep.to_dict()) for rep in singles]
    # every sample's det A_ν(t), for each ν that classify may compare
    # against, at π/2 and at a window node, where it is read from det
    for t in (HALF_PI, float(reports[0].grid[3])):
        for nu in (1, 2):
            dets = daekit.structure._final_det(reports, nu, t)
            assert dets.tobytes() == np.concatenate(
                [daekit.structure._final_det([rep], nu, t) for rep in singles]).tobytes()


@pytest.mark.parametrize("make, nu_max, eta1, outcomes", [
    (lambda: example("ex32"), 4, [0.0, 1e-11, 1e-6, -0.05],
     [(2, "ok"), (2, "ok"), (1, "ok"), (1, "ok")]),
    (lambda: example("ex32"), 1, [1e-6, 0.0, -1e-11],
     [(1, "ok"), (None, "exceeded-max-level"), (None, "exceeded-max-level")]),
    (_ex32_crossing_inside_the_window, 4, [0.0, 0.2],
     [(None, "non-constant-rank"), (1, "ok")]),
], ids=["nu-1-and-2", "exceeded-max-level", "non-constant-rank"])
def test_a_batch_whose_samples_stop_early_is_pointwise(monkeypatch, make, nu_max, eta1,
                                                     outcomes):
    # the window at π/2 holds samples that stop before the others, and the
    # windows beside it (ν = 1) leave the chain before a window at ν = 2
    import daekit.chain

    monkeypatch.setattr(daekit.chain, "NU_MAX", nu_max)
    p = make()
    tr = exact_traj(p)
    times = np.array([1.2, HALF_PI, 1.9])
    balls = np.array([[[e, HALF_PI] for e in eta1]] * 3)
    balls[[0, 2], :, 0] += 0.5
    # at ν = 3 the blind chains start from level 1 beside π/2 and from
    # level 2 at π/2 when its samples reach it
    batch = _assert_batch_is_pointwise(p, tr, times, balls, nus=(1, 2, 3))
    assert [(rep.nu, rep.status.kind) for rep in batch[1][1][1:]] == outcomes


@given(name=st.sampled_from(["ex32", "ex34"]), t=st.floats(1.1, 1.9),
       n_samples=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), nu=st.integers(0, 3),
       where=st.one_of(st.integers(0, 8), st.floats(0.0, 1.0)))
@settings(max_examples=30, deadline=None)
def test_final_det_is_the_determinant_of_the_blind_chain(name, t, n_samples, seed, nu, where):
    # an integer `where` is a window node, a float a time between the ends
    import daekit.structure

    p = example(name)
    tr = exact_traj(p)
    etas = tr(t) + np.random.default_rng(seed).uniform(-0.1, 0.1, size=(n_samples, p.r))
    reports = frozen_index_report(p, etas, t, tr)
    grid = reports[0].grid
    at = float(grid[where] if isinstance(where, int) else grid[0] + where * (grid[-1] - grid[0]))
    lev = reports[0].levels[0]
    want = np.linalg.det(daekit.structure._blind_chain(lev.A, lev.k, nu)(at))
    assert daekit.structure._final_det(reports, nu, at).tobytes() == \
        np.broadcast_to(want, (n_samples,)).tobytes()


@pytest.mark.parametrize("name", ["ex32", "ex35"])
def test_every_determinant_classify_takes_is_np_linalg_dets(name, monkeypatch):
    # the chain's per-level dets, _final_det and the dets along the
    # trajectory, with repeats and broadcast level-0 stacks among them
    import daekit.chain
    import daekit.linalg
    import daekit.structure

    shapes = []

    def checked(m):
        got = daekit.linalg.det(m)
        assert np.asarray(got).tobytes() == np.asarray(np.linalg.det(m)).tobytes()
        shapes.append(np.shape(m)[:-2])
        return got

    def checked_level(m, factored=daekit.chain._factored):
        rank, v, dets = factored(m)
        assert checked(m).tobytes() == dets.tobytes()
        return rank, v, dets

    monkeypatch.setattr(daekit.chain, "_factored", checked_level)
    monkeypatch.setattr(daekit.structure, "det", checked)
    assert classify(example(name)).classification == "free-structure-dependent"
    assert (21 * 9, 9) in shapes and (21 * 9, 1) in shapes and (21,) in shapes and () in shapes


def test_level_0_of_a_stacked_chain_is_not_repeated_across_samples(monkeypatch):
    # level 0 is A for every sample: repeated 8 times, 520 matrices reached
    # the chain's factorizations for this report, 329 of them level-0 copies;
    # rank_degree_index's _factored and the levels' projector calls take
    # 189, level 0 with a sample axis of size 1 in both
    import daekit.chain

    p = example("ex34")
    tr = exact_traj(p)
    etas = tr(1.5) + np.random.default_rng(3).uniform(-0.1, 0.1, size=(8, 2))
    a0 = p.A(1.5)
    counts, level0_samples = [], []

    def counted(factor):
        def spy(m):
            counts.append(int(np.prod(m.shape[:-2])))
            if np.all(m == a0):
                level0_samples.append(m.shape[-3])
            return factor(m)
        return spy

    for name in ("_factored", "projector"):
        monkeypatch.setattr(daekit.chain, name, counted(getattr(daekit.chain, name)))
    reports = frozen_index_report(p, etas, 1.5, tr)
    assert [rep.nu for rep in reports] == [2] * 8
    assert sum(counts) <= 189
    assert len(level0_samples) == 2 and all(n == 1 for n in level0_samples)


def test_stacked_report_equals_single_reports_along_a_growing_solution():
    p = example("ex34")
    tr = exact_traj(p)
    rng = np.random.default_rng(3)
    etas = tr(1.5) + rng.uniform(-0.1, 0.1, size=(8, 2))
    reports = frozen_index_report(p, etas, 1.5, tr)
    assert [rep.nu for rep in reports] == [2] * 8
    assert [float_bits(rep.to_dict()) for rep in reports] == \
        [float_bits(frozen_index_report(p, eta, 1.5, tr).to_dict()) for eta in etas]


def test_each_chain_level_is_built_from_the_grid_values_below(monkeypatch):
    # ex34's ν = 2 chain on 9 points evaluates κ_y at 9 points for
    # k_0(grid, grid) and at 45 for k_1(grid, grid) (k_0 at the 9 points and
    # at their 36 stencil points, all central, as the chain's domain reaches
    # past the window); evaluating A_1(grid) again for A_2(grid) would add 9.  κ_y takes each batch in one call: count its width M.
    p = example("ex34")
    tr = exact_traj(p)
    widths, probes = [], []
    kappa_y = p.kappa_y

    def counted(t, s, y):
        if np.ndim(y) == 2:
            widths.append(y.shape[1])
        else:
            probes.append(s)
        return kappa_y(t, s, y)

    monkeypatch.setattr(p, "kappa_y", counted)
    rep = frozen_index_report(p, tr(1.5), 1.5, tr)
    assert rep.nu == 2
    assert sum(widths) == 54
    assert len(probes) == 0
    # the levels' grid data equal a fresh evaluation of each level on the grid
    for lev in rep.levels:
        whole = lev.A(rep.grid)
        assert numerical_rank(whole).tolist() == [lev.rank] * rep.grid.size
        assert lev.det.tobytes() == np.linalg.det(whole).tobytes()


# --- critical point detection ---------------------------------------------

def test_detect_critical_points_finds_cosine_zero():
    p = example("ex32")
    crits = detect_critical_points(exact_traj(p, 1.0, 2.0),
                                   p.critical_conditions)
    assert len(crits) == 1
    t_crit, cond_id = crits[0]
    assert cond_id == 0
    assert abs(t_crit - HALF_PI) <= 1e-6


@pytest.mark.parametrize("call", [
    lambda: detect_critical_points(exact_traj(example("ex32"), 1.0, 2.0),
                                   example("ex32").critical_conditions, refine=False),
    lambda: PiecewiseSolution(t_start=0.0, h=0.5, c=(0.0,), tau_nodes=(0.0, 1.0),
                              nodal_values=np.zeros((2, 2, 1))),
], ids=["detect_critical_points-refine", "PiecewiseSolution-tau_nodes"])
def test_inputs_the_code_derives_are_not_parameters(call):
    # a sign change is always bisected, and a solution's nodes follow from its c
    with pytest.raises(TypeError, match="refine|tau_nodes"):
        call()


def test_detect_critical_points_constant_condition_is_empty():
    p = example("ex32")
    assert detect_critical_points(exact_traj(p, 1.0, 2.0),
                                  (lambda t, y: 1.0,)) == []


def test_detect_critical_points_positive_solution_is_empty():
    p = example("ex33")
    assert detect_critical_points(exact_traj(p, 1.0, 2.0),
                                  (lambda t, y: y[0],)) == []


@pytest.mark.parametrize("y1, t_hit", [
    ([1.0, 0.5, 1e-9, 0.5, 1.0], 1.5),
    ([1.0, 0.5, 0.0, -0.5, -1.0], 1.5),
    ([1.0, 0.5, 0.25, 0.1, 0.0], 2.0),
], ids=["touch", "zero-at-inner-sample", "zero-at-last-sample"])
def test_detect_critical_points_without_a_sign_change_between_samples(y1, t_hit):
    traj = TrajectorySample(times=np.linspace(1.0, 2.0, 5), values=np.c_[y1])
    assert detect_critical_points(traj, (lambda t, y: y[0],)) == [(t_hit, 0)]


def _ex32_bdf1():
    # BDF1 passes the critical point π/2 and stops at t = 1.675
    return solve_dae(example("ex32"), DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))


def test_detect_critical_points_along_a_bdf_solution():
    p = example("ex32")
    crits = detect_critical_points(_ex32_bdf1(), p.critical_conditions)
    assert [cid for _, cid in crits] == [0]
    assert abs(crits[0][0] - HALF_PI) <= 1e-5


@pytest.mark.parametrize("traj", [lambda: exact_traj(example("ex32"), 0.5, 1.0), _ex32_bdf1],
                         ids=["exact-on-0.5-1", "bdf1-on-1-2"])
def test_linearization_along_a_partial_trajectory_has_its_span(traj):
    # ex32 lives on [0, 2]; the BDF1 solve from t = 1 stops at t = 1.675
    traj = traj()
    lin = linearize_iae(example("ex32"), traj)
    assert lin.A.domain == lin.k.domain == lin.interval == traj.span
    report = rank_degree_index(lin.A, lin.k)
    assert (report.nu, report.status.kind) == (1, "ok")


@pytest.mark.parametrize("a, b", [(2.5, 3.0), (2.0, 2.5)], ids=["beyond", "touching"])
def test_linearization_along_a_trajectory_off_the_interval_raises(a, b):
    # ex32 lives on [0, 2]; no overlap leaves nothing to linearize on
    with pytest.raises(ExtrapolationError, match="does not overlap"):
        linearize_iae(example("ex32"), TrajectorySample(np.linspace(a, b, 5), np.zeros((5, 2))))


def test_detect_critical_points_requires_conditions():
    p = example("ex32")
    with pytest.raises(InvalidInputError):
        detect_critical_points(exact_traj(p, 1.0, 2.0), ())


# --- the critical-condition monitor ---------------------------------------

Y1 = (lambda t, y: y[0],)


def _reference_monitor(times, values, conditions):
    """The monitor's rule written out over stored (time, value) pairs."""
    out, prev = [], None
    for t, y in zip(times, values):
        gs = [float(g(t, y)) for g in conditions]
        for cid, g in enumerate(gs):
            if abs(g) < WARN_THRESHOLD or (prev is not None and prev[cid] * g < 0.0):
                out.append((t, cid, g))
        prev = gs
    return out


def _warned(traj, conditions):
    return [(w.t, w.condition, w.value) for w in monitor(traj, conditions)]


def test_monitor_warns_near_zero_and_where_the_sign_changed():
    # near zero at t = 0 and 3; from 0.5 to -0.5 at t = 2 without coming near
    traj = TrajectorySample(times=np.arange(5.0), values=np.c_[[5e-3, 0.5, -0.5, -5e-3, -1.0]])
    assert _warned(traj, Y1) == [(0.0, 0, 5e-3), (2.0, 0, -0.5), (3.0, 0, -5e-3)]
    assert [w.to_dict() for w in monitor(traj, Y1)][1] == {"t": 2.0, "condition": 0,
                                                           "value": -0.5}


def test_monitor_on_a_bdf_solve_reads_its_accepted_values():
    sol = _ex32_bdf1()
    got = _warned(sol, example("ex32").critical_conditions)
    assert got == _reference_monitor(sol.times.tolist(), sol.values,
                                      example("ex32").critical_conditions)
    # 20 warnings around π/2, from t = 1.561 to 1.58
    assert (len(got), got[0][0], got[-1][0]) == (20, 1.561, 1.58)


def test_monitor_on_a_solve_that_stops_at_its_first_step():
    # y' = exp(60y) from y(0) = 0 blows up at t = 1/60: no step is accepted
    p = SemiNonlinearDAE(A=MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0)),
                         F=lambda t, y: -np.exp(60.0 * y), f=lambda t: np.zeros(1),
                         r=1, T=1.0, y0=np.zeros(1))
    sol = solve_dae(p, DaeSolveConfig(h=0.5))
    assert sol.times.tolist() == [0.0]
    assert _warned(sol, Y1) == [(0.0, 0, 0.0)]


def test_monitor_on_a_collocation_solve_reads_its_mesh_nodes():
    p = example("ex35")
    sol, _ = solve_iae(p, CollocationConfig(h=0.025))
    # interval n starts at its node 0; t_end is the last interval's node 1
    mesh_values = np.vstack([sol.nodal_values[:, 0], sol.nodal_values[-1:, -1]])
    assert _warned(sol, p.critical_conditions) == _reference_monitor(
        sol.times.tolist(), mesh_values, p.critical_conditions)


def test_monitor_without_conditions_reads_no_value():
    empty = PiecewiseSolution(t_start=1.0, h=0.5, c=(0.0, 0.5), nodal_values=np.zeros((0, 3, 1)))
    assert monitor(empty, ()) == []
    with pytest.raises(InvalidInputError, match="empty solution"):
        monitor(empty, Y1)


def test_monitor_warns_time_by_time_then_condition_by_condition():
    # two conditions near zero at the same knots around π/2
    sol = _ex32_bdf1()
    conditions = (lambda t, y: y[0], lambda t, y: y[0] - 5e-3 * t)
    got = _warned(sol, conditions)
    assert got == _reference_monitor(sol.times.tolist(), sol.values, conditions)
    assert {cid for _, cid, _ in got} == {0, 1}
    assert [(t, cid) for t, cid, _ in got] == sorted((t, cid) for t, cid, _ in got)


@pytest.mark.parametrize("h", [0.025, 0.0125])
def test_collocation_warns_within_2h_of_the_crossing_on_ex35_only(h):
    # ex35 touches y1 = 0 near π/2 and goes on along the reflected branch;
    # ex34's y1 stays above 2.7
    cfg = CollocationConfig(c=(0.0, 0.7, 0.9), h=h)
    ex35, ex34 = example("ex35"), example("ex34")
    warned = [w.t for w in monitor(solve_iae(ex35, cfg)[0], ex35.critical_conditions)]
    assert warned and all(abs(t - HALF_PI) <= 2.0 * h for t in warned)
    assert monitor(solve_iae(ex34, cfg)[0], ex34.critical_conditions) == []


# --- classification -------------------------------------------------------

def test_classify_well_structure():
    prof = classify(example("ex31"), eps=0.5, seed=0)
    assert prof.classification == "well-structure"
    assert prof.nu == 2
    assert prof.critical_points == []


def test_classify_dependent_on_interval_with_crossing():
    p = example("ex32")
    prof = classify(p, traj=exact_traj(p, 1.0, 2.0), eps=0.1,
                    grid=np.linspace(1.0, 2.0, 21), seed=0)
    assert prof.classification == "free-structure-dependent"
    assert len(prof.critical_points) == 1
    assert abs(prof.critical_points[0] - HALF_PI) <= 1e-3


def test_classify_independent_before_crossing():
    p = example("ex32")
    prof = classify(p, traj=exact_traj(p, 0.5, 1.0), eps=1.5,
                    grid=np.linspace(0.5, 1.0, 21), seed=0)
    assert prof.classification == "free-structure-independent"
    assert prof.critical_points == []


@pytest.mark.parametrize("a, b, eps", [(0.5, 1.0, 3.0), (1.0, 2.0, 8.0)])
def test_classify_independent_for_exponential_solution(a, b, eps):
    p = example("ex33")
    prof = classify(p, traj=exact_traj(p, a, b), eps=eps,
                    grid=np.linspace(a, b, 21), seed=0)
    assert prof.classification == "free-structure-independent"
    assert prof.critical_points == []
    assert set(prof.nu_at) == {1}


def test_classify_dependent_iff_critical_points():
    cases = [
        (example("ex31"), None, 0.5, None),
        (example("ex32"), exact_traj(example("ex32"), 1.0, 2.0), 0.1,
         np.linspace(1.0, 2.0, 21)),
        (example("ex32"), exact_traj(example("ex32"), 0.5, 1.0), 1.5,
         np.linspace(0.5, 1.0, 21)),
        (example("ex33"), exact_traj(example("ex33"), 1.0, 2.0), 8.0,
         np.linspace(1.0, 2.0, 21)),
    ]
    for p, tr, eps, grid in cases:
        prof = classify(p, traj=tr, eps=eps, grid=grid, seed=0)
        dependent = prof.classification == "free-structure-dependent"
        assert dependent == bool(prof.critical_points)


def test_classify_along_a_bdf_solution():
    sol = _ex32_bdf1()
    prof = classify(example("ex32"), traj=sol, grid=np.linspace(1.0, sol.times[-1], 21))
    assert (prof.classification, prof.nu) == ("free-structure-dependent", 1)
    assert len(prof.critical_points) == 1
    assert abs(prof.critical_points[0] - HALF_PI) <= 1e-5


@pytest.mark.parametrize("name, classification", [
    ("ex34", "well-structure"),
    # the computed branch leaves the exact one at π/2, and with it the
    # critical point: the index depends on the solution followed
    ("ex35", "free-structure-independent"),
])
def test_classify_along_a_collocation_solution(name, classification):
    p = example(name)
    sol, _ = solve_iae(p, CollocationConfig(h=0.025, newton_tol=1e-10))
    prof = classify(p, traj=sol)
    assert (prof.classification, prof.nu) == (classification, 2)


def test_classify_stable_under_trajectory_resampling():
    p = example("ex32")
    grid = np.linspace(1.0, 2.0, 21)
    coarse = TrajectorySample.from_function(p.exact, np.linspace(1.0, 2.0, 101))
    fine = TrajectorySample.from_function(p.exact, np.linspace(1.0, 2.0, 201))
    pa = classify(p, traj=coarse, eps=0.1, grid=grid, seed=0)
    pb = classify(p, traj=fine, eps=0.1, grid=grid, seed=0)
    assert pa.classification == pb.classification
    assert len(pa.critical_points) == len(pb.critical_points)
    for ta, tb in zip(pa.critical_points, pb.critical_points):
        assert abs(ta - tb) <= 1e-3


def test_classify_deterministic_for_fixed_seed():
    p = example("ex32")
    kw = dict(traj=exact_traj(p, 1.0, 2.0), eps=0.1,
              grid=np.linspace(1.0, 2.0, 21), seed=0)
    assert classify(p, **kw).to_dict() == classify(p, **kw).to_dict()


def test_classify_raises_when_index_mostly_undefined():
    bad = SemiNonlinearDAE(
        A=MatrixFunction.constant(np.zeros((2, 2)), domain=(0.0, 1.0)),
        F=lambda t, y: np.zeros(2),
        f=lambda t: np.zeros(2),
        r=2, T=1.0, t_start=0.0,
        F_y=lambda t, y: np.zeros((2, 2) + np.shape(y)[1:]))
    flat = TrajectorySample(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
    with pytest.raises(ClassificationUnreliableError):
        classify(bad, traj=flat, seed=0)


def _nu_jump_dae(conditions=()):
    # the frozen index is 1 while y1 = cos t > 0 and 2 once F_y's corner
    # max(y1, 0) vanishes; det A_1 changes no sign
    return SemiNonlinearDAE(
        A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(1.0, 2.0)),
        F=lambda t, y: np.zeros(2), f=lambda t: np.zeros(2), r=2, T=2.0, t_start=1.0,
        F_y=lambda t, y: np.array([[-2.0 * y[0], -np.exp(y[1])],
                                   [-y[1], -np.maximum(y[0], 0.0)]]),
        exact=lambda t: np.array([np.cos(t), t]), critical_conditions=conditions)


def test_classify_locates_a_jump_of_the_pointwise_index():
    # with no declared conditions, only the bisection of the ν jump finds π/2
    p = _nu_jump_dae()
    grid = np.linspace(1.0, 2.0, 21)
    prof = classify(p, grid=grid)
    assert prof.nu_at == [1 if t < HALF_PI else 2 for t in grid]
    assert prof.classification == "free-structure-dependent"
    assert "pointwise index varies along the trajectory" in prof.evidence
    assert "pointwise index varies across sampled neighborhoods" in prof.evidence
    # bisection of [1.55, 1.6] down to 1e-3
    assert prof.critical_points == [1.570703125]


def test_a_jump_whose_bracket_holds_a_declared_crossing_is_not_bisected():
    # y2 = t crosses 1.58 inside the jump's bracket [1.55, 1.6], so that
    # crossing stands for the jump; bisecting the jump as well would add
    # 1.5707, farther than classify's 2e-3 clustering from 1.58
    prof = classify(_nu_jump_dae((lambda t, y: y[1] - 1.58,)), grid=np.linspace(1.0, 2.0, 21))
    assert prof.classification == "free-structure-dependent"
    assert prof.critical_points == pytest.approx([1.58], abs=TIME_TOL)


def test_classify_rejects_non_finite_eps():
    p = example("ex32")
    with pytest.raises(InvalidInputError, match="eps"):
        classify(p, traj=exact_traj(p, 0.5, 1.0), eps=np.nan,
                 grid=np.linspace(0.5, 1.0, 5))


def test_classify_validates_input():
    p = example("ex32")
    tr = exact_traj(p, 0.5, 1.0)
    with pytest.raises(InvalidInputError):
        classify(p, traj=tr, eps=0.0, grid=np.linspace(0.5, 1.0, 5), seed=0)
