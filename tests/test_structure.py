"""Linearization along trajectories, pointwise index, classification."""

import numpy as np
import pytest

from daekit import (
    ClassificationUnreliableError,
    InvalidInputError,
    MatrixFunction,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    TrajectorySample,
    classify,
    detect_critical_points,
    example,
    frozen_index_report,
    linearize_iae,
    numerical_rank,
    pointwise_index,
)
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
    assert lin.A is p.A
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
        F_y=lambda t, y: m)
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
        kappa_y=lambda t, s, y: m)
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


def test_pointwise_index_full_output_returns_its_report():
    p = example("ex34")
    tr = exact_traj(p)
    nu, rep = pointwise_index(p, tr, 1.5, full_output=True)
    assert nu == rep.nu == pointwise_index(p, tr, 1.5) == 2
    assert rep.to_dict() == frozen_index_report(p, tr(1.5), 1.5, tr).to_dict()


def _classify_ex34_counting_chain_steps(monkeypatch, n_perturb):
    """classify(ex34) on 6 points, and the number of chain_step calls it made."""
    import daekit.chain
    import daekit.structure

    steps = []
    original = daekit.chain.chain_step

    def counted(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(daekit.chain, "chain_step", counted)
    monkeypatch.setattr(daekit.structure, "chain_step", counted)
    prof = classify(example("ex34"), n_perturb=n_perturb, grid=np.linspace(1.0, 2.0, 6))
    return prof, len(steps)


def test_classify_builds_each_centre_chain_once(monkeypatch):
    # ex34 has ν = 2 everywhere: two chain steps per centre report and two
    # for the chain along the trajectory; the centre determinant reuses
    # the report's A_2 instead of building it again
    prof, steps = _classify_ex34_counting_chain_steps(monkeypatch, n_perturb=0)
    assert prof.nu_at == [2] * 6
    assert steps == 2 * 6 + 2


def test_classify_runs_the_ball_samples_through_one_chain_per_point(monkeypatch):
    # the 8 samples of a point add one stacked chain of two steps, whose A_2
    # also gives their 8 determinants (a chain per sample made it 110)
    prof, steps = _classify_ex34_counting_chain_steps(monkeypatch, n_perturb=8)
    assert prof.classification == "well-structure"
    assert steps == 2 * 6 + 2 * 6 + 2


def _ex32_crossing_inside_the_window():
    # ex32 linearized at y1 = η1 + t − π/2: for η1 = 0 the critical condition
    # y1 = 0 holds at the middle window point only
    p = example("ex32")
    F_y = p.F_y
    p.F_y = lambda t, y: F_y(t, y + np.array([t - HALF_PI, 0.0]))
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
def test_stacked_report_equals_single_reports_near_the_critical_point(make, nu_max, eta1,
                                                                     outcomes):
    import daekit.structure

    p = make()
    tr = exact_traj(p)
    etas = [np.array([e, HALF_PI]) for e in eta1]
    reports = frozen_index_report(p, etas, HALF_PI, tr, nu_max=nu_max)
    singles = [frozen_index_report(p, eta, HALF_PI, tr, nu_max=nu_max) for eta in etas]
    assert [(rep.nu, rep.status.kind) for rep in reports] == outcomes
    assert [float_bits(rep.to_dict()) for rep in reports] == \
        [float_bits(rep.to_dict()) for rep in singles]
    # every sample's det A_ν(π/2) from one stacked det, for each ν that
    # classify may compare against
    longest = max(reports, key=lambda rep: len(rep.levels))
    for nu in (1, 2):
        dets = daekit.structure._final_det(longest, nu, HALF_PI, 1e-10)
        assert dets.tobytes() == np.array(
            [daekit.structure._final_det(rep, nu, HALF_PI, 1e-10) for rep in singles]).tobytes()


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
    # ex34's ν = 2 chain on 9 points calls κ_y 9 times for k_0(grid, grid)
    # and 47 times for k_1(grid, grid) (k_0 at the 9 points and at their 38
    # stencil points); evaluating A_1(grid) again for A_2(grid) adds 9
    p = example("ex34")
    tr = exact_traj(p)
    calls = []
    kappa_y = p.kappa_y

    def counted(*args):
        calls.append(1)
        return kappa_y(*args)

    monkeypatch.setattr(p, "kappa_y", counted)
    rep = frozen_index_report(p, tr(1.5), 1.5, tr)
    assert rep.nu == 2
    assert len(calls) == 56
    # the levels' grid data equal a fresh evaluation of each level on the grid
    for lev in rep.levels:
        whole = lev.A(rep.grid)
        assert numerical_rank(whole).tolist() == [lev.rank] * rep.grid.size
        assert np.array([d for _, d in lev.det_sample]).tobytes() == \
            np.linalg.det(whole).tobytes()


# --- critical point detection ---------------------------------------------

def test_detect_critical_points_finds_cosine_zero():
    p = example("ex32")
    crits = detect_critical_points(exact_traj(p, 1.0, 2.0),
                                   p.critical_conditions)
    assert len(crits) == 1
    t_crit, cond_id = crits[0]
    assert cond_id == 0
    assert abs(t_crit - HALF_PI) <= 1e-6


def test_detect_critical_points_unrefined_stays_on_grid():
    p = example("ex32")
    crits = detect_critical_points(exact_traj(p, 1.0, 2.0),
                                   p.critical_conditions, refine=False)
    assert len(crits) == 1
    assert abs(crits[0][0] - HALF_PI) <= 5e-3


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


def test_detect_critical_points_requires_conditions():
    p = example("ex32")
    with pytest.raises(InvalidInputError):
        detect_critical_points(exact_traj(p, 1.0, 2.0), ())


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
        F_y=lambda t, y: np.zeros((2, 2)))
    flat = TrajectorySample(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)))
    with pytest.raises(ClassificationUnreliableError):
        classify(bad, traj=flat, seed=0)


def test_classify_locates_a_jump_of_the_pointwise_index():
    # the frozen index is 1 while y1 = cos t > 0 and 2 once F_y's corner
    # max(y1, 0) vanishes; with no declared conditions and no sign change
    # of det A_1, only the bisection of the ν jump finds π/2
    p = SemiNonlinearDAE(
        A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(1.0, 2.0)),
        F=lambda t, y: np.zeros(2), f=lambda t: np.zeros(2), r=2, T=2.0, t_start=1.0,
        F_y=lambda t, y: np.array([[-2.0 * y[0], -np.exp(y[1])],
                                   [-y[1], -max(y[0], 0.0)]]),
        exact=lambda t: np.array([np.cos(t), t]))
    grid = np.linspace(1.0, 2.0, 21)
    prof = classify(p, grid=grid)
    assert prof.nu_at == [1 if t < HALF_PI else 2 for t in grid]
    assert prof.classification == "free-structure-dependent"
    assert "pointwise index varies along the trajectory" in prof.evidence
    assert "pointwise index varies across sampled neighborhoods" in prof.evidence
    # bisection of [1.55, 1.6] down to 1e-3
    assert prof.critical_points == [1.570703125]


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
    with pytest.raises(InvalidInputError):
        classify(p, traj=tr, n_perturb=-1, grid=np.linspace(0.5, 1.0, 5), seed=0)
