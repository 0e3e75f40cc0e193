"""End-to-end acceptance checks, one per shipped claim.

Every test prints a single [criterion NN] PASS/FAIL line with the measured
numbers before asserting, so a full run doubles as a checklist.

Criterion 05 checks BDF1 on ex33 against first-order error theory.  With
y2 = t e^t / y1 eliminated, the reduced equation has Jacobian 2e^t - t
along the exact solution, so the global error is about h C(T) with
C(T) = 1/2 int_0^T exp(L(T) - L(s)) e^s ds and L(s) = 2e^s - s^2/2.  On
[0, 1] C = 5.0 and the measured error matches h C; on [0, 2] C = 1.35e4,
which no fixed step in the tested range can meet (the truncation there is
asserted in test_bdf.py).
"""

import numpy as np
import pytest

from daekit import (
    CollocationConfig,
    DaeSolveConfig,
    MatrixFunction,
    SemiNonlinearIAE,
    TrajectorySample,
    classify,
    consistency_check,
    dae_to_iae,
    example,
    monitor,
    pointwise_index,
    rank_degree_index,
    rhs_chain,
    semi_inverse,
    solve_dae,
    solve_iae,
    residual as iae_residual,
    LinearDAE,
)
from daekit.cli import main as cli_main
from daekit.structure import linearize_iae
from helpers import (
    PAIR_A,
    PAIR_K,
    exact_traj,
    fmat,
    fnp,
    frac_chain_constant,
    random_fixed_rank,
)

HALF_PI = np.pi / 2.0


def report(num, passed, detail):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    return passed


def test_criterion_01_semi_inverse_random_rank_classes():
    rng = np.random.default_rng(20260822)
    worst_eq = 0.0
    worst_proj = 0.0
    n_checked = 0
    rank_ok = True
    for r in range(1, 7):
        for rank in range(0, r + 1):
            for _ in range(1000):
                m = random_fixed_rank(rng, r, rank)
                res = semi_inverse(m)
                scale = max(1.0, np.linalg.norm(m))
                eq = np.linalg.norm(m @ res.a_minus @ m - m) / scale
                proj = np.linalg.norm(res.projector @ m) / scale
                worst_eq = max(worst_eq, eq)
                worst_proj = max(worst_proj, proj)
                rank_ok = rank_ok and (res.rank == rank)
                n_checked += 1
    passed = worst_eq <= 1e-10 and worst_proj <= 1e-10 and rank_ok
    detail = (f"{n_checked} matrices, worst semi-inverse residual {worst_eq:.2e}, "
              f"worst projector leak {worst_proj:.2e}, ranks all exact: {rank_ok}")
    assert report(1, passed, detail), detail


def test_criterion_02_constant_pair_chain_matches_exact_arithmetic():
    exact_levels, exact_nu = frac_chain_constant(PAIR_A, PAIR_K)
    a = MatrixFunction.constant(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                domain=(0.0, 1.0))
    rep = rank_degree_index(a, lambda t, s: np.array([[0.0, 1.0], [1.0, 0.0]]))
    gap = max(np.max(np.abs(rep.levels[2].A(t) - fnp(exact_levels[2])))
              for t in (0.0, 0.5, 1.0))
    passed = rep.nu == 2 and exact_nu == 2 and gap <= 1e-10
    detail = (f"nu={rep.nu} (exact arithmetic: {exact_nu}), "
              f"max |A2 - exact| = {gap:.2e}")
    assert report(2, passed, detail), detail


def test_criterion_03_pointwise_index_and_well_structure():
    p32 = example("ex32")
    n_smooth = pointwise_index(p32, exact_traj(p32, 0.5, 1.0), 0.7)
    grid = np.union1d(np.linspace(1.0, 2.0, 201), [HALF_PI])
    tr = TrajectorySample.from_function(p32.exact, grid)
    n_crit = pointwise_index(p32, tr, HALF_PI)
    p34 = example("ex34")
    tr34 = exact_traj(p34)
    nus = {pointwise_index(p34, tr34, t) for t in np.linspace(1.0, 2.0, 21)}
    prof = classify(example("ex31"), eps=0.5, seed=0)
    passed = (n_smooth == 1 and n_crit == 2 and nus == {2}
              and prof.classification == "well-structure" and prof.nu == 2)
    detail = (f"index(ex32@0.7)={n_smooth}, index(ex32@pi/2)={n_crit}, "
              f"index(ex34 on [1,2])={sorted(nus)}, "
              f"classify(ex31)={prof.classification} index {prof.nu}")
    assert report(3, passed, detail), detail


def test_criterion_04_classification_and_critical_points():
    p32, p33 = example("ex32"), example("ex33")
    dep = classify(p32, traj=exact_traj(p32, 1.0, 2.0), eps=0.1,
                   grid=np.linspace(1.0, 2.0, 21), seed=0)
    crit_err = (abs(dep.critical_points[0] - HALF_PI)
                if dep.critical_points else np.inf)
    indep = classify(p32, traj=exact_traj(p32, 0.5, 1.0), eps=1.5,
                     grid=np.linspace(0.5, 1.0, 21), seed=0)
    i33a = classify(p33, traj=exact_traj(p33, 0.5, 1.0), eps=3.0,
                    grid=np.linspace(0.5, 1.0, 21), seed=0)
    i33b = classify(p33, traj=exact_traj(p33, 1.0, 2.0), eps=8.0,
                    grid=np.linspace(1.0, 2.0, 21), seed=0)
    passed = (dep.classification == "free-structure-dependent"
              and crit_err <= 1e-3
              and indep.classification == "free-structure-independent"
              and not indep.critical_points
              and i33a.classification == "free-structure-independent"
              and not i33a.critical_points
              and i33b.classification == "free-structure-independent"
              and not i33b.critical_points)
    detail = (f"ex32[1,2]: {dep.classification}, crit off pi/2 by {crit_err:.1e}; "
              f"ex32[0.5,1]: {indep.classification}; "
              f"ex33: {i33a.classification} / {i33b.classification}")
    assert report(4, passed, detail), detail


def test_criterion_05_bdf1_accuracy_and_first_order_convergence():
    from scipy.integrate import quad
    hs = [4e-3, 2e-3, 1e-3, 5e-4]

    def sweep(p, interval):
        errs = []
        for h in hs:
            sol = solve_dae(p, DaeSolveConfig(h=h), interval=interval)
            exact = np.array([p.exact(t) for t in sol.times])
            errs.append(float(np.max(np.abs(np.asarray(sol.values) - exact))))
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        return errs, order

    def error_constant(T):
        # BDF1 global error ~ h C(T) for ex33 (Hairer, Norsett & Wanner I,
        # sections I.10 and II.3): y'' = e^s, Jacobian 2e^s - s
        lam = lambda s: 2.0 * np.exp(s) - s * s / 2.0
        return 0.5 * quad(lambda s: np.exp(lam(T) - lam(s) + s), 0.0, T)[0]

    errs32, order32 = sweep(example("ex32"), (0.5, 1.0))
    errs33, order33 = sweep(example("ex33"), (0.0, 1.0))
    c1, c2 = error_constant(1.0), error_constant(2.0)
    ratios = [e / (h * c1) for e, h in zip(errs33, hs)]
    ok32 = errs32[2] <= 5e-3 and 0.9 <= order32 <= 1.1
    ok33 = (errs33[2] <= 2e-2 and 0.9 <= order33 <= 1.1
            and all(0.8 <= q <= 1.25 for q in ratios))
    detail = (f"ex32[0.5,1]: err(h=1e-3)={errs32[2]:.2e} (<=5e-3), "
              f"order {order32:.3f}; "
              f"ex33[0,1]: err(h=1e-3)={errs33[2]:.2e} (<=2e-2), "
              f"order {order33:.3f}, measured/(h C(1)) in "
              f"[{min(ratios):.3f}, {max(ratios):.3f}] (within [0.8, 1.25]); "
              f"on [0,2] first-order theory predicts err(h=1e-3) ~ "
              f"{1e-3 * c2:.1f} (C(2)={c2:.3g}), out of reach at these steps")
    report(5, ok32 and ok33, detail)
    assert ok32, detail
    assert ok33, detail


def test_criterion_06_monitor_flags_breakdown_at_the_crossing():
    p = example("ex32")
    sol = solve_dae(p, DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    warn_ts = [w.t for w in monitor(sol, p.critical_conditions)]
    flagged = bool(warn_ts) and abs(min(warn_ts) - HALF_PI) <= 0.05
    newton_failed_after = (sol.failure is not None
                           and sol.failure["t"] > HALF_PI)
    times = np.asarray(sol.times)
    vals = np.asarray(sol.values)
    exact = np.array([p.exact(t) for t in times])
    errs = np.linalg.norm(vals - exact, axis=1)
    early = errs[(times >= 1.0) & (times <= 1.5)].max()
    late_mask = (times >= 1.6) & (times <= 2.0)
    late = errs[late_mask].max() if late_mask.any() else np.nan
    ratio = late / early if np.isfinite(late) else np.inf
    blew_up = (not np.isfinite(ratio)) or ratio >= 10.0
    passed = flagged and (newton_failed_after or blew_up)
    detail = (f"first warning at t={min(warn_ts):.3f} (pi/2={HALF_PI:.3f}), "
              f"failure={sol.failure is not None} at "
              f"t={sol.failure['t'] if sol.failure else None}, "
              f"late/early error ratio={ratio if np.isfinite(ratio) else 'inf'}")
    assert report(6, passed, detail), detail


def test_criterion_07_collocation_solves_the_index2_integral_problem():
    p = example("ex34")
    sol, diag = solve_iae(p, CollocationConfig())
    half, diag_half = solve_iae(p, CollocationConfig(h=0.0125))
    grid = np.linspace(1.0, 2.0, 201)
    err = max(np.max(np.abs(sol(t) - p.exact(t))) for t in grid)
    err_half = max(np.max(np.abs(half(t) - p.exact(t))) for t in grid)

    one = MatrixFunction.constant(np.eye(1), domain=(0.0, 1.0))
    scalar = SemiNonlinearIAE(
        A=one, kappa=lambda t, s, y: np.array([y[0]]),
        f=lambda t: np.array([1.0]), r=1, T=1.0, t_start=0.0,
        kappa_y=lambda t, s, y: np.multiply.outer(np.eye(1), np.ones_like(y[0])))
    oerrs = []
    ohs = (0.1, 0.05)
    for h in ohs:
        osol, _ = solve_iae(scalar, CollocationConfig(h=h))
        oerrs.append(max(abs(osol(t)[0] - np.exp(-t))
                         for t in np.linspace(0.0, 1.0, 101)))
    oracle_order = float(np.log2(oerrs[0] / oerrs[1]))
    passed = (diag["failure"] is None and diag_half["failure"] is None
              and err_half < err and oracle_order >= 2.0)
    detail = (f"ex34 completes, err {err:.2e} -> {err_half:.2e} under h/2, "
              f"scalar second-kind oracle order {oracle_order:.2f}")
    assert report(7, passed, detail), detail


def test_criterion_08_converged_residuals_do_not_imply_accuracy():
    p = example("ex35")
    sol, diag = solve_iae(p, CollocationConfig())
    times = sol.collocation_times()
    errs = np.array([np.linalg.norm(sol(t) - p.exact(t)) for t in times])
    early = errs[(times >= 1.0) & (times <= 1.5)].max()
    late = errs[(times >= 1.6) & (times <= 2.0)].max()
    res = float(np.max(np.abs(iae_residual(p, sol, times))))
    passed = (late / early >= 10.0) and res <= 1e-8
    detail = (f"error ratio late/early = {late / early:.2e} (>=10) while "
              f"collocation residual {res:.2e} (<=1e-8)")
    assert report(8, passed, detail), detail


def _linearized_growing_iae():
    from scipy.integrate import quad
    p = example("ex34")
    lin = linearize_iae(p, exact_traj(p))
    z = p.exact
    cache = {}

    def induced_f(t):
        got = cache.get(t)
        if got is None:
            integ = np.array([
                quad(lambda s, i=i: float((lin.k(t, s) @ z(s))[i]),
                     1.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                for i in range(2)])
            got = lin.A(t) @ z(t) + integ
            cache[t] = got
        return got

    rep = rank_degree_index(lin.A, lin.k, grid=np.linspace(1.0, 2.0, 33))
    return rep, induced_f


def test_criterion_09_consistency_conditions():
    a = MatrixFunction.constant(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                domain=(0.0, 1.0))
    rep0 = rank_degree_index(a, lambda t, s: np.array([[0.0, 1.0], [1.0, 0.0]]))
    trivial = consistency_check(
        rep0.levels, rhs_chain(lambda t: np.zeros(2), rep0.levels))

    rep, induced_f = _linearized_growing_iae()
    good = consistency_check(rep.levels, rhs_chain(induced_f, rep.levels))
    shift = np.array([0.0, 1.0])
    bad = consistency_check(
        rep.levels, rhs_chain(lambda t: induced_f(t) + shift, rep.levels))
    passed = trivial.ok and good.ok and not bad.ok
    detail = (f"zero rhs: max defect {max(trivial.defects):.1e}; "
              f"constructed consistent system: max defect "
              f"{max(good.defects):.1e} (<=1e-6); "
              f"perturbed start data: max defect {max(bad.defects):.1e} (FAILS)")
    assert report(9, passed, detail), detail


def test_criterion_10_reduction_to_integral_form_preserves_the_index():
    cases = [(np.eye(2), np.zeros((2, 2)), 0),
             (np.array([[1.0, 0.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [0.0, 1.0]]), 1),
             (np.array([[1.0, 0.0], [0.0, 0.0]]),
              np.array([[0.0, 1.0], [1.0, 0.0]]), 2)]
    got = []
    ok = True
    for a, b, want in cases:
        p = LinearDAE(A=MatrixFunction.constant(a, domain=(0.0, 1.0)),
                      B=MatrixFunction.constant(b, domain=(0.0, 1.0)),
                      f=lambda t: np.zeros(2), y0=None, r=2, T=1.0)
        q = dae_to_iae(p)
        nu = rank_degree_index(q.A, q.k, grid=np.linspace(0.0, 1.0, 11)).nu
        _, nu_exact = frac_chain_constant(fmat(a.astype(int).tolist()),
                                          fmat(b.astype(int).tolist()))
        got.append(nu)
        ok = ok and nu == want == nu_exact
    detail = f"reduced indices {got}, expected [0, 1, 2], exact chain agrees"
    assert report(10, ok, detail), detail


def test_criterion_11_reproduction_runs_are_byte_identical(tmp_path, capsys):
    figures = [f"fig{i}" for i in range(1, 6)]
    identical = []
    for fig in figures:
        d1, d2 = tmp_path / f"{fig}-a", tmp_path / f"{fig}-b"
        assert cli_main(["reproduce", fig, "--out", str(d1)]) == 0
        assert cli_main(["reproduce", fig, "--out", str(d2)]) == 0
        same = ((d1 / f"{fig}.csv").read_bytes() == (d2 / f"{fig}.csv").read_bytes()
                and (d1 / f"{fig}-summary.json").read_bytes()
                == (d2 / f"{fig}-summary.json").read_bytes())
        identical.append(same)
    capsys.readouterr()
    passed = all(identical)
    detail = ("fixed-seed reruns byte-identical for "
              + ", ".join(f"{f}={s}" for f, s in zip(figures, identical)))
    assert report(11, passed, detail), detail
