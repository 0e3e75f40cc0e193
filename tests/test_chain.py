"""Index chain: reduction steps, rank-degree index, consistency conditions.

The floating-point chain is checked against an exact rational-arithmetic
oracle (helpers.frac_chain_constant) wherever the data is constant.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from daekit import (
    ChainLevel,
    CollocationConfig,
    DaeSolveConfig,
    InconsistentChainError,
    InvalidInputError,
    LinearDAE,
    MatrixFunction,
    TrajectorySample,
    chain_step,
    consistency_check,
    dae_to_iae,
    linearize_iae,
    matfn_derivative,
    rank_degree_index,
    rhs_chain,
    example,
    numerical_rank,
    semi_inverse,
    available,
    classify,
    solve_dae,
    SemiNonlinearIAE,
    solve_iae,
    verify_exact,
)
from daekit.chain import linear_kernel
from helpers import (
    PAIR_A,
    PAIR_K,
    exact_traj,
    float_bits,
    fmat,
    fmat_add,
    fmat_eye,
    fmat_mul,
    fmat_pinv,
    fmat_sub,
    fnp,
    frac_chain_constant,
)

A_SING = np.array([[1.0, 0.0], [0.0, 0.0]])
K_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _const_pair(domain=(0.0, 1.0)):
    a = MatrixFunction.constant(A_SING, domain=domain, name="A")
    k = lambda t, s: K_SWAP  # noqa: E731
    return a, k


# --- the exact-arithmetic oracle itself ----------------------------------

def test_oracle_chain_levels():
    levels, nu = frac_chain_constant(PAIR_A, PAIR_K)
    assert nu == 2
    np.testing.assert_array_equal(fnp(levels[1]), [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(fnp(levels[2]), [[0.5, 0.5], [1.5, -0.5]])
    np.testing.assert_array_equal(fnp(fmat_pinv(levels[1])),
                                  [[0.5, 0.5], [0.0, 0.0]])


def test_oracle_pinv_satisfies_penrose_conditions():
    for m in (PAIR_A, fmat([[1, 0], [1, 0]]), fmat([[2, 1], [4, 2]]), PAIR_K):
        p = fmat_pinv(m)
        assert fmat_mul(fmat_mul(m, p), m) == m
        assert fmat_mul(fmat_mul(p, m), p) == p


# --- chain_step -----------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: semi_inverse(np.eye(2), tol=1e-10),
    lambda: numerical_rank(np.eye(2), tol=1e-10),
    lambda: chain_step(*_const_pair(), tol=1e-10),
    lambda: rank_degree_index(*_const_pair(), tol=1e-10),
    lambda: consistency_check(rank_degree_index(*_const_pair()).levels,
                              [lambda t: np.zeros(2)] * 3, tol=1e-6),
], ids=["semi_inverse", "numerical_rank", "chain_step", "rank_degree_index",
        "consistency_check"])
def test_no_rank_or_consistency_tolerance_is_a_parameter(call):
    # every rank decision uses linalg.DEFAULT_RANK_TOL, every consistency
    # verdict chain.CONSISTENCY_TOL
    with pytest.raises(TypeError, match="tol"):
        call()


def test_chain_step_constant_pair_first_level():
    a0, k0 = _const_pair()
    a1, k1 = chain_step(a0, k0)
    np.testing.assert_allclose(a1(0.3), [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
    # constant projector: the derivative term vanishes, k1 == k0
    np.testing.assert_allclose(k1(0.3, 0.1), K_SWAP, atol=1e-10)


def test_chain_step_second_level_matches_exact_oracle():
    a0, k0 = _const_pair()
    a1, k1 = chain_step(a0, k0)
    a2, _ = chain_step(a1, k1)
    exact = fnp(frac_chain_constant(PAIR_A, PAIR_K)[0][2])
    for t in (0.0, 0.25, 0.5, 1.0):
        np.testing.assert_allclose(a2(t), exact, atol=1e-10)
        assert abs(np.linalg.det(a2(t)) - (-1.0)) <= 1e-9


# --- rank_degree_index ----------------------------------------------------

def test_index_zero_for_identity():
    a = MatrixFunction.constant(np.eye(2), domain=(0.0, 1.0))
    rep = rank_degree_index(a, lambda t, s: K_SWAP)
    assert rep.nu == 0
    assert rep.status.ok
    assert len(rep.levels) == 1  # the chain is never entered


def test_index_zero_for_any_nonsingular_leading_matrix():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        k = rng.standard_normal((3, 3))
        a = MatrixFunction.constant(m, domain=(0.0, 1.0))
        assert rank_degree_index(a, lambda t, s, k=k: k).nu == 0


def test_index_two_for_constant_pair():
    a, k = _const_pair()
    rep = rank_degree_index(a, k, grid=np.linspace(0.0, 1.0, 11))
    assert rep.nu == 2
    assert [lev.rank for lev in rep.levels] == [1, 1, 2]
    np.testing.assert_allclose(rep.levels[2].A(0.5),
                               fnp(frac_chain_constant(PAIR_A, PAIR_K)[0][2]),
                               atol=1e-10)


def test_index_two_for_integral_kernel_along_growing_solution():
    # Jacobian kernel of the ex34 rows frozen along (e^s, s)
    def kern(t, s):
        return np.array([[2.0 * s * np.exp(s), (np.exp(2.0 * s) + 2.0) + np.exp(s)],
                         [2.0 * np.exp(s), 0.0]])

    a = MatrixFunction.constant(A_SING, domain=(1.0, 2.0))
    rep = rank_degree_index(a, kern, grid=np.linspace(1.0, 2.0, 33))
    assert rep.nu == 2


def test_exceeded_max_level_status():
    a = MatrixFunction.constant(np.zeros((2, 2)), domain=(0.0, 1.0))
    rep = rank_degree_index(a, lambda t, s: np.zeros((2, 2)))
    assert rep.nu is None
    assert rep.status.kind == "exceeded-max-level"
    assert len(rep.levels) == 5


def test_non_constant_rank_status():
    a = MatrixFunction(eval=lambda t: np.array([[t, 0.0], [0.0, 1.0]]),
                       domain=(0.0, 1.0))
    rep = rank_degree_index(a, lambda t, s: K_SWAP,
                            grid=np.linspace(0.0, 1.0, 11))
    assert rep.nu is None
    assert rep.status.kind == "non-constant-rank"
    assert rep.status.level == 0


def test_grid_validation():
    a, k = _const_pair()
    with pytest.raises(InvalidInputError):
        rank_degree_index(a, k, grid=np.array([]))
    with pytest.raises(InvalidInputError):
        rank_degree_index(a, k, grid=np.array([0.5, 0.2]))


def test_chain_determinism():
    a, k = _const_pair()
    r1 = rank_degree_index(a, k, grid=np.linspace(0.0, 1.0, 11))
    r2 = rank_degree_index(*_const_pair(), grid=np.linspace(0.0, 1.0, 11))
    assert r1.to_dict() == r2.to_dict()


def test_chain_determinism_with_finite_differences():
    p = example("ex34")
    lin1 = linearize_iae(p, exact_traj(p))
    lin2 = linearize_iae(p, exact_traj(p))
    grid = np.linspace(1.0, 2.0, 9)
    d1 = rank_degree_index(lin1.A, lin1.k, grid=grid).to_dict()
    d2 = rank_degree_index(lin2.A, lin2.k, grid=grid).to_dict()
    assert d1 == d2


def test_semi_inverse_choice_does_not_change_index():
    # any A^- = pinv + (E - pinv A) W satisfies A A^- A = A; the index must
    # not depend on which one the chain uses (100 random W, exact arithmetic)
    rng = np.random.default_rng(42)
    for _ in range(100):
        w = fmat([[rng.standard_normal() for _ in range(2)] for _ in range(2)])

        def randomized(m, w=w):
            p = fmat_pinv(m)
            return fmat_add(p, fmat_mul(fmat_sub(fmat_eye(2), fmat_mul(p, m)), w))

        # check the semi-inverse identity exactly, then rerun the chain
        for m in (PAIR_A, fmat([[1, 0], [1, 0]])):
            am = randomized(m)
            assert fmat_mul(fmat_mul(m, am), m) == m
        _, nu = frac_chain_constant(PAIR_A, PAIR_K, semi_inverse_of=randomized)
        assert nu == 2


# --- whole-grid evaluation -------------------------------------------------

def _t_dependent_pair():
    # the range of A(t) turns with t, so the projector V_0(t) does too
    a = MatrixFunction(eval=lambda t: np.array([[1.0, 0.0], [t, 0.0]]), domain=(0.0, 1.0))
    return a, lambda t, s: np.array([[0.0, 1.0], [0.0, s]])


def _hessenberg4_pair():
    # y_i' + b y_{i+1} = 0 (i < 4), b y_1 = sin t with b = 1 + t/2: index 4
    shift = np.roll(np.eye(4), 1, axis=1)
    q = dae_to_iae(LinearDAE(
        A=MatrixFunction.constant(np.diag([1.0, 1.0, 1.0, 0.0]), domain=(0.0, 1.0)),
        B=MatrixFunction(eval=lambda t: (1.0 + 0.5 * t) * shift, domain=(0.0, 1.0)),
        f=lambda t: np.array([0.0, 0.0, 0.0, np.sin(t)]), y0=None, r=4, T=1.0))
    return q.A, q.k


@pytest.mark.parametrize("pair, nu", [(_t_dependent_pair, 2), (_hessenberg4_pair, 4)],
                         ids=["t-dependent", "hessenberg4"])
def test_levels_on_a_grid_equal_point_by_point_evaluation(pair, nu):
    # both endpoints, so one-sided and central stencils meet in one call
    grid = np.linspace(0.0, 1.0, 9)
    rep = rank_degree_index(*pair(), grid=grid)
    assert rep.nu == nu
    s = grid[::-1].copy()
    for lev in rep.levels[1:]:
        whole = lev.A(grid)
        assert whole.tobytes() == np.stack([lev.A(t) for t in grid]).tobytes()
        assert lev.det.tobytes() == np.linalg.det(whole).tobytes()
        assert lev.k(grid, s).tobytes() == \
            np.stack([lev.k(t, u) for t, u in zip(grid, s)]).tobytes()
        assert semi_inverse(lev.A(grid)).projector.tobytes() == \
            np.stack([semi_inverse(lev.A(t)).projector for t in grid]).tobytes()


def test_a_sample_axis_gives_each_sample_the_report_of_its_own_chain():
    # three kernels that stop the chain at three different places
    kernels = [lambda t, s: K_SWAP,                                  # ν = 2
               lambda t, s: np.zeros((2, 2)),                         # never regular
               lambda t, s: np.array([[0.0, 0.0], [0.0, t - 0.5]])]   # A_1(0.5) singular
    a = MatrixFunction.constant(A_SING)
    a_stack = MatrixFunction(eval=lambda t: np.repeat(a(t)[:, None], 3, axis=1),
                             domain=a.domain, vectorized=True)
    grid = np.linspace(0.0, 1.0, 11)
    reports = rank_degree_index(a_stack, lambda t, s: np.stack([k(t, s) for k in kernels]),
                                grid=grid)
    assert [str(rep.status) for rep in reports] == [
        "ok", "exceeded-max-level(4)", "non-constant-rank-at(level=1, t=0.5)"]
    for rep, k in zip(reports, kernels):
        assert float_bits(rep.to_dict()) == \
            float_bits(rank_degree_index(a, k, grid=grid).to_dict())


def test_a_windowed_chain_gives_each_window_the_report_of_its_own_chain():
    # three windows as the rows of one grid on one domain, the last one at
    # its end; row w passes w as the last argument of A, k and every level
    a, k = _t_dependent_pair()
    rows = MatrixFunction(eval=lambda t, w: a(t), domain=a.domain, vectorized=True)
    k_w = lambda t, s, w: (1.0 + w) * k(t, s)  # noqa: E731
    grids = np.linspace([0.0, 0.2, 0.9998], [0.3, 0.6, 1.0], 5, axis=-1)
    reports = rank_degree_index(rows, k_w, grid=grids)
    singles = [rank_degree_index(a, lambda t, s, c=1.0 + w: c * k(t, s), grid=g)
               for w, g in enumerate(grids)]
    assert [rep.nu for rep in reports] == [2, 2, 2]
    assert [float_bits(rep.to_dict()) for rep in reports] == \
        [float_bits(rep.to_dict()) for rep in singles]
    assert reports[1].levels[2].A(grids[1], 1).tobytes() == \
        singles[1].levels[2].A(grids[1]).tobytes()


def test_a_level_makes_one_call_of_the_level_below(monkeypatch):
    # A_4 and k_3 of the index-4 pair: one call of level 0's A and kernel,
    # one projector per level above it
    import daekit.chain

    a, k = _hessenberg4_pair()
    calls = []

    def spied(name, fn):
        return replace(fn, eval=lambda *args: calls.append(name) or fn.eval(*args))

    rep = rank_degree_index(spied("A", a), spied("kernel", k))
    assert rep.nu == 4
    projectors = []
    projector = daekit.chain.projector
    monkeypatch.setattr(daekit.chain, "projector",
                        lambda m: projectors.append(m.shape) or projector(m))
    grid = np.linspace(0.0, 1.0, 5)
    for level, evaluate in [(4, lambda: rep.levels[4].A(0.0)),
                            (4, lambda: rep.levels[4].A(grid)),
                            (3, lambda: rep.levels[3].k(grid, grid[::-1]))]:
        calls.clear()
        projectors.clear()
        evaluate()
        assert sorted(calls) == ["A", "kernel"]
        assert len(projectors) == level


def test_a_linear_dae_kernel_evaluates_b_once_per_distinct_s():
    seen = []

    def b(t):
        seen.append(t)
        return np.array([[1.0 + t, 0.0], [t * t, 2.0]])

    domain = (-1.0, 1.0)
    p = LinearDAE(A=MatrixFunction(eval=lambda t: np.array([[t, 0.0], [0.0, 0.0]]), domain=domain),
                  B=MatrixFunction(eval=b, domain=domain), f=lambda t: np.zeros(2), y0=None,
                  r=2, T=1.0, t_start=-1.0)
    k = linear_kernel(p)
    s = np.array([0.5, -0.0, 0.5, 0.0, 0.25, 0.5, -0.0])
    t = np.linspace(-1.0, 1.0, s.size)
    got = k(t, s)
    # ±0.0 are two times
    assert sorted(float(u).hex() for u in seen) == sorted(float(u).hex()
                                                          for u in (0.5, -0.0, 0.0, 0.25))
    assert got.tobytes() == np.stack([k(ti, si) for ti, si in zip(t, s)]).tobytes()


def test_a_windowed_chain_with_samples_equals_each_rows_own_chain_to_the_bit():
    # levels 1-4 at times reaching both ends of the domain, so central,
    # forward and backward stencils meet in one call: row w, sample j
    # equals the chain frozen at eta[w, j], and each array call equals its
    # float calls
    p = example("ex34")
    lo, hi = p.A.domain
    eta = exact_traj(p)(np.array([[1.2, 1.4, 1.6], [1.3, 1.5, 1.9]]))   # (W, S, r)
    rows = MatrixFunction(eval=lambda ts, *w: p.A(ts)[:, None], domain=p.A.domain,
                          vectorized=True)
    times = np.linspace(lo, hi, 7)
    s = times[::-1].copy()
    windowed = [(rows, linear_kernel(p, eta))]
    singles = {(w, j): [(p.A, linear_kernel(p, eta[w, j]))] for w in range(2) for j in range(3)}
    for chain in [windowed, *singles.values()]:
        for _ in range(4):
            chain.append(chain_step(*chain[-1]))
    for level in range(1, 5):
        A_i, k_i = windowed[level]
        for w in range(2):
            ws = np.full(times.size, w)
            a_rows, k_rows = A_i(times, ws), k_i(times, s, ws)
            assert a_rows.tobytes() == np.stack([A_i(t, w) for t in times]).tobytes()
            assert k_rows.tobytes() == np.stack([k_i(t, u, w) for t, u in zip(times, s)]).tobytes()
            for j in range(3):
                A_one, k_one = singles[w, j][level]
                assert a_rows[:, j].tobytes() == A_one(times).tobytes()
                assert k_rows[:, j].tobytes() == k_one(times, s).tobytes()


def test_a_non_finite_level_above_0_is_a_typed_error():
    # a finite kernel whose third derivative overflows: A_3 is not finite
    # at t = 0, so neither is the stack of it that A_4 projects
    a = MatrixFunction.constant(A_SING)
    levels = [(a, lambda t, s: np.array([[0.0, 0.0], [1e306 * np.sin(40.0 * t), 0.0]]))]
    for _ in range(4):
        levels.append(chain_step(*levels[-1]))
    grid = np.linspace(0.0, 1.0, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(levels[2][0](grid)).all()
        for A_i, _ in levels[3:]:
            with pytest.raises(InvalidInputError, match=r"^non-finite matrix function at t=0\.0$"):
                A_i(grid)


def test_chain_levels_take_a_scalar_s_with_an_array_t():
    a1, k1 = chain_step(*_t_dependent_pair())
    grid = np.linspace(0.0, 1.0, 5)
    assert k1(grid, 0.3).tobytes() == np.stack([k1(t, 0.3) for t in grid]).tobytes()
    assert a1(grid).shape == (5, 2, 2)


def test_a_kernel_or_f_marked_vectorized_is_still_called_per_point():
    seen = []

    def k(t, s):
        seen.append((type(t), type(s)))
        return K_SWAP

    def f(t):
        seen.append((type(t),))
        return np.array([np.sin(t), 1.0])

    k.vectorized = f.vectorized = True
    a = MatrixFunction.constant(A_SING)
    grid = np.linspace(0.0, 1.0, 5)
    rep = rank_degree_index(a, k, grid=grid)
    assert rep.nu == 2
    fns = rhs_chain(f, rep.levels)
    assert fns[2](grid).shape == (5, 2)
    assert seen and set(seen) <= {(float, float), (float,)}
    assert (float,) in seen


def test_chain_levels_kernels_and_rhs_are_matrix_functions():
    rep = rank_degree_index(*_const_pair())
    assert all(isinstance(lev.k, MatrixFunction) for lev in rep.levels)
    assert all(lev.A.vectorized and lev.k.vectorized for lev in rep.levels[1:])
    assert not rep.levels[0].k.vectorized
    fns = rhs_chain(lambda t: np.zeros(2), rep.levels)
    assert all(isinstance(fn, MatrixFunction) and fn.domain == (0.0, 1.0) for fn in fns)
    assert isinstance(linear_kernel(example("ex32"), np.array([1.0, 0.5])), MatrixFunction)


# --- rhs_chain ------------------------------------------------------------

def test_rhs_chain_zero_propagates():
    a, k = _const_pair()
    rep = rank_degree_index(a, k)
    fns = rhs_chain(lambda t: np.zeros(2), rep.levels)
    assert len(fns) == 3
    for fn in fns:
        for t in (0.0, 0.5, 1.0):
            np.testing.assert_allclose(fn(t), np.zeros(2), atol=1e-12)


def test_rhs_chain_is_identity_when_projector_vanishes():
    eye = MatrixFunction.constant(np.eye(2), domain=(0.0, 1.0))
    levels = [ChainLevel(0, eye, lambda t, s: K_SWAP, 2, []),
              ChainLevel(1, eye, lambda t, s: K_SWAP, 2, [])]
    f = lambda t: np.array([np.sin(t), np.cos(t)])  # noqa: E731
    fns = rhs_chain(f, levels)
    for t in (0.1, 0.6):
        np.testing.assert_allclose(fns[1](t), f(t), atol=1e-10)


def test_rhs_chain_constant_f_constant_projector():
    a, k = _const_pair()
    rep = rank_degree_index(a, k)
    const = np.array([2.0, -3.0])
    fns = rhs_chain(lambda t: const, rep.levels)
    np.testing.assert_allclose(fns[1](0.5), const, atol=1e-9)


def test_rhs_chain_levels_on_a_grid_equal_point_by_point_evaluation():
    rep = rank_degree_index(*_t_dependent_pair())
    assert rep.nu == 2
    calls = []

    def f(t):
        calls.append(t)
        return np.array([0.0, 1.0])

    grid = np.linspace(0.0, 1.0, 9)
    for fn in rhs_chain(f, rep.levels):
        calls.clear()
        whole = fn(grid)
        # f is called once per point, each time with a float
        assert calls and all(type(t) is float for t in calls)
        assert whole.tobytes() == np.stack([fn(t) for t in grid]).tobytes()


def test_rhs_chain_follows_a_turning_projector():
    # V_0(t) = [[t², −t], [−t, 1]] / (1 + t²), so V_0 f = (−t, 1) / (1 + t²)
    rep = rank_degree_index(*_t_dependent_pair())
    f1 = rhs_chain(lambda t: np.array([0.0, 1.0]), rep.levels)[1]
    for t in (0.0, 0.3, 0.5, 1.0):
        want = [(t * t - 1.0) / (1.0 + t * t) ** 2, 1.0 - 2.0 * t / (1.0 + t * t) ** 2]
        np.testing.assert_allclose(f1(t), want, rtol=0.0, atol=1e-8)


def test_rhs_chain_needs_levels():
    with pytest.raises(InvalidInputError):
        rhs_chain(lambda t: np.zeros(2), [])


# --- consistency_check ----------------------------------------------------

def _linearized_ex34_with_induced_f():
    """Linear IAE with kernel kappa_y along the exact solution of ex34 and
    the right-hand side induced by that same solution via quadrature, so
    the system is consistent by construction."""
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
    assert rep.nu == 2
    return rep, induced_f


def test_consistency_zero_rhs_passes():
    a, k = _const_pair()
    rep = rank_degree_index(a, k)
    fns = rhs_chain(lambda t: np.zeros(2), rep.levels)
    report = consistency_check(rep.levels, fns)
    assert report.ok
    assert max(report.defects) <= 1e-12


def test_consistency_constructed_system_passes():
    rep, induced_f = _linearized_ex34_with_induced_f()
    fns = rhs_chain(induced_f, rep.levels)
    report = consistency_check(rep.levels, fns)
    assert report.ok
    assert max(report.defects) <= 1e-6


def test_consistency_detects_perturbed_start_data():
    # a constant shift along the projector's image breaks condition 0
    rep, induced_f = _linearized_ex34_with_induced_f()
    shift = np.array([0.0, 1.0])
    fns = rhs_chain(lambda t: induced_f(t) + shift, rep.levels)
    report = consistency_check(rep.levels, fns)
    assert not report.ok
    assert max(report.defects) > 1e-2


def test_consistency_rejects_singular_final_level():
    a, k = _const_pair()
    rep = rank_degree_index(a, k)
    fns = rhs_chain(lambda t: np.zeros(2), rep.levels)
    with pytest.raises(InconsistentChainError):
        consistency_check(rep.levels[:2], fns[:2])


# --- dae_to_iae -----------------------------------------------------------

def _linear_dae(a, b):
    return LinearDAE(A=MatrixFunction.constant(a, domain=(0.0, 1.0)),
                     B=MatrixFunction.constant(b, domain=(0.0, 1.0)),
                     f=lambda t: np.array([np.sin(t), t]), y0=None, r=2, T=1.0)


@pytest.mark.parametrize("b, want", [
    (np.zeros((2, 2)), 0),
    (np.array([[0.0, 0.0], [0.0, 1.0]]), 1),
    (K_SWAP, 2),
])
def test_dae_to_iae_index(b, want):
    a = np.eye(2) if want == 0 else A_SING
    q = dae_to_iae(_linear_dae(a, b))
    rep = rank_degree_index(q.A, q.k, grid=np.linspace(0.0, 1.0, 11))
    assert rep.nu == want
    # exact-arithmetic cross-check on the same constant pair
    _, nu_exact = frac_chain_constant(fmat(a.astype(int).tolist()),
                                      fmat(b.astype(int).tolist()))
    assert nu_exact == want


def test_dae_to_iae_rhs_is_integral_of_f():
    q = dae_to_iae(_linear_dae(A_SING, K_SWAP))
    np.testing.assert_allclose(q.f(0.5), [1.0 - np.cos(0.5), 0.125], atol=1e-10)
    np.testing.assert_allclose(q.f(0.0), [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("from_y0", [True, False], ids=["y0", "exact"])
def test_dae_to_iae_rhs_carries_the_initial_term(from_y0):
    # y1' + y1 = 0, y2 = y1 from y(0) = (1, 1); with f = 0, a right side of
    # ∫ f alone would make y = 0 the IAE's solution
    exact = lambda t: np.array([np.exp(-t), np.exp(-t)])  # noqa: E731
    p = LinearDAE(A=MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
                  B=MatrixFunction.constant(np.array([[1.0, 0.0], [-1.0, 1.0]]),
                                            domain=(0.0, 1.0)),
                  f=lambda t: np.zeros(2), y0=np.array([1.0, 1.0]) if from_y0 else None,
                  r=2, T=1.0, exact=exact)
    q = dae_to_iae(p)
    np.testing.assert_array_equal(q.f(0.5), [1.0, 0.0])
    grid = np.linspace(0.0, 1.0, 21)
    assert verify_exact(q, grid) <= 10.0 * verify_exact(p, grid)
    sol, diag = solve_iae(q, CollocationConfig(h=0.05))
    assert diag["failure"] is None and not diag["warnings"]
    np.testing.assert_allclose(sol(1.0), exact(1.0), rtol=1e-6)
    # y0 is the start, where exact only stands in for it
    if from_y0:
        p.exact = lambda t: np.array([2.0, 2.0])
        np.testing.assert_array_equal(dae_to_iae(p).f(0.5), [1.0, 0.0])


@pytest.mark.parametrize("y0, match", [
    ([1.0, 0.0, 0.0], "length 2"), ([np.nan, 0.0], "non-finite initial value"),
], ids=["wrong-length", "nan"])
def test_dae_to_iae_refuses_a_start_that_is_no_finite_vector_of_length_r(y0, match):
    p = _linear_dae(A_SING, K_SWAP)
    p.y0 = np.array(y0)
    with pytest.raises(InvalidInputError, match=match):
        dae_to_iae(p)


def test_dae_to_iae_kernel_subtracts_leading_derivative():
    a = MatrixFunction(eval=lambda t: np.array([[1.0, t], [0.0, 0.0]]),
                       domain=(0.0, 1.0))
    p = LinearDAE(A=a, B=MatrixFunction.constant(K_SWAP, domain=(0.0, 1.0)),
                  f=lambda t: np.zeros(2), y0=None, r=2, T=1.0)
    q = dae_to_iae(p)
    s = 0.4
    np.testing.assert_allclose(q.k(0.9, s), K_SWAP - matfn_derivative(a, s),
                               atol=1e-8)


def test_linear_kernel_frozen_vector_equals_constant_trajectory():
    p = example("ex34")
    eta = np.array([1.3, -0.4])
    grid = np.linspace(1.0, 2.0, 5)
    flat = TrajectorySample(grid, np.tile(eta, (grid.size, 1)))
    k_vec, k_traj = linear_kernel(p, eta), linear_kernel(p, flat)
    for t, s in [(1.5, 1.2), (2.0, 1.0)]:
        np.testing.assert_array_equal(k_vec(t, s), k_traj(t, s))
        np.testing.assert_array_equal(k_vec(t, s), p.kappa_jacobian(t, s, eta))


def test_linear_kernel_rejects_what_it_cannot_linearize():
    q = dae_to_iae(_linear_dae(A_SING, K_SWAP))
    with pytest.raises(InvalidInputError):
        linear_kernel(q, np.zeros(2))
    with pytest.raises(InvalidInputError):
        linear_kernel(example("ex32"))


# --- the batch contract of the Jacobians -------------------------------------

# what a refusal names: the batch form κ_y and F_y must take
JACOBIAN_CONTRACT = r"must take the batch: κ_y\(t, s, y\) and F_y\(t, y\)"


def _per_point_kappa_y(t, s, y):
    # ex34's κ_y on floats: a batch makes float() raise TypeError
    y1, y2 = float(y[0]), float(y[1])
    return np.array([[2.0 * y1 * y2, (y1 ** 2 + 2.0) + math.exp(y2)], [2.0 * y1, 0.0]])


def _per_point_F_y(t, y):
    # ex32's F_y on floats
    y1, y2 = float(y[0]), float(y[1])
    return np.array([[-2.0 * y1, -math.exp(y2)], [-y2, -y1]])


def _per_point_F(t, y):
    # ex32's F on floats
    y1, y2 = float(y[0]), float(y[1])
    return np.array([-y1 ** 2 - math.exp(y2), -y1 * y2])


def _counted(fn, shapes):
    def call(*args):
        shapes.append(np.shape(args[-1]))
        return fn(*args)
    return call


def test_a_per_point_kappa_y_is_refused_by_the_linear_kernel():
    q = example("ex34")
    q.kappa_y = _per_point_kappa_y
    t = np.linspace(1.0, 2.0, 5)
    for eta in (exact_traj(q), np.array([0.3, 0.1]), np.array([[0.3, 0.1], [-0.2, 0.4]])):
        with pytest.raises(InvalidInputError, match=JACOBIAN_CONTRACT + ".*raised TypeError"):
            linear_kernel(q, eta)(t, t)


def test_a_per_point_F_y_is_refused_by_classify():
    q = example("ex32")
    q.F_y = _per_point_F_y
    with pytest.raises(InvalidInputError, match=JACOBIAN_CONTRACT + ".*raised TypeError"):
        classify(q, grid=np.linspace(1.0, 2.0, 21))


def test_a_per_point_F_without_F_y_is_refused_by_classify_and_solved_by_bdf():
    p, q = example("ex32"), example("ex32")
    p.F_y = q.F_y = None
    q.F = _per_point_F
    with pytest.raises(InvalidInputError, match=JACOBIAN_CONTRACT + ".*raised TypeError"):
        classify(q, grid=np.linspace(1.0, 2.0, 21))
    # BDF calls F per point, so the solve is that of the batch-capable F
    cfg = DaeSolveConfig(h=1e-2)
    want, got = solve_dae(p, cfg, interval=(1.0, 1.5)), solve_dae(q, cfg, interval=(1.0, 1.5))
    assert got.failure is None
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("wrong", [
    lambda out: np.moveaxis(out, -1, 0),    # the points first
    lambda out: out[..., :-1],              # one point short
    lambda out: out.sum(axis=-1),           # (r, r)
], ids=["points-first", "short", "no-point-axis"])
def test_a_batch_result_of_the_wrong_shape_is_refused(wrong):
    q = example("ex34")
    builtin = q.kappa_y
    q.kappa_y = lambda t, s, y: wrong(builtin(t, s, y))
    t = np.linspace(1.0, 2.0, 5)
    etas = np.array([[0.3, 0.1], [-0.2, 0.4], [1.0, 1.0]])
    with pytest.raises(InvalidInputError,
                       match=JACOBIAN_CONTRACT + r".*returned shape .*, expected \(2, 2, 15\)"):
        linear_kernel(q, etas)(t, t)


@pytest.mark.parametrize("name, attr", [("ex34", "kappa_y"), ("ex32", "F_y")])
def test_a_constant_matrix_jacobian_is_refused(name, attr):
    m = np.array([[0.5, -1.0], [2.0, 0.25]])
    q = example(name)
    setattr(q, attr, (lambda t, s, y: m) if attr == "kappa_y" else (lambda t, y: m))
    t = np.linspace(1.0, 2.0, 6)
    etas = np.array([[0.3, 0.1], [-0.2, 0.4]])
    with pytest.raises(InvalidInputError, match=JACOBIAN_CONTRACT + r".*returned shape \(2, 2\)"):
        linear_kernel(q, etas)(t, t)
    # written to take both forms, the constant is its matrix everywhere
    def both_forms(*args):
        return np.multiply.outer(m, np.ones_like(args[-1][0]))

    setattr(q, attr, both_forms)
    assert np.all(linear_kernel(q, etas)(t, t) == m)
    assert both_forms(1.5, etas[0]).tobytes() == m.tobytes()


@pytest.mark.parametrize("name", available())
def test_every_built_in_jacobian_takes_the_batch(name):
    p = example(name)
    attr = "kappa_y" if isinstance(p, SemiNonlinearIAE) else "F_y"
    shapes = []
    setattr(p, attr, _counted(getattr(p, attr), shapes))
    t = np.linspace(p.interval[0], p.interval[1], 5)
    etas = np.array([[0.3, -0.2], [-0.5, 0.7]])
    assert linear_kernel(p, etas)(t, t).shape == (5, 2, 2, 2)
    assert shapes == [(2, 10)]


def test_second_kind_systems_have_index_zero():
    # nonsingular leading matrix: reduction of any smooth B gives index 0
    rng = np.random.default_rng(3)
    b = rng.standard_normal((2, 2))
    p = LinearDAE(A=MatrixFunction.constant(np.eye(2), domain=(0.0, 1.0)),
                  B=MatrixFunction(eval=lambda t: b * np.cos(t), domain=(0.0, 1.0)),
                  f=lambda t: np.zeros(2), y0=None, r=2, T=1.0)
    q = dae_to_iae(p)
    assert rank_degree_index(q.A, q.k).nu == 0
