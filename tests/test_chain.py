"""Index chain: reduction steps, rank-degree index, consistency conditions.

The floating-point chain is checked against an exact rational-arithmetic
oracle (helpers.frac_chain_constant) wherever the data is constant.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from daekit import (
    ChainLevel,
    InconsistentChainError,
    InvalidInputError,
    LinearDAE,
    MatrixFunction,
    TrajectorySample,
    chain_step,
    consistency_check,
    dae_to_iae,
    hessenberg_index,
    linearize_iae,
    matfn_derivative,
    rank_degree_index,
    rhs_chain,
    example,
    numerical_rank,
)
from daekit.chain import linear_kernel
from helpers import (
    PAIR_A,
    PAIR_K,
    exact_traj,
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
    with pytest.raises(InvalidInputError):
        rank_degree_index(a, k, nu_max=0)


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
        dets = np.array([d for _, d in lev.det_sample])
        assert dets.tobytes() == np.linalg.det(whole).tobytes()
        assert lev.k(grid, s).tobytes() == \
            np.stack([lev.k(t, u) for t, u in zip(grid, s)]).tobytes()
        assert lev.projector(grid).tobytes() == \
            np.stack([lev.projector(t) for t in grid]).tobytes()


def test_chain_levels_take_a_scalar_s_with_an_array_t():
    a1, k1 = chain_step(*_t_dependent_pair())
    grid = np.linspace(0.0, 1.0, 5)
    assert k1(grid, 0.3).tobytes() == np.stack([k1(t, 0.3) for t in grid]).tobytes()
    assert a1(grid).shape == (5, 2, 2)


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
    report = consistency_check(rep.levels, fns, tol=1e-6, t0=1.0)
    assert report.ok
    assert max(report.defects) <= 1e-6


def test_consistency_detects_perturbed_start_data():
    # a constant shift along the projector's image breaks condition 0
    rep, induced_f = _linearized_ex34_with_induced_f()
    shift = np.array([0.0, 1.0])
    fns = rhs_chain(lambda t: induced_f(t) + shift, rep.levels)
    report = consistency_check(rep.levels, fns, tol=1e-6, t0=1.0)
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


def test_second_kind_systems_have_index_zero():
    # nonsingular leading matrix: reduction of any smooth B gives index 0
    rng = np.random.default_rng(3)
    b = rng.standard_normal((2, 2))
    p = LinearDAE(A=MatrixFunction.constant(np.eye(2), domain=(0.0, 1.0)),
                  B=MatrixFunction(eval=lambda t: b * np.cos(t), domain=(0.0, 1.0)),
                  f=lambda t: np.zeros(2), y0=None, r=2, T=1.0)
    q = dae_to_iae(p)
    assert rank_degree_index(q.A, q.k).nu == 0


# --- hessenberg_index -----------------------------------------------------

def test_hessenberg_identity_blocks_confirmed():
    res = hessenberg_index([lambda t: np.eye(1), lambda t: np.eye(1)],
                           np.linspace(0.0, 1.0, 11))
    assert res.confirmed
    assert res.nu == 2
    assert res.violated_at is None


def test_hessenberg_singular_block_violated_at_zero():
    res = hessenberg_index([lambda t: np.array([[t]]), lambda t: np.eye(1)],
                           np.linspace(0.0, 1.0, 11))
    assert not res.confirmed
    assert res.violated_at == 0.0


def test_hessenberg_view_of_integral_example():
    # corner Jacobian blocks of the ex34 kernel along (e^t, t)
    blocks = [lambda t: np.array([[2.0 * np.exp(t)]]),
              lambda t: np.array([[(np.exp(2.0 * t) + 2.0) + np.exp(t)]])]
    res = hessenberg_index(blocks, np.linspace(1.0, 2.0, 21))
    assert res.confirmed
    assert res.nu == 2
    assert np.isfinite(res.worst_condition)


def test_hessenberg_validates_input():
    with pytest.raises(InvalidInputError):
        hessenberg_index([], np.linspace(0.0, 1.0, 5))
    with pytest.raises(InvalidInputError):
        hessenberg_index([lambda t: np.eye(2), lambda t: np.eye(3)],
                         np.linspace(0.0, 1.0, 5))
