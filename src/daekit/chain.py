"""Rank-degree index chain for linear pairs (A, k).

The index of a system A(t) y + ∫ k(t,s) y(s) ds = f is found by repeated
reduction.  With V_i(t) = E − A_i(t) A_i⁻(t) the chain is

    A_{i+1}(t)   = A_i(t) + V_i(t) k_i(t, t)
    k_{i+1}(t,s) = ∂/∂t [ V_i(t) k_i(t, s) ] + k_i(t, s)      (s held fixed)
    F_{i+1}(t)   = d/dt [ V_i(t) F_i(t) ] + F_i(t)

starting from A₀ = A, k₀ = k, F₀ = f.  The index ν is the first level at
which A_ν is nonsingular, provided every A_i has constant rank on the
working interval.  Differentiating the projected equation integrates by
parts: the boundary term of the Leibniz rule feeds the A-update, the
interior term the kernel update.  The kernel and the right side follow
one update rule, g_{i+1} = d/dt[V_i g_i] + g_i, applied in one place
(:func:`_lift`).

Derivatives fall back to 4th-order finite differences.  Each nesting level
divides roundoff by the step (1e-4 by default), so roughly four digits are
lost per level; chains past level 4 need analytic derivatives to be
trustworthy, hence the default cap nu_max = 4.

The levels are evaluated on whole arrays of times: A_{i+1}, k_{i+1} and
F_{i+1} take a float t (and s) or (n,) arrays of them.  An array call
evaluates level i once on all its points and on all their stencil points,
with one stacked SVD for the projectors there, and recurses on those
points into the level below.  The levels memoize nothing; a user's A,
kernel, right side and callbacks are still called once per point.  Every
element gets the arithmetic of a float call, so both forms agree bit for
bit.  :func:`rank_degree_index` builds each level's grid values from those
of the level below instead of evaluating that level again.  The one memo
left is :func:`dae_to_iae`'s, on the quadratures of its right side.

A chain may also carry a sample axis: a kernel linearized at an (S, r)
stack of η's has values (S, r, r), and a level 0 repeated along the same
axis makes every level's values (n, S, r, r).  One chain then serves all
S samples with one stacked SVD per level and per stencil, and
:func:`rank_degree_index` reads per-sample ranks, ν and determinants from
it; each sample's numbers equal those of its own chain bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import InconsistentChainError, InvalidInputError
from .linalg import (
    DEFAULT_RANK_TOL,
    MatrixFunction,
    fd_derivative,
    matfn_derivative,
    numerical_rank,
    semi_inverse,
)
from .problems import LinearDAE, LinearIAE, SemiNonlinearDAE, SemiNonlinearIAE

Kernel = Callable[[float, float], np.ndarray]
# absolute and relative tolerance of the quadratures in dae_to_iae's right side
QUAD_TOL = 1e-12


def _vectorized(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Function of float arguments or of (n,) arrays, from ``fn`` of (n,) arrays."""
    def g(*args):
        if all(np.ndim(a) == 0 for a in args):
            return fn(*(np.array([a], dtype=float) for a in args))[0]
        return fn(*np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args)))

    g.vectorized = True
    return g


def _on_arrays(fn: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``fn`` on (n,) arrays: a user function is called once per point."""
    if getattr(fn, "vectorized", False):
        return fn
    return lambda *args: np.stack([fn(*map(float, point)) for point in zip(*args)])


def _lift(A_i: MatrixFunction, g: Callable[..., np.ndarray],
          tol: float) -> Callable[..., np.ndarray]:
    """The update rule g_{i+1}(t, *args) = ∂/∂t[V_i(t) g(t, *args)] + g(t, *args).

    ``g`` and the result take (n,) arrays of t and of each argument, which
    is held fixed in the derivative, and return stacks of matrices along t.
    """
    lo, hi = A_i.domain

    def projected(tau: np.ndarray, *args) -> np.ndarray:
        return semi_inverse(A_i(tau), tol).projector @ g(tau, *args)

    def lifted(t: np.ndarray, *args) -> np.ndarray:
        return fd_derivative(projected, t, lo=lo, hi=hi, args=args) + g(t, *args)

    return lifted


def chain_step(A_i: MatrixFunction, k_i: Kernel,
               tol: float = DEFAULT_RANK_TOL) -> tuple[MatrixFunction, Kernel]:
    """One reduction level: returns (A_{i+1}, k_{i+1}) as lazy evaluables.

    Both take a float t (and s) or (n,) arrays, and evaluate an array with
    one stacked SVD for the projectors V_i at its points and one for those
    at its stencil points.  k_{i+1} is :func:`_lift` of k_i with s held
    fixed, the rule :func:`rhs_chain` applies to the right side.
    """
    k_at = _on_arrays(k_i)

    def a_next(t: np.ndarray) -> np.ndarray:
        a = A_i(t)
        return a + semi_inverse(a, tol).projector @ k_at(t, t)

    return (MatrixFunction(eval=a_next, domain=A_i.domain, vectorized=True),
            _vectorized(_lift(A_i, k_at, tol)))


@dataclass
class ChainLevel:
    """Level i of the chain: the pair (A_i, k_i) plus rank/determinant data.

    In a chain with a sample axis, A and k are shared by all samples and
    ``rank`` and ``det_sample`` are the report's own sample's.
    """

    level: int
    A: MatrixFunction
    k: Kernel
    rank: Optional[int]
    det_sample: list
    tol: float = DEFAULT_RANK_TOL


@dataclass(frozen=True)
class ChainStatus:
    kind: str  # "ok" | "non-constant-rank" | "exceeded-max-level"
    level: Optional[int] = None
    t: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.kind == "ok"

    def __str__(self) -> str:
        if self.kind == "non-constant-rank":
            return f"non-constant-rank-at(level={self.level}, t={self.t})"
        if self.kind == "exceeded-max-level":
            return f"exceeded-max-level({self.level})"
        return self.kind


@dataclass
class IndexReport:
    """Outcome of the chain: ν (None on failure), per-level data, grid, status."""

    nu: Optional[int]
    levels: list
    grid: np.ndarray
    status: ChainStatus
    tol: float

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "status": str(self.status),
            "tol": self.tol,
            "grid": [float(t) for t in self.grid],
            "levels": [
                {
                    "level": lev.level,
                    "rank": lev.rank,
                    "det_sample": [[float(t), float(d)] for t, d in lev.det_sample],
                }
                for lev in self.levels
            ],
        }


def rank_degree_index(A: MatrixFunction, k: Kernel, grid=None, nu_max: int = 4,
                      tol: float = DEFAULT_RANK_TOL) -> IndexReport | list:
    """Iterate the chain until A_ν is nonsingular everywhere on the grid.

    Singularity is tested as numerical rank deficiency (never via literal
    determinants, which underflow).  Any level whose rank varies across the
    grid aborts the chain with a non-constant-rank status; exceeding
    ``nu_max`` levels reports that instead of guessing.

    The default grid is 33 uniform points over A's domain.  A level's grid
    values are built from those of the level below, A_{i+1} = A_i + V_i
    k_i(t, t), so no level is evaluated on the grid twice; one stacked SVD
    per level gives both its ranks and the projector V_i of that update.

    A and k may carry a sample axis (module docstring): A(grid) of shape
    (n, S, r, r) and kernel values of shape (S, r, r).  The level loop then
    runs until every sample has stopped and returns the list of S reports,
    report j equal to sample j's own except that its levels hold the
    shared A and k (sample j of A_i(t) is A_i(t)[..., j, :, :]).  Without
    the axis it returns one report: the S = 1 case.
    """
    if nu_max < 1:
        raise InvalidInputError("nu_max must be at least 1")
    if grid is None:
        grid = np.linspace(A.domain[0], A.domain[1], 33)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidInputError("grid must be non-empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise InvalidInputError("grid must be strictly increasing")

    A_i, k_i = A, k
    a_grid = A(grid)
    stacked = a_grid.ndim == 4
    n_samples = a_grid.shape[1] if stacked else 1
    levels: list = [[] for _ in range(n_samples)]
    reports: list = [None] * n_samples
    for level in range(nu_max + 1):
        inv = semi_inverse(a_grid, tol)
        ranks = inv.rank.reshape(grid.size, n_samples)
        dets = np.linalg.det(a_grid).reshape(grid.size, n_samples)
        for j in range(n_samples):
            if reports[j] is not None:
                continue
            det_sample = [(float(t), float(d)) for t, d in zip(grid, dets[:, j])]
            varies = ranks[:, j] != ranks[0, j]
            rank_j = None if np.any(varies) else int(ranks[0, j])
            levels[j].append(ChainLevel(level, A_i, k_i, rank_j, det_sample, tol))
            if rank_j is None:
                t_bad = float(grid[int(np.argmax(varies))])
                reports[j] = IndexReport(None, levels[j], grid,
                                         ChainStatus("non-constant-rank", level, t_bad), tol)
            elif rank_j == a_grid.shape[-1]:
                reports[j] = IndexReport(level, levels[j], grid, ChainStatus("ok"), tol)
        if all(rep is not None for rep in reports):
            break
        if level < nu_max:
            k_grid = _on_arrays(k_i)(grid, grid)
            A_i, k_i = chain_step(A_i, k_i, tol)
            a_grid = a_grid + inv.projector @ k_grid
    reports = [IndexReport(None, lev, grid, ChainStatus("exceeded-max-level", nu_max), tol)
               if rep is None else rep for rep, lev in zip(reports, levels)]
    return reports if stacked else reports[0]


def rhs_chain(f: Callable[[float], np.ndarray], levels) -> list:
    """Right-hand-side companions F_0..F_n of the chain levels.

    F_0 = f and F_{i+1} = :func:`_lift` of F_i through level i's A_i, the
    update rule of the kernel: F_{i+1}(t) = d/dt[V_i(t) F_i(t)] + F_i(t).
    Returns one function per level; each takes a float t or an (n,) array
    of times and gives an (r,) vector or an (n, r) stack.  Like a user
    kernel, ``f`` is called once per point, and nothing is memoized.
    """
    if not levels:
        raise InvalidInputError("levels must be non-empty")
    f_at = _on_arrays(f)
    # values travel as (n, r, 1) columns, so V_i F_i is the kernel's product
    columns = [lambda t: np.asarray(f_at(t), dtype=float).reshape(t.size, -1, 1)]
    for lev in levels[:-1]:
        columns.append(_lift(lev.A, columns[-1], lev.tol))
    return [_vectorized(lambda t, g=g: g(t)[..., 0]) for g in columns]


@dataclass
class ConsistencyReport:
    """Initial-data compatibility across chain levels at t0.

    Condition i measures ‖A_i(t0)·A_ν(t0)^{-1}·F_ν(t0) − F_i(t0)‖; all must
    vanish (within tol) for the reduced second-kind system to share its
    solution with the original one.
    """

    t0: float
    defects: list
    passes: list
    tol: float
    condition_number: float
    warnings: list

    @property
    def ok(self) -> bool:
        return all(self.passes)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def consistency_check(levels, F_list, tol: float = 1e-6,
                      t0: Optional[float] = None) -> ConsistencyReport:
    """Check the start-point compatibility conditions of a completed chain.

    Requires ν ≥ 1 levels of reduction and the matching rhs chain.  A
    numerically singular A_ν(t0) is an error; an ill-conditioned one only
    produces a warning (the conditions are then poorly determined).  Both
    judge A_ν(t0) by the rank tolerance that built the chain.
    """
    nu = len(levels) - 1
    if nu < 1:
        raise InvalidInputError("need at least one reduction level")
    if len(F_list) < nu + 1:
        raise InvalidInputError(f"need {nu + 1} rhs functions, got {len(F_list)}")
    A_nu, rank_tol = levels[-1].A, levels[-1].tol
    t0 = float(A_nu.domain[0]) if t0 is None else float(t0)
    m = A_nu(t0)
    r = m.shape[0]
    if numerical_rank(m, rank_tol) < r:
        raise InconsistentChainError(
            f"final chain matrix is numerically singular at t0={t0}")
    cond = float(np.linalg.cond(m))
    warnings = []
    if cond > 1.0 / max(rank_tol, np.finfo(float).tiny):
        warnings.append(
            f"final chain matrix ill-conditioned at t0={t0}: cond={cond:.3e}; "
            "defects below are unreliable")
    x = np.linalg.solve(m, np.atleast_1d(np.asarray(F_list[nu](t0), dtype=float)))
    defects, passes = [], []
    for i in range(nu):
        lhs = levels[i].A(t0) @ x
        rhs = np.atleast_1d(np.asarray(F_list[i](t0), dtype=float))
        d = float(np.linalg.norm(lhs - rhs))
        defects.append(d)
        passes.append(d <= tol)
    return ConsistencyReport(t0=t0, defects=defects, passes=passes, tol=tol,
                             condition_number=cond, warnings=warnings)


def linear_kernel(p, eta=None) -> Kernel:
    """Kernel of the linear integral problem whose chain gives the index of p.

    * LinearDAE:        (t, s) ↦ B(s) − A′(s)
    * SemiNonlinearDAE: (t, s) ↦ F_y(s, η(s)) − A′(s)
    * SemiNonlinearIAE: (t, s) ↦ κ_y(t, s, η(s))

    A DAE is integrated by parts over [t_start, t] first, which is where
    −A′ comes from; A′ uses the declared derivative when present.  ``eta``
    is the trajectory to linearize along (any callable of s), a fixed
    vector, or an (S, r) stack of fixed vectors; a LinearDAE ignores it.
    A stack gives kernel values with a sample axis, shape (S, r, r), whose
    slice j is the kernel at eta[j] (the Jacobian is called per sample).
    """
    if isinstance(p, LinearDAE):
        return lambda t, s: p.B(s) - matfn_derivative(p.A, s)
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError(f"no linear kernel for a {type(p).__name__}")
    if eta is None:
        raise InvalidInputError("a semi-nonlinear problem needs eta to linearize along")
    at = eta if callable(eta) else (lambda s, v=np.asarray(eta, dtype=float): v)

    def at_each(jac, s) -> np.ndarray:
        y = at(s)
        return np.stack([jac(row) for row in y]) if np.ndim(y) == 2 else jac(y)

    if isinstance(p, SemiNonlinearDAE):
        return lambda t, s: at_each(lambda y: p.jacobian(s, y), s) - matfn_derivative(p.A, s)
    return lambda t, s: at_each(lambda y: p.kappa_jacobian(t, s, y), s)


def dae_to_iae(p: LinearDAE) -> LinearIAE:
    """Rewrite A y′ + B y = f as a first/second-kind integral system.

    Integrating by parts over [t_start, t] gives the kernel
    (t, s) ↦ B(s) − A′(s) of :func:`linear_kernel` and right side
    ∫ f(s) ds; the kernel alone determines the index.
    """
    # the F chain's nested stencils revisit times: without this memo the
    # index-4 Hessenberg consistency check takes 4,564 quad calls, not 92
    cache: dict[float, np.ndarray] = {}

    def rhs(t: float) -> np.ndarray:
        got = cache.get(t)
        if got is None:
            got = np.array([
                quad(lambda s, i=i: float(np.atleast_1d(p.f(s))[i]),
                     p.t_start, t, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)[0]
                for i in range(p.r)
            ])
            cache[t] = got
        return got

    return LinearIAE(A=p.A, k=linear_kernel(p), f=rhs, r=p.r, T=p.T,
                     t_start=p.t_start, name=f"{p.name}-as-iae" if p.name else "")


@dataclass
class HessenbergResult:
    confirmed: bool
    nu: int
    violated_at: Optional[float]
    worst_condition: float

    def to_dict(self) -> dict:
        return asdict(self)


def hessenberg_index(diag_jacobians, grid, tol: float = DEFAULT_RANK_TOL) -> HessenbergResult:
    """Structural index check for block lower-Hessenberg kernels.

    ``diag_jacobians`` are the ν corner Jacobian blocks (functions of t,
    all square of one size) whose product must stay invertible along the
    trajectory.  Invertibility is tested as condition number below 1/tol
    at every grid point; the first failure is reported with its location.
    """
    if not diag_jacobians:
        raise InvalidInputError("need at least one diagonal block")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidInputError("grid must be non-empty")
    nu = len(diag_jacobians)
    worst = 1.0
    for t in grid:
        blocks = [np.atleast_2d(np.asarray(j(t), dtype=float)) for j in diag_jacobians]
        shape = blocks[0].shape
        if shape[0] != shape[1] or any(b.shape != shape for b in blocks):
            raise InvalidInputError(
                "diagonal blocks must all be square and of equal size")
        prod = blocks[0]
        for b in blocks[1:]:
            prod = prod @ b
        if numerical_rank(prod, tol) < shape[0]:
            return HessenbergResult(False, nu, float(t), float(np.inf))
        cond = float(np.linalg.cond(prod))
        worst = max(worst, cond)
        if cond > 1.0 / tol:
            return HessenbergResult(False, nu, float(t), worst)
    return HessenbergResult(True, nu, None, worst)
