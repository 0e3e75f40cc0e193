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
interior term the kernel update.

Derivatives fall back to 4th-order finite differences.  Each nesting level
divides roundoff by the step (1e-4 by default), so roughly four digits are
lost per level; chains past level 4 need analytic derivatives to be
trustworthy, hence the default cap nu_max = 4.

The levels are evaluated on whole arrays of times: A_{i+1} and k_{i+1}
take a float t (and s) or (n,) arrays of them.  An array call evaluates
level i once on all its points and on all their stencil points, with one
stacked SVD for the projectors there, and recurses on those points into
the level below.  The levels memoize nothing; a user's A, kernel and
callbacks are still called once per point.  Every element gets the
arithmetic of a float call, so both forms agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _vectorized_kernel(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    """Kernel of floats t, s or of (n,) arrays, from ``fn`` of two (n,) arrays."""
    def k(t, s):
        if np.ndim(t) == 0 and np.ndim(s) == 0:
            return fn(np.array([t], dtype=float), np.array([s], dtype=float))[0]
        return fn(*np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float)))

    k.vectorized = True
    return k


def _on_arrays(k: Kernel) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``k`` on (n,) arrays t, s: a user kernel is called once per pair."""
    if getattr(k, "vectorized", False):
        return k
    return lambda t, s: np.stack([k(float(a), float(b)) for a, b in zip(t, s)])


def chain_step(A_i: MatrixFunction, k_i: Kernel, tol: float = DEFAULT_RANK_TOL,
               fd_step: Optional[float] = None) -> tuple[MatrixFunction, Kernel]:
    """One reduction level: returns (A_{i+1}, k_{i+1}) as lazy evaluables.

    Both take a float t (and s) or (n,) arrays, and evaluate an array with
    one stacked SVD for the projectors V_i at its points and one for those
    at its stencil points.  The t-derivative in the kernel update holds s
    fixed.
    """
    lo, hi = A_i.domain
    k_at = _on_arrays(k_i)

    def a_next(t: np.ndarray) -> np.ndarray:
        a = A_i(t)
        return a + semi_inverse(a, tol).projector @ k_at(t, t)

    def projected(tau: np.ndarray, s: np.ndarray) -> np.ndarray:
        return semi_inverse(A_i(tau), tol).projector @ k_at(tau, s)

    def k_next(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        dd = fd_derivative(projected, t, step=fd_step, lo=lo, hi=hi, args=(s,))
        return dd + k_at(t, s)

    return (MatrixFunction(eval=a_next, domain=A_i.domain, vectorized=True),
            _vectorized_kernel(k_next))


@dataclass
class ChainLevel:
    """Level i of the chain: the pair (A_i, k_i) plus rank/determinant data."""

    level: int
    A: MatrixFunction
    k: Kernel
    rank: Optional[int]
    det_sample: list
    tol: float = DEFAULT_RANK_TOL

    def projector(self, t: float) -> np.ndarray:
        return semi_inverse(self.A(t), self.tol).projector


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
                      tol: float = DEFAULT_RANK_TOL,
                      fd_step: Optional[float] = None) -> IndexReport:
    """Iterate the chain until A_ν is nonsingular everywhere on the grid.

    Singularity is tested as numerical rank deficiency (never via literal
    determinants, which underflow).  Any level whose rank varies across the
    grid aborts the chain with a non-constant-rank status; exceeding
    ``nu_max`` levels reports that instead of guessing.

    The default grid is 33 uniform points over A's domain.
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

    levels: list[ChainLevel] = []
    A_i, k_i = A, k
    for level in range(nu_max + 1):
        a_grid = A_i(grid)
        r = a_grid.shape[-1]
        ranks = numerical_rank(a_grid, tol)
        det_sample = [(float(t), float(d)) for t, d in zip(grid, np.linalg.det(a_grid))]
        if np.any(ranks != ranks[0]):
            t_bad = float(grid[int(np.argmax(ranks != ranks[0]))])
            levels.append(ChainLevel(level, A_i, k_i, None, det_sample, tol))
            return IndexReport(None, levels, grid,
                               ChainStatus("non-constant-rank", level, t_bad), tol)
        rank_i = int(ranks[0])
        levels.append(ChainLevel(level, A_i, k_i, rank_i, det_sample, tol))
        if rank_i == r:
            return IndexReport(level, levels, grid, ChainStatus("ok"), tol)
        if level < nu_max:
            A_i, k_i = chain_step(A_i, k_i, tol, fd_step)
    return IndexReport(None, levels, grid,
                       ChainStatus("exceeded-max-level", nu_max), tol)


def rhs_chain(f: Callable[[float], np.ndarray], levels,
              fd_step: Optional[float] = None) -> list:
    """Right-hand-side companions F_0..F_n of the chain levels.

    F_0 = f and F_{i+1}(t) = d/dt[V_i(t) F_i(t)] + F_i(t), using the
    projector of each level in turn.  Returns one function per level.
    """
    if not levels:
        raise InvalidInputError("levels must be non-empty")

    def wrap(fn):
        cache: dict[float, np.ndarray] = {}

        def g(t: float) -> np.ndarray:
            got = cache.get(t)
            if got is None:
                got = np.atleast_1d(np.asarray(fn(t), dtype=float))
                cache[t] = got
            return got

        return g

    fns = [wrap(f)]
    for lev in levels[:-1]:
        lo, hi = lev.A.domain
        prev = fns[-1]

        def lifted(t: float, lev=lev, prev=prev, lo=lo, hi=hi) -> np.ndarray:
            d = fd_derivative(lambda tau: lev.projector(tau) @ prev(tau), t,
                              step=fd_step, lo=lo, hi=hi)
            return d + prev(t)

        fns.append(wrap(lifted))
    return fns


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
        return {
            "t0": self.t0,
            "defects": [float(d) for d in self.defects],
            "passes": [bool(p) for p in self.passes],
            "tol": self.tol,
            "condition_number": self.condition_number,
            "warnings": list(self.warnings),
            "ok": self.ok,
        }


def consistency_check(levels, F_list, tol: float = 1e-6, t0: Optional[float] = None,
                      rank_tol: float = DEFAULT_RANK_TOL) -> ConsistencyReport:
    """Check the start-point compatibility conditions of a completed chain.

    Requires ν ≥ 1 levels of reduction and the matching rhs chain.  A
    numerically singular A_ν(t0) is an error; an ill-conditioned one only
    produces a warning (the conditions are then poorly determined).
    """
    nu = len(levels) - 1
    if nu < 1:
        raise InvalidInputError("need at least one reduction level")
    if len(F_list) < nu + 1:
        raise InvalidInputError(f"need {nu + 1} rhs functions, got {len(F_list)}")
    A_nu = levels[-1].A
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
    is the trajectory to linearize along (any callable of s) or a fixed
    vector; a LinearDAE ignores it.
    """
    if isinstance(p, LinearDAE):
        return lambda t, s: p.B(s) - matfn_derivative(p.A, s)
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError(f"no linear kernel for a {type(p).__name__}")
    if eta is None:
        raise InvalidInputError("a semi-nonlinear problem needs eta to linearize along")
    at = eta if callable(eta) else (lambda s, v=np.asarray(eta, dtype=float): v)
    if isinstance(p, SemiNonlinearDAE):
        return lambda t, s: p.jacobian(s, at(s)) - matfn_derivative(p.A, s)
    return lambda t, s: p.kappa_jacobian(t, s, at(s))


def dae_to_iae(p: LinearDAE, quad_tol: float = 1e-12) -> LinearIAE:
    """Rewrite A y′ + B y = f as a first/second-kind integral system.

    Integrating by parts over [t_start, t] gives the kernel
    (t, s) ↦ B(s) − A′(s) of :func:`linear_kernel` and right side
    ∫ f(s) ds; the kernel alone determines the index.
    """
    cache: dict[float, np.ndarray] = {}

    def rhs(t: float) -> np.ndarray:
        got = cache.get(t)
        if got is None:
            got = np.array([
                quad(lambda s, i=i: float(np.atleast_1d(p.f(s))[i]),
                     p.t_start, t, epsabs=quad_tol, epsrel=quad_tol, limit=200)[0]
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
        return {"confirmed": self.confirmed, "nu": self.nu,
                "violated_at": self.violated_at,
                "worst_condition": self.worst_condition}


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
