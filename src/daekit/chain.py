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
divides roundoff by the step (1e-4), so roughly four digits are lost per
level; chains past level 4 need analytic derivatives to be trustworthy,
hence the cap ``NU_MAX = 4``.

The levels are evaluated on whole arrays of times: A_{i+1}, k_{i+1} and
F_{i+1} are vectorized MatrixFunctions of a float t (and s) or of (n,)
arrays.  Level i+1 is one function of the A-times and the kernel points
it is asked for (:class:`_Level`), and makes one call of level i on
everything it needs: A_i at its times and at the stencil points, and
k_i at (t, t), at the stencil points and at its points.  It takes one
projector of that A_i stack (one SVD per distinct matrix).  So a call of
level ν makes one call of each level below it, and one of A and k at
level 0; nothing is memoized.
A user's A (unless vectorized), kernel and right side are called once
per point, a plain callable being wrapped by :func:`per_point`; the
kernels of :func:`linear_kernel` make one Jacobian call per array, or
for a LinearDAE one evaluation per distinct s.  Each element gets the
arithmetic of a float call, so both forms agree bit for bit.
:func:`rank_degree_index` builds each level's grid values from those
of the level below instead of evaluating that level again.  The one
memo left is :func:`dae_to_iae`'s, on the quadratures of its right side.

A chain may also carry a sample axis: a kernel linearized at an (S, r)
stack of η's has values (S, r, r), and level 0, shared by all samples,
has values (n, 1, r, r) that numpy's matmul broadcasts against them, so
every level above has values (n, S, r, r).  One chain then serves all
S samples with one projector per level, level 0's taken once per
distinct A(t) and kept a broadcast view, and
:func:`rank_degree_index` reads per-sample ranks, ν and determinants
from it; each sample's numbers equal those of its own chain bit for
bit.

A chain may also read many windows at once.  A (W, m) grid holds one
window's nodes per row, all on A's one domain, and row w passes w as the
last argument of A, k and every level: A_i(t, w), k_i(t, s, w), so that
a kernel of :func:`linear_kernel` on a (W, S, r) stack reads window w's
η's.  :func:`rank_degree_index` runs one level loop for all rows and
returns one result per row, equal to that row's own chain bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InconsistentChainError, InvalidInputError
from .linalg import (
    DEFAULT_RANK_TOL,
    MatrixFunction,
    all_finite,
    check_grid,
    fd_derivative,
    matfn_derivative,
    non_finite,
    norm2,
    numerical_rank,
    per_distinct,
    per_point,
    projector,
    quadrature,
    semi_inverse,
)
from .problems import (
    JACOBIAN_CONTRACT,
    LinearDAE,
    LinearIAE,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    Trajectory,
    batch_checked,
    start_value,
)

Kernel = MatrixFunction | Callable[[float, float], np.ndarray]
# absolute and relative tolerance of the quadratures in dae_to_iae's right side
QUAD_TOL = 1e-12
# the largest compatibility defect consistency_check passes
CONSISTENCY_TOL = 1e-6
# the highest level rank_degree_index builds: finite differences nested
# deeper than this leave no trustworthy digits
NU_MAX = 4


def _joined(*parts) -> tuple:
    """The points of ``parts`` (tuples of arrays of one arity, or None) in one tuple of arrays."""
    return tuple(map(np.concatenate, zip(*(part for part in parts if part is not None))))


class _Level:
    """Level i+1 ≥ 1 of a chain as one function of the points it is asked for.

    ``level(a, g)`` gives A_{i+1} at the points a = (t, *w) and g_{i+1} at
    the points g = (t, *args), either of them None.  g is the kernel, args
    = (s, *w) held fixed in the derivative, or a right side, no args.
    It makes one call of ``below``, level i as the same kind of function,
    on every point it needs:

    * A_i at a's times and at the stencil points of g's times;
    * g_i at (t, t, *w) of a's points, for the A-update; at the stencil
      points, with g's arguments; and at g's points, for the ``+ g_i`` term.

    It then takes one :func:`~daekit.linalg.projector` of that A_i stack
    and returns (A_{i+1}, g_{i+1}), each point's value with the arithmetic
    of a float call.  The differences go through ``fd_derivative``, whose
    one call of its function carries all of this, and every stencil stays
    in ``domain``.  A non-finite A_i is an error naming its first such time.
    """

    def __init__(self, below: Callable, domain: tuple[float, float]):
        self.below, self.domain = below, domain

    def __call__(self, a: Optional[tuple], g: Optional[tuple]) -> tuple:
        n_a = 0 if a is None else a[0].size
        out = []

        def projected(tau: np.ndarray, *args) -> np.ndarray:
            m = tau.size
            a_pts = _joined(a, (tau, *args[1:]))
            a_i, g_i = self.below(a_pts, _joined(a and (a[0], *a), (tau, *args), g))
            if not all_finite(a_i):
                raise non_finite(a_i, a_pts[0], "matrix function")
            v = projector(a_i)
            # g_i at g's points copied, so that the whole stack is freed
            # before fd_derivative weighs the differences
            out.extend((a_i[:n_a] + v[:n_a] @ g_i[:n_a], g_i[n_a + m:].copy()))
            return v[n_a:] @ g_i[n_a:n_a + m]

        if g is None:
            # A alone: the kernel's (t, t) points, and no stencil to difference
            g = (a[0][:0],) * 2 + tuple(w[:0] for w in a[1:])
            derivative = projected(*g)
        else:
            lo, hi = self.domain
            derivative = fd_derivative(projected, g[0], lo=lo, hi=hi, args=g[1:])
        return out[0], derivative + out[1]

    def A(self, t: np.ndarray, *w) -> np.ndarray:
        return self((t, *w), None)[0]

    def g(self, t: np.ndarray, *args) -> np.ndarray:
        return self(None, (t, *args))[1]


def chain_step(A_i: MatrixFunction, k_i: Kernel) -> tuple[MatrixFunction, MatrixFunction]:
    """One reduction level: returns (A_{i+1}, k_{i+1}) as lazy evaluables.

    Both are vectorized MatrixFunctions on A_i's domain, A_{i+1}(t) and
    k_{i+1}(t, s), evaluated by one :class:`_Level`: a call of either
    makes one call of level i, and takes one projector there.  When
    chain_step built A_i and k_i as one pair, level i is that pair's
    level, so a call of level ν makes one call of each level below it and
    one of A and k at level 0.  Otherwise level i calls A_i and k_i once
    each.  In a chain of windows (module docstring) they are A_{i+1}(t, w)
    and k_{i+1}(t, s, w).
    """
    k_i = per_point(k_i, A_i.domain, "kernel")
    below = getattr(A_i.eval, "__self__", None)
    if not (isinstance(below, _Level) and getattr(k_i.eval, "__self__", None) is below):
        below = lambda a, g: (A_i(*a), k_i(*g))  # noqa: E731
    level = _Level(below, A_i.domain)
    return (MatrixFunction(eval=level.A, domain=A_i.domain, vectorized=True),
            MatrixFunction(eval=level.g, domain=A_i.domain, vectorized=True))


@dataclass
class ChainLevel:
    """Level i of the chain: the pair (A_i, k_i), the rank of A_i on the
    report's grid (None if it varies there) and ``det``, the (n,) array of
    det A_i on that grid.

    In a chain with a sample axis, A and k are shared by all samples and
    ``rank`` and ``det`` are the report's own sample's.
    """

    level: int
    A: MatrixFunction
    k: MatrixFunction
    rank: Optional[int]
    det: np.ndarray


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

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "status": str(self.status),
            "tol": DEFAULT_RANK_TOL,
            "grid": [float(t) for t in self.grid],
            "levels": [
                {
                    "level": lev.level,
                    "rank": lev.rank,
                    "det_sample": [[float(t), float(d)] for t, d in zip(self.grid, lev.det)],
                }
                for lev in self.levels
            ],
        }


def _factored(a_grid: np.ndarray) -> tuple:
    """The ranks, projectors and determinants of a level's grid stack, from
    one search for its distinct matrices (:func:`~daekit.linalg.per_distinct`):
    one ``semi_inverse`` and one ``np.linalg.det`` call on the stack of those."""
    def each(d: np.ndarray) -> tuple:
        inv = semi_inverse(d)
        return inv.rank, inv.projector, np.linalg.det(d)

    return per_distinct(each, a_grid)


def rank_degree_index(A: MatrixFunction, k: Kernel, grid=None) -> IndexReport | list:
    """Iterate the chain until A_ν is nonsingular everywhere on the grid.

    Singularity is tested as numerical rank deficiency (never via literal
    determinants, which underflow).  Any level whose rank varies across the
    grid aborts the chain with a non-constant-rank status; exceeding
    ``NU_MAX`` levels reports that instead of guessing.

    The grid (``check_grid``) defaults to 33 uniform points over A's domain.
    A level's grid values are built from those of the level below, A_{i+1}
    = A_i + V_i k_i(t, t), so no level is evaluated on the grid twice; one
    search for the distinct matrices of a level gives its ranks, the
    projector V_i of that update and its determinants, from one SVD and
    one LU per distinct matrix.

    A and k may carry a sample axis (module docstring): A(grid) of shape
    (n, S, r, r) or (n, 1, r, r) and kernel values of shape (S, r, r), S
    read from the kernel.  The level loop then runs until every sample has
    stopped and returns the list of S reports, report j equal to sample j's
    own except that its levels hold the shared A and k (sample j of A_i(t)
    is A_i(t)[..., j, :, :], or [..., 0, :, :] on an axis of size 1).
    Without the axis it returns one report: the S = 1 case.

    A (W, m) grid holds W windows, one per row (module docstring): A and
    k then take the row index w as their last argument, and the result is
    the list of W row results, each a report or a list of S reports as
    above.  All rows share one level loop, and a row's points leave it
    once its samples have all stopped, so row w's reports equal those of
    A(·, w) and k(·, ·, w) on the grid of row w alone, except that their
    levels hold the shared A and k.
    """
    grid = np.linspace(*A.domain, 33) if grid is None else np.asarray(grid, dtype=float)
    windowed = grid.ndim == 2 and grid.size > 0
    nodes = np.array([check_grid(row, 1) for row in (grid if windowed else [grid])])
    n_windows, m = nodes.shape
    # every window's nodes on one time axis, each point with its window index
    t = nodes.ravel()
    wins = [np.repeat(np.arange(n_windows), m)] if windowed else []

    A_i, k_i = A, per_point(k, A.domain, "kernel")
    a_grid = A(t, *wins)
    stacked = a_grid.ndim == 4
    # a stacked chain's S is the kernel's: A may have a sample axis of size 1
    k_grid = k_i(t, t, *wins) if stacked else None
    n_samples = k_grid.shape[1] if stacked else 1
    levels = [[[] for _ in range(n_samples)] for _ in range(n_windows)]
    reports: list = [[None] * n_samples for _ in range(n_windows)]
    running = np.arange(n_windows)
    for level in range(NU_MAX + 1):
        rank, v, dets = _factored(a_grid)
        shape = (running.size, m, n_samples)
        ranks = np.broadcast_to(rank.reshape(running.size, m, -1), shape)
        dets = np.broadcast_to(dets.reshape(running.size, m, -1), shape)
        varies = ranks != ranks[:, :1]
        constant = (~np.any(varies, axis=1)).tolist()
        first = ranks[:, 0].tolist()
        for i, w in enumerate(running.tolist()):
            for j in range(n_samples):
                if reports[w][j] is not None:
                    continue
                rank_j = first[i][j] if constant[i][j] else None
                levels[w][j].append(ChainLevel(level, A_i, k_i, rank_j, dets[i, :, j]))
                if rank_j is None:
                    t_bad = float(nodes[w][int(np.argmax(varies[i, :, j]))])
                    reports[w][j] = IndexReport(None, levels[w][j], nodes[w],
                                                ChainStatus("non-constant-rank", level, t_bad))
                elif rank_j == a_grid.shape[-1]:
                    reports[w][j] = IndexReport(level, levels[w][j], nodes[w], ChainStatus("ok"))
        going = np.array([None in reports[w] for w in running.tolist()])
        if level == NU_MAX or not going.any():
            break
        rows = np.repeat(going, m)
        running, t, wins = running[going], t[rows], [idx[rows] for idx in wins]
        k_grid = k_i(t, t, *wins) if k_grid is None else k_grid[rows]
        A_i, k_i = chain_step(A_i, k_i)
        a_grid, k_grid = a_grid[rows] + v[rows] @ k_grid, None
    results = [[IndexReport(None, lev, row, ChainStatus("exceeded-max-level", NU_MAX))
                if rep is None else rep for rep, lev in zip(reps, levs)]
               for reps, levs, row in zip(reports, levels, nodes)]
    results = [reps if stacked else reps[0] for reps in results]
    return results if windowed else results[0]


def rhs_chain(f: Callable[[float], np.ndarray], levels) -> list:
    """Right-hand-side companions F_0..F_n of the chain levels.

    F_0 = f and F_{i+1} is F_i lifted through level i's A_i by the
    kernel's rule, F_{i+1}(t) = d/dt[V_i(t) F_i(t)] + F_i(t), in a
    :class:`_Level` of its own: a call of F_{i+1} makes one call of F_i
    and one of A_i.  Returns one vectorized MatrixFunction per level, on
    level 0's domain: an (r,) vector at a float t, an (n, r) stack at an
    (n,) array.  A plain ``f`` is called once per point, and nothing is
    memoized.
    """
    if not levels:
        raise InvalidInputError("levels must be non-empty")
    domain = levels[0].A.domain
    f = per_point(f, domain, "f")
    # values travel as (n, r, 1) columns, so V_i F_i is the kernel's product
    columns = [lambda t: f(t).reshape(t.size, -1, 1)]
    for lev in levels[:-1]:
        below = lambda a, g, A_i=lev.A, F_i=columns[-1]: (A_i(*a), F_i(*g))  # noqa: E731
        columns.append(_Level(below, domain).g)
    return [MatrixFunction(eval=lambda t, g=g: g(t)[..., 0], domain=domain, vectorized=True)
            for g in columns]


@dataclass
class ConsistencyReport:
    """Initial-data compatibility across chain levels at t0.

    Condition i measures ‖A_i(t0)·A_ν(t0)^{-1}·F_ν(t0) − F_i(t0)‖; all must
    vanish (within ``CONSISTENCY_TOL``, which ``to_dict`` reports as ``tol``)
    for the reduced second-kind system to share its solution with the
    original one.
    """

    t0: float
    defects: list
    passes: list
    condition_number: float

    @property
    def ok(self) -> bool:
        return all(self.passes)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok, "tol": CONSISTENCY_TOL}


def consistency_check(levels, F_list) -> ConsistencyReport:
    """Check the start-point compatibility conditions of a completed chain.

    The conditions are checked at t0, the start of A_ν's domain: the lower
    limit of the integrals, where every integral term vanishes.  At a
    later time consistent start data would not satisfy them.  Requires
    ν ≥ 1 levels of reduction and the matching rhs chain.  A
    numerically singular A_ν(t0) (:func:`~daekit.linalg.numerical_rank`)
    is an error.  A full-rank one has condition number below
    1/``DEFAULT_RANK_TOL``, so no second conditioning test follows.
    """
    nu = len(levels) - 1
    if nu < 1:
        raise InvalidInputError("need at least one reduction level")
    if len(F_list) < nu + 1:
        raise InvalidInputError(f"need {nu + 1} rhs functions, got {len(F_list)}")
    A_nu = levels[-1].A
    t0 = float(A_nu.domain[0])
    m = A_nu(t0)
    if numerical_rank(m) < m.shape[0]:
        raise InconsistentChainError(
            f"final chain matrix is numerically singular at t0={t0}")
    x = np.linalg.solve(m, np.atleast_1d(np.asarray(F_list[nu](t0), dtype=float)))
    defects, passes = [], []
    for i in range(nu):
        lhs = levels[i].A(t0) @ x
        rhs = np.atleast_1d(np.asarray(F_list[i](t0), dtype=float))
        d = norm2(lhs - rhs)
        defects.append(d)
        passes.append(d <= CONSISTENCY_TOL)
    return ConsistencyReport(t0=t0, defects=defects, passes=passes,
                             condition_number=float(np.linalg.cond(m)))


def linear_kernel(p, eta=None) -> MatrixFunction:
    """Kernel of the linear integral problem whose chain gives the index of p.

    * LinearDAE:        (t, s) ↦ B(s) − A′(s)
    * SemiNonlinearDAE: (t, s) ↦ F_y(s, η(s)) − A′(s)
    * SemiNonlinearIAE: (t, s) ↦ κ_y(t, s, η(s))

    A DAE is integrated by parts over [t_start, t] first, which is where
    −A′ comes from; A′ uses the declared derivative when present.  ``eta``
    is the :class:`~daekit.problems.Trajectory` to linearize along, a fixed
    vector, or an (S, r) stack of fixed vectors; a LinearDAE ignores it.  A
    stack gives kernel values with a sample axis, shape (S, r, r), whose
    slice j is the kernel at eta[j].  A (W, S, r) stack, one (S, r) stack
    per row of a chain of windows, gives the kernel k(t, s, w) of row w's
    stack eta[w].

    The kernel is a vectorized MatrixFunction k(t, s) on A's domain, like a
    chain level.  A LinearDAE's reads s alone: an array call evaluates B
    and A′ once per distinct s (told apart by its bits, so ±0.0 are two).
    Another's makes one Jacobian call on all its points (and samples), and
    the first call of each kernel checks the batch shape (r, r, M)
    (:func:`~daekit.problems.batch_checked`).
    """
    if isinstance(p, LinearDAE):
        def of_s(t: np.ndarray, s: np.ndarray) -> np.ndarray:
            # one evaluation per distinct s, told apart by its bits
            _, first, inverse = np.unique(np.ascontiguousarray(s).view(np.uint64),
                                          return_index=True, return_inverse=True)
            u = s[first]
            return (p.B(u) - matfn_derivative(p.A, u))[inverse]

        return MatrixFunction(eval=of_s, domain=p.A.domain, name="kernel", vectorized=True)
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError(f"no linear kernel for a {type(p).__name__}")
    if eta is None:
        raise InvalidInputError("a semi-nonlinear problem needs eta to linearize along")
    if isinstance(eta, Trajectory):
        at = eta
    else:
        v = np.asarray(eta, dtype=float)

        def at(s, *w):
            if w:
                return v[w[0].astype(np.intp)]
            return np.broadcast_to(v, s.shape + v.shape)
    dae = isinstance(p, SemiNonlinearDAE)
    jac = batch_checked(p.jacobian if dae else p.kappa_jacobian, (p.r, p.r), JACOBIAN_CONTRACT)

    def kernel(t: np.ndarray, s: np.ndarray, *w) -> np.ndarray:
        y = at(s, *w)                               # (n, r) or (n, S, r)
        lead = y.shape[:-1]
        col = lead[:1] + (1,) * (len(lead) - 1)     # a per-point value across samples

        def spread(a: np.ndarray) -> np.ndarray:
            return np.broadcast_to(a.reshape(col), lead).ravel()

        points = y.reshape(-1, p.r).T               # (r, M), point-major
        # an η far from the solution may overflow the Jacobian: the
        # kernel's finiteness check then raises the typed error
        with np.errstate(over="ignore", invalid="ignore"):
            k = jac(spread(s), points) if dae else jac(spread(t), spread(s), points)
        k = np.moveaxis(k, -1, 0).reshape(lead + (p.r, p.r))
        if dae:
            k = k - matfn_derivative(p.A, s).reshape(col + (p.r, p.r))
        return k

    return MatrixFunction(eval=kernel, domain=p.A.domain, name="kernel", vectorized=True)


def dae_to_iae(p: LinearDAE) -> LinearIAE:
    """Rewrite A y′ + B y = f as a first/second-kind integral system.

    Integrating by parts over [t_start, t] gives the kernel
    (t, s) ↦ B(s) − A′(s) of :func:`linear_kernel` and right side
    A(t_start)·y(t_start) + ∫ f(s) ds, with y(t_start) from
    :func:`~daekit.problems.start_value`; a problem with no start value
    keeps ∫ f(s) ds alone.  The kernel alone determines the index; it is
    free of t, and the problem declares so.
    """
    y_start = start_value(p, p.t_start)
    start = None if y_start is None else p.A(p.t_start) @ y_start
    # the F chain's nested stencils revisit times: the index-4 Hessenberg
    # consistency check asks for the right side 1,141 times at 23 distinct
    # times, so without this memo it would run 1,141 quadratures, not 23
    cache: dict[float, np.ndarray] = {}

    def rhs(t: float) -> np.ndarray:
        got = cache.get(t)
        if got is None:
            got = quadrature(lambda s: np.atleast_1d(p.f(s)), p.t_start, t, QUAD_TOL)
            if start is not None:
                got = start + got
            cache[t] = got
        return got

    return LinearIAE(A=p.A, k=linear_kernel(p), f=rhs, r=p.r, T=p.T,
                     t_start=p.t_start, name=f"{p.name}-as-iae" if p.name else "",
                     exact=p.exact, kernel_free_of_t=True)

