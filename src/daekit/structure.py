"""Linearization along trajectories, pointwise index, and structure classification.

A semi-nonlinear problem is linearized by replacing F (or κ) with its
Jacobian evaluated along a trajectory η.  The index of the resulting linear
pair may depend on where η sits:

* well structure      -- same index for every value of the unknowns,
* free structure      -- index depends on the unknowns; subdivided into
  independent form (index constant along the exact solution on the working
  interval) and dependent form (it changes there; the crossing times are
  the critical points).

The pointwise index at time t freezes η at traj(t) over the window
[t − WINDOW, t + WINDOW], sampled at WINDOW_POINTS times, and runs the
reduction chain there.  Freezing matters: letting η vary inside
the window makes the chain ranks non-constant exactly at transitions.

Index transitions live on thin sets (for the built-in problems, the
surface y₁ = 0), so random sampling alone essentially never lands on one.
Classification therefore looks for three kinds of evidence that the index
depends on the unknowns: the pointwise index actually differing somewhere,
a declared critical condition changing sign over the sampled neighborhood,
and the determinant of the final chain matrix changing sign over it (a
sign change means some intermediate η is singular, so the index differs
there).  The determinant argument assumes the lower chain levels keep
their rank between the compared points, which holds for the built-in
problems.

At each grid point the ball samples go through one
:func:`frozen_index_report` call on their (S, r) stack of η's: one chain
whose level values carry a sample axis, (n, S, r, r), gives every
sample's ν, and its A_ν at t gives all S determinants in one stacked
``det``.  The centre keeps its own chain through :func:`pointwise_index`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import IndexReport, chain_step, linear_kernel, rank_degree_index
from .errors import ClassificationUnreliableError, DomainError, InvalidInputError
from .linalg import DEFAULT_RANK_TOL, MatrixFunction
from .problems import (
    LinearIAE,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    TrajectorySample,
)


# the frozen window around t: half-width and number of sample times
WINDOW = 0.05
WINDOW_POINTS = 9
# time resolution of every bisection for a sign change of a critical
# condition or of the final chain determinant
TIME_TOL = 1e-6


def _restrict(mf: MatrixFunction, lo: float, hi: float) -> MatrixFunction:
    return replace(mf, domain=(float(lo), float(hi)))


def linearize_iae(p: SemiNonlinearIAE | SemiNonlinearDAE,
                  traj: TrajectorySample) -> LinearIAE:
    """Linear IAE of the error equation along ``traj``, kernel from :func:`linear_kernel`.

    For an IAE the kernel is (t,s) ↦ κ_y(t, s, traj(s)); for a DAE it is the
    integrated linearization (t,s) ↦ F_y(s, traj(s)) − A′(s).  The
    right-hand side is irrelevant for index analysis and is set to zero.
    """
    return LinearIAE(A=p.A, k=linear_kernel(p, traj), f=lambda t: np.zeros(p.r),
                     r=p.r, T=p.T, t_start=p.t_start,
                     name=f"{p.name}-linearized" if p.name else "")


def _window(p, traj: TrajectorySample, t: float):
    a = max(p.interval[0], traj.span[0])
    b = min(p.interval[1], traj.span[1])
    lo, hi = max(a, t - WINDOW), min(b, t + WINDOW)
    if hi - lo <= 1e-8:
        raise DomainError(
            f"window around t={t} degenerate within [{a}, {b}]")
    return lo, hi


def frozen_index_report(p, eta, t: float, traj: TrajectorySample,
                        tol: float = DEFAULT_RANK_TOL, nu_max: int = 4) -> IndexReport | list:
    """Chain report for the linearization frozen at ``eta``, on a window around t.

    An (S, r) stack of η's gives the list of S reports from one chain with
    a sample axis (see :func:`~daekit.chain.rank_degree_index`): level 0 is
    A repeated S times, and each report equals the single-η report of its
    sample except that its levels hold the shared chain.
    """
    lo, hi = _window(p, traj, t)
    grid = np.linspace(lo, hi, WINDOW_POINTS)
    eta = np.asarray(eta, dtype=float)
    a_loc = _restrict(p.A, lo, hi)
    if eta.ndim == 2:
        a_loc = MatrixFunction(
            eval=lambda ts, a=a_loc: np.repeat(a(ts)[:, None], len(eta), axis=1),
            domain=(lo, hi), vectorized=True)
    return rank_degree_index(a_loc, linear_kernel(p, eta), grid=grid, nu_max=nu_max, tol=tol)


def pointwise_index(p, traj: TrajectorySample, t: float, tol: float = DEFAULT_RANK_TOL,
                    nu_max: int = 4, full_output: bool = False):
    """Index of the linearization frozen at traj(t), or None if the chain fails.

    None means the constant-rank hypothesis broke or the level cap was hit
    inside the window; at actual transitions that is expected evidence,
    not an error.  With ``full_output`` the result is (ν, report), the
    report being the :func:`frozen_index_report` that ν was read from.
    """
    report = frozen_index_report(p, traj(t), t, traj, tol=tol, nu_max=nu_max)
    return (report.nu, report) if full_output else report.nu


def _blind_chain(A_i: MatrixFunction, k_i, steps: int, tol: float) -> MatrixFunction:
    """A_{i+steps} of the chain from (A_i, k_i), built without rank gating."""
    for _ in range(steps):
        A_i, k_i = chain_step(A_i, k_i, tol)
    return A_i


def _final_det(report: IndexReport, nu: int, t: float, tol: float):
    """det A_ν(t) from the chain a report built, stepped past the level where it stopped.

    A report of a chain with a sample axis gives the (S,) determinants of
    all its samples from one stacked ``det``.
    """
    lev = report.levels[min(nu, len(report.levels) - 1)]
    return np.linalg.det(_blind_chain(lev.A, lev.k, nu - lev.level, tol)(t))


def _bisect_zero(g: Callable[[float], float], lo: float, hi: float,
                 g_lo: float, time_tol: float = TIME_TOL) -> float:
    """Bisect a sign change of g on [lo, hi] down to time_tol."""
    for _ in range(200):
        if hi - lo <= time_tol:
            break
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_lo < 0.0) != (g_mid < 0.0):
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def _cluster(times: Sequence[float], tol: float) -> list:
    out: list[float] = []
    for t in sorted(times):
        if not out or t - out[-1] > tol:
            out.append(t)
    return out


def detect_critical_points(traj: TrajectorySample, conditions,
                           refine: bool = True, interval=None,
                           value_tol: float = 1e-8) -> list:
    """Times where a condition g(t, traj(t)) crosses or touches zero.

    Scans the trajectory's own sample times (clipped to ``interval``) for
    sign changes and for |g| dipping below ``value_tol``; with ``refine``
    each sign change is bisected on the interpolant down to ``TIME_TOL``.
    Returns (time, condition_index) pairs sorted by time.
    """
    if not conditions:
        raise InvalidInputError("conditions must be non-empty")
    a, b = traj.span if interval is None else (float(interval[0]), float(interval[1]))
    ts = traj.times[(traj.times >= a) & (traj.times <= b)]
    ts = np.unique(np.concatenate([[a], ts, [b]]))
    hits: list[tuple[float, int]] = []
    for cid, cond in enumerate(conditions):
        gs = np.array([float(cond(t, traj(t))) for t in ts])
        found: list[float] = []
        for j in range(ts.size - 1):
            if gs[j] == 0.0:
                found.append(float(ts[j]))
            elif gs[j] * gs[j + 1] < 0.0:
                if refine:
                    found.append(_bisect_zero(lambda tt: float(cond(tt, traj(tt))),
                                              float(ts[j]), float(ts[j + 1]), gs[j]))
                else:
                    found.append(float(0.5 * (ts[j] + ts[j + 1])))
        if gs[-1] == 0.0:
            found.append(float(ts[-1]))
        for j in range(ts.size):
            if 0.0 < abs(gs[j]) < value_tol:
                found.append(float(ts[j]))
        hits.extend((t, cid) for t in _cluster(found, 2.0 * TIME_TOL))
    return sorted(hits)


@dataclass
class IndexProfile:
    """Pointwise index along a trajectory plus the structure/form verdict."""

    times: list
    nu_at: list
    classification: str
    critical_points: list
    neighborhood_eps: float
    samples_per_point: int
    nu: Optional[int] = None
    window: float = WINDOW
    seed: int = 0
    undefined_fraction: float = 0.0
    evidence: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _ball_sample(rng: np.random.Generator, center: np.ndarray, eps: float) -> np.ndarray:
    direction = rng.normal(size=center.size)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.ones_like(center)
        norm = np.linalg.norm(direction)
    radius = eps * rng.uniform() ** (1.0 / center.size)
    return center + radius * direction / norm


def _sign_flip(values, floor_rel: float = 1e-12) -> bool:
    vals = np.asarray(values, dtype=float)
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    if scale == 0.0:
        return False
    floor = floor_rel * max(1.0, scale)
    return bool(np.min(vals) < -floor and np.max(vals) > floor)


def classify(p, traj: Optional[TrajectorySample] = None, eps: float = 0.1,
             n_perturb: int = 8, grid=None, seed: int = 0,
             tol: float = DEFAULT_RANK_TOL, nu_max: int = 4) -> IndexProfile:
    """Structure/form classification of a semi-nonlinear problem.

    For each grid point the pointwise index is computed at the trajectory
    and at ``n_perturb`` uniform draws from the eps-ball around it; the
    evidence listed in the module docstring decides well vs free structure.
    Critical points along the trajectory come from declared conditions,
    from sign changes of the final chain determinant, and (fallback) from
    bisecting jumps of the pointwise index itself.  Dependent form holds
    exactly when critical points were found inside the interval.

    Raises ClassificationUnreliableError when the pointwise index is
    undefined at more than 20% of the grid points.
    """
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError("classification applies to semi-nonlinear problems")
    if not 0 < eps < np.inf or n_perturb < 0:
        raise InvalidInputError("eps must be finite and positive and n_perturb non-negative")

    a0, b0 = p.interval
    if grid is None:
        grid = np.linspace(a0, b0, 21)
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InvalidInputError("grid must be increasing with at least two points")
    a, b = float(grid[0]), float(grid[-1])

    if traj is None:
        ts = np.linspace(a, b, 201)
        if getattr(p, "exact", None) is not None:
            traj = TrajectorySample.from_function(p.exact, ts)
        else:
            traj = TrajectorySample(times=ts, values=np.zeros((ts.size, p.r)))

    centre = [pointwise_index(p, traj, float(t), tol=tol, nu_max=nu_max, full_output=True)
              for t in grid]
    nu_at = [nu for nu, _ in centre]
    defined = [n for n in nu_at if n is not None]
    undefined_fraction = 1.0 - len(defined) / len(nu_at)
    if undefined_fraction > 0.2:
        raise ClassificationUnreliableError(
            f"pointwise index undefined at {undefined_fraction:.0%} of grid points")

    counts = Counter(defined)
    top = max(counts.values())
    nu_ref = min(v for v, c in counts.items() if c == top)

    evidence: list[str] = []
    free = False
    if any(n != nu_ref for n in defined):
        free = True
        evidence.append("pointwise index varies along the trajectory")

    conditions = tuple(getattr(p, "critical_conditions", ()) or ())
    rng = np.random.default_rng(seed)
    nu_flip = det_flip = cond_flip = False
    for t, (_, centre_rep) in zip(grid, centre):
        t = float(t)
        center = np.asarray(traj(t), dtype=float)
        etas = [_ball_sample(rng, center, eps) for _ in range(n_perturb)]
        dets = [_final_det(centre_rep, nu_ref, t, tol)]
        if etas:
            reps = frozen_index_report(p, etas, t, traj, tol=tol, nu_max=nu_max)
            if any(rep.nu != nu_ref for rep in reps):
                nu_flip = True
            # every report holds the shared chain; the longest holds most of it
            dets.extend(_final_det(max(reps, key=lambda rep: len(rep.levels)),
                                   nu_ref, t, tol))
        cond_signs = [[np.sign(float(c(t, eta))) for c in conditions]
                      for eta in [center, *etas]]
        if _sign_flip(dets):
            det_flip = True
        for ci in range(len(conditions)):
            col = [row[ci] for row in cond_signs if row[ci] != 0.0]
            if col and (min(col) < 0.0 < max(col)):
                cond_flip = True
    if nu_flip:
        free = True
        evidence.append("pointwise index varies across sampled neighborhoods")
    if det_flip:
        free = True
        evidence.append("final chain determinant changes sign across sampled neighborhoods")
    if cond_flip:
        free = True
        evidence.append("a declared critical condition changes sign across sampled neighborhoods")

    # critical points along the trajectory
    crit: list[float] = []
    if conditions:
        crit.extend(t for t, _ in detect_critical_points(
            traj, conditions, refine=True, interval=(a, b)))
    a_ref = _blind_chain(_restrict(p.A, a, b), linear_kernel(p, traj), nu_ref, tol)
    traj_dets = np.linalg.det(a_ref(grid))
    floor = 1e-12 * max(1.0, float(np.max(np.abs(traj_dets))))
    for j in range(grid.size - 1):
        d0, d1 = traj_dets[j], traj_dets[j + 1]
        if (d0 < -floor and d1 > floor) or (d0 > floor and d1 < -floor):
            crit.append(_bisect_zero(lambda tt: float(np.linalg.det(a_ref(tt))),
                                     float(grid[j]), float(grid[j + 1]), d0))
    # fallback: bisect jumps of the pointwise index itself
    for j in range(grid.size - 1):
        n0, n1 = nu_at[j], nu_at[j + 1]
        if n0 is None or n1 is None or n0 == n1:
            continue
        lo_t, hi_t = float(grid[j]), float(grid[j + 1])
        if any(lo_t <= c <= hi_t for c in crit):
            continue
        crit.append(_bisect_zero(
            lambda tt: 1.0 if pointwise_index(p, traj, tt, tol=tol, nu_max=nu_max) == n0
            else -1.0, lo_t, hi_t, 1.0, 1e-3))

    crit = _cluster([c for c in crit if a <= c <= b], 2e-3)
    if crit:
        free = True
        evidence.append("critical points located along the trajectory")

    if not free:
        classification = "well-structure"
    elif crit:
        classification = "free-structure-dependent"
    else:
        classification = "free-structure-independent"

    return IndexProfile(times=list(map(float, grid)), nu_at=nu_at,
                        classification=classification, critical_points=crit,
                        neighborhood_eps=eps, samples_per_point=n_perturb,
                        nu=nu_ref, seed=seed,
                        undefined_fraction=undefined_fraction, evidence=evidence)
