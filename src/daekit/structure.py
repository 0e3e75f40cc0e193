"""Linearization along trajectories, pointwise index, and structure classification.

A semi-nonlinear problem is linearized by replacing F (or κ) with its
Jacobian evaluated along a trajectory η.  The index of the resulting linear
pair may depend on where η sits:

* well structure      -- same index for every value of the unknowns,
* free structure      -- index depends on the unknowns; subdivided into
  independent form (index constant along the exact solution on the working
  interval) and dependent form (it changes there; the crossing times are
  the critical points).

The pointwise index at time t freezes η at traj(t).  With η frozen the
linear chain is defined on the whole overlap of the problem's interval
and the trajectory's span, and runs there; its ranks are read at
WINDOW_POINTS nodes of the window [t − WINDOW, t + WINDOW] in it.
Freezing matters: letting η vary inside the window makes the chain ranks
non-constant exactly at transitions.

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

Every grid point of classify goes through one chain: :func:`pointwise_index`
with the (n,) grid and an (n, S, r) ``ball`` makes one
:func:`frozen_index_report` call on the (n, 1 + S, r) stack of η's,
each point's centre traj(t) followed by its ball samples.  That chain
runs on the overlap, with one window's nodes per row of an (n, m) grid;
row i's kernel reads point i's η's, and its level values carry a sample
axis, (N, 1 + S, r, r); level 0 has a sample axis of size 1, as A does
not depend on η.  A row leaves the level loop once all its η's have
stopped, so each point's ν and reports are those of its own chain, bit
for bit.  The determinants of A_ν at t are read from the ``det`` the
chain stored when t is a window node and every η of the window reached
level ν, and otherwise come from A_ν at the points' times in one
:func:`~daekit.linalg.det` call, one LU per distinct matrix.  As every window is evaluated before any ν is read, an
evaluation error at any grid point (a degenerate window, a non-finite
kernel) is raised even where the 20% refusal of classify would have
come first at an earlier point.

Along any trajectory, a solve's included, :func:`detect_critical_points`
locates where a declared condition g(t, y) crosses or touches zero, and
:func:`monitor` warns at every knot where |g| drops below
``WARN_THRESHOLD`` or g changes sign: the one critical-condition monitor,
read after a solve of either solver rather than kept inside its loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import IndexReport, chain_step, linear_kernel, rank_degree_index
from .errors import (ClassificationUnreliableError, DomainError, ExtrapolationError,
                     InvalidInputError)
from .linalg import MatrixFunction, check_grid, check_span, det, norm2
from .problems import (
    LinearIAE,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    Trajectory,
    TrajectorySample,
)


# the frozen window around t: half-width and number of sample times
WINDOW = 0.05
WINDOW_POINTS = 9
# time resolution of every bisection for a sign change of a critical
# condition or of the final chain determinant
TIME_TOL = 1e-6
# |g| below this at a knot time counts as a touch of a critical condition
VALUE_TOL = 1e-8
# |g| below this at a knot time is a monitor warning
WARN_THRESHOLD = 1e-2
# the η's drawn from the eps-ball around each grid point of classify
N_PERTURB = 8
# a determinant counts as negative or positive only beyond this many times
# the largest |det| compared (at least 1)
DET_FLOOR = 1e-12


@dataclass(frozen=True)
class MonitorWarning:
    """A critical condition near zero or changing sign at a knot (:func:`monitor`)."""

    t: float
    condition: int
    value: float

    def to_dict(self) -> dict:
        return asdict(self)


def _restrict(mf: MatrixFunction, lo: float, hi: float) -> MatrixFunction:
    return replace(mf, domain=(float(lo), float(hi)))


def linearize_iae(p: SemiNonlinearIAE | SemiNonlinearDAE, traj: Trajectory) -> LinearIAE:
    """Linear IAE of the error equation along ``traj``, kernel from :func:`linear_kernel`.

    For an IAE the kernel is (t,s) ↦ κ_y(t, s, traj(s)); for a DAE it is the
    integrated linearization (t,s) ↦ F_y(s, traj(s)) − A′(s).  The
    right-hand side is irrelevant for index analysis and is set to zero.
    A, the kernel and the interval are those of the overlap of the
    problem's interval and traj's span, so the chain's stencils stay
    where the trajectory is; a trajectory that misses the interval raises
    ExtrapolationError.
    """
    lo, hi = max(p.t_start, traj.span[0]), min(p.T, traj.span[1])
    if lo >= hi:
        raise ExtrapolationError(f"the trajectory's span {traj.span} does not overlap "
                                 f"the problem's interval {p.interval}")
    return LinearIAE(A=_restrict(p.A, lo, hi), k=_restrict(linear_kernel(p, traj), lo, hi),
                     f=lambda t: np.zeros(p.r), r=p.r, T=hi, t_start=lo,
                     name=f"{p.name}-linearized" if p.name else "")


def _window(p, traj: Trajectory, t):
    """The overlap (a, b) of the problem's interval and traj's span, and
    the WINDOW_POINTS nodes of the window around t in it: an (m,) row, or
    an (n, m) grid, one row per time of an (n,) array."""
    a = max(p.interval[0], traj.span[0])
    b = min(p.interval[1], traj.span[1])
    lo, hi = np.maximum(a, np.subtract(t, WINDOW)), np.minimum(b, np.add(t, WINDOW))
    narrow = hi - lo <= 1e-8
    if np.any(narrow):
        raise DomainError(f"window around t={np.ravel(t)[np.argmax(narrow)]} "
                          f"degenerate within [{a}, {b}]")
    return (a, b), np.linspace(lo, hi, WINDOW_POINTS, axis=-1)


def frozen_index_report(p, eta, t, traj: Trajectory) -> IndexReport | list:
    """Chain report for the linearization frozen at ``eta``, read on the
    window around t.

    With η frozen, the chain is defined on the whole overlap of the
    problem's interval and traj's span: its levels live there, and their
    stencils may reach past the window.  The window only places the
    WINDOW_POINTS nodes of the report's grid.

    An (S, r) stack of η's gives the list of S reports from one chain with
    a sample axis (see :func:`~daekit.chain.rank_degree_index`): level 0 is
    A with a sample axis of size 1, which broadcasts against the kernel's
    S, and each report equals the single-η report of its sample except
    that its levels hold the shared chain.

    An (n,) array of times with an (n, S, r) stack, one (S, r) stack per
    time, gives the list of n such lists from one chain on an (n, m) grid,
    row i the window around t[i], and its kernel reads eta[i] in row i.
    List i equals the report list of t[i] and eta[i] except that its levels
    hold the batched chain, whose A_i and k_i take the row index i as their
    last argument: A_i(t, i), k_i(t, s, i).
    """
    domain, grid = _window(p, traj, t)
    eta = np.asarray(eta, dtype=float)
    if np.ndim(t) and (eta.ndim != 3 or len(eta) != len(grid)):
        raise InvalidInputError("an (n,) array of times needs an (n, S, r) stack of η's")
    if eta.ndim == 1:
        a_loc = _restrict(p.A, *domain)
    else:
        a_loc = MatrixFunction(eval=lambda ts, *w: p.A(ts)[:, None], domain=domain,
                               vectorized=True)
    return rank_degree_index(a_loc, linear_kernel(p, eta), grid=grid)


def pointwise_index(p, traj: Trajectory, t, ball=None):
    """Index of the linearization frozen at traj(t), or None if the chain fails.

    None means the constant-rank hypothesis broke or the level cap was hit
    inside the window; at actual transitions that is expected evidence,
    not an error.  With ``ball``, an (S, r) stack of η's (S may be 0), the
    result is (ν, reports): the :func:`frozen_index_report` list of
    [traj(t), *ball] from one chain, ν read from reports[0].  An (n,) array
    of times with an (n, S, r) ``ball`` gives the list of n such pairs,
    pair i that of t[i] and ball[i], all from one chain.
    """
    if ball is None:
        return frozen_index_report(p, traj(t), t, traj).nu
    centre = traj(t)
    ball = np.asarray(ball, dtype=float).reshape(centre.shape[:-1] + (-1, p.r))
    reports = frozen_index_report(p, np.concatenate([centre[..., None, :], ball], axis=-2),
                                  t, traj)
    if np.ndim(t):
        return [(reps[0].nu, reps) for reps in reports]
    return reports[0].nu, reports


def _blind_chain(A_i: MatrixFunction, k_i, steps: int) -> MatrixFunction:
    """A_{i+steps} of the chain from (A_i, k_i), built without rank gating."""
    for _ in range(steps):
        A_i, k_i = chain_step(A_i, k_i)
    return A_i


def _final_det(reports: list, nu: int, t) -> np.ndarray:
    """det A_ν(t) of each report's sample: the (S,) determinants of S
    reports that share one chain (a single report is S = 1), or at an (n,)
    array of times the (n, S) determinants of the n report lists of a chain
    of windows, row i at t[i] with row index i.

    When every report of a window reached level ν and t is a node of its
    grid, the determinants are read from the level's ``det``.  Otherwise
    the chain of the window's longest report is stepped past the level
    where it stopped and evaluated at t, all samples in one
    :func:`~daekit.linalg.det` call, and all windows that start from the
    same level in one call.
    """
    windowed = np.ndim(t) == 1
    times = np.atleast_1d(t)
    windows = reports if windowed else [reports]
    out = np.empty((times.size, len(windows[0])))
    blind: dict = {}
    for i, (ti, reps) in enumerate(zip(times.tolist(), windows)):
        node = np.flatnonzero(reps[0].grid == ti)
        if node.size and all(len(rep.levels) > nu for rep in reps):
            out[i] = [rep.levels[nu].det[node[0]] for rep in reps]
        else:
            longest = max(reps, key=lambda rep: len(rep.levels))
            lev = longest.levels[min(nu, len(longest.levels) - 1)]
            blind.setdefault(lev.level, (lev, []))[1].append(i)
    for lev, rows in blind.values():
        A_nu = _blind_chain(lev.A, lev.k, nu - lev.level)
        dets = det(A_nu(times[rows], *([rows] if windowed else [])))
        # a level 0 of a stacked chain has one sample for all
        out[rows] = dets.reshape(len(rows), -1)
    return out if windowed else out[0]


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


def detect_critical_points(traj: Trajectory, conditions, interval=None) -> list:
    """Times where a condition g(t, traj(t)) crosses or touches zero.

    Scans the trajectory's knot times (clipped to ``interval``) for
    |g| below ``VALUE_TOL`` and for sign changes, each bisected on the
    interpolant down to ``TIME_TOL``.
    Returns (time, condition_index) pairs sorted by time.
    """
    if not conditions:
        raise InvalidInputError("conditions must be non-empty")
    a, b = traj.span if interval is None else (float(interval[0]), float(interval[1]))
    ts = traj.times[(traj.times >= a) & (traj.times <= b)]
    ts = np.unique(np.concatenate([[a], ts, [b]]))
    hits: list[tuple[float, int]] = []
    for cid, cond in enumerate(conditions):
        gs = np.array([float(cond(t, y)) for t, y in zip(ts, traj(ts))])
        found = ts[np.abs(gs) < VALUE_TOL].tolist()
        for j in np.flatnonzero(gs[:-1] * gs[1:] < 0.0):
            found.append(_bisect_zero(lambda tt: float(cond(tt, traj(tt))),
                                      float(ts[j]), float(ts[j + 1]), gs[j]))
        hits.extend((t, cid) for t in _cluster(found, 2.0 * TIME_TOL))
    return sorted(hits)


def monitor(traj: Trajectory, conditions) -> list:
    """Warnings of the critical conditions g(t, traj(t)) at the knot times.

    At each of ``traj.times``, in time order and then condition by
    condition, a :class:`MonitorWarning` records g when |g| <
    ``WARN_THRESHOLD`` or when g changed sign since the previous knot, so
    a trajectory drifting into a critical set is flagged where it comes
    close, crossing or not.  A solve's trajectory gives its accepted values
    at its knots, and the monitor never steers a step, so reading it after
    the solve gives the warnings of a watch kept during it.  No conditions
    (a linear problem has none) give no warnings, without evaluating traj.
    """
    if not conditions:
        return []
    # 0·g < 0 never holds, so the first knot warns only near zero
    warnings, prev = [], [0.0] * len(conditions)
    for t, y in zip(traj.times.tolist(), traj(traj.times)):
        for cid, cond in enumerate(conditions):
            g = float(cond(t, y))
            if abs(g) < WARN_THRESHOLD or prev[cid] * g < 0.0:
                warnings.append(MonitorWarning(t, cid, g))
            prev[cid] = g
    return warnings


@dataclass
class IndexProfile:
    """Pointwise index along a trajectory plus the structure/form verdict:
    free structure exactly when ``evidence`` is non-empty.  ``to_dict`` adds
    the constants ``N_PERTURB`` and ``WINDOW`` as ``samples_per_point`` and
    ``window``."""

    times: list
    nu_at: list
    classification: str
    critical_points: list
    neighborhood_eps: float
    nu: Optional[int] = None
    seed: int = 0
    undefined_fraction: float = 0.0
    evidence: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "samples_per_point": N_PERTURB, "window": WINDOW}


def _ball_sample(rng: np.random.Generator, center: np.ndarray, eps: float) -> np.ndarray:
    direction = rng.normal(size=center.size)
    norm = norm2(direction)
    if norm == 0.0:
        direction = np.ones_like(center)
        norm = norm2(direction)
    radius = eps * rng.uniform() ** (1.0 / center.size)
    return center + radius * direction / norm


def _det_signs(dets) -> np.ndarray:
    """The sign of each determinant, 0 unless beyond ``DET_FLOOR`` times
    max(1, the largest |det| compared): classify's one sign test."""
    dets = np.asarray(dets, dtype=float)
    floor = DET_FLOOR * max(1.0, float(np.max(np.abs(dets))))
    return np.sign(dets) * (np.abs(dets) > floor)


def classify(p, traj: Optional[Trajectory] = None, eps: float = 0.1,
             grid=None, seed: int = 0) -> IndexProfile:
    """Structure/form classification of a semi-nonlinear problem along ``traj``.

    ``traj`` is any :class:`~daekit.problems.Trajectory`, a solve's result
    included; by default ``p.exact`` (else y ≡ 0) sampled on the grid's span.
    For each grid point the pointwise index is computed at the trajectory
    and at ``N_PERTURB`` uniform draws from the eps-ball around it, every
    point's window in one chain (one :func:`pointwise_index` call on the
    whole grid, see the module docstring); the evidence listed there
    decides well vs free structure.
    Critical points along the trajectory come from declared conditions,
    from sign changes of the final chain determinant, and (fallback) from
    bisecting jumps of the pointwise index itself.  Dependent form holds
    exactly when critical points were found inside the interval.

    The grid (``check_grid``, default 21 points) must lie in the problem's
    interval and traj's span.  Raises ClassificationUnreliableError when the
    pointwise index is undefined at more than 20% of the grid points,
    naming the first grid point that takes the count past 20%.  The one
    chain evaluates every point first, so an evaluation error anywhere on
    the grid comes before that refusal.
    """
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError("classification applies to semi-nonlinear problems")
    if not 0 < eps < np.inf:
        raise InvalidInputError("eps must be finite and positive")

    a0, b0 = p.interval
    grid = check_grid(np.linspace(a0, b0, 21) if grid is None else grid, 2)
    check_span(grid, a0, b0, f"problem {p.name!r} (grid)", InvalidInputError)
    a, b = float(grid[0]), float(grid[-1])

    if traj is None:
        ts = np.linspace(a, b, 201)
        if getattr(p, "exact", None) is not None:
            traj = TrajectorySample.from_function(p.exact, ts)
        else:
            traj = TrajectorySample(times=ts, values=np.zeros((ts.size, p.r)))
    check_span(grid, *traj.span, "the trajectory (grid)", InvalidInputError)

    # the ball samples are drawn point by point in grid order, and every
    # point's window goes through one chain
    rng = np.random.default_rng(seed)
    centers = traj(grid)
    balls = np.array([[_ball_sample(rng, center, eps) for _ in range(N_PERTURB)]
                      for center in centers])
    points = pointwise_index(p, traj, grid, ball=balls)
    nu_at = [nu for nu, _ in points]
    # the undefined fraction only grows along the grid: the refusal names
    # the first point that takes it past 20%
    undefined = 0
    for t, nu in zip(grid.tolist(), nu_at):
        undefined += nu is None
        undefined_fraction = 1.0 - (grid.size - undefined) / grid.size
        if undefined_fraction > 0.2:
            raise ClassificationUnreliableError(
                f"pointwise index undefined at {undefined} of {grid.size} "
                f"grid points by t={t:g}: over 20%")

    defined = [n for n in nu_at if n is not None]
    counts = Counter(defined)
    top = max(counts.values())
    nu_ref = min(v for v, c in counts.items() if c == top)

    evidence: list[str] = []
    if any(n != nu_ref for n in defined):
        evidence.append("pointwise index varies along the trajectory")

    conditions = tuple(getattr(p, "critical_conditions", ()) or ())
    nu_flip = det_flip = cond_flip = False
    dets = _final_det([reports for _, reports in points], nu_ref, grid)
    for t, center, etas, (_, reports), point_dets in zip(grid.tolist(), centers, balls, points, dets):
        if any(rep.nu != nu_ref for rep in reports[1:]):
            nu_flip = True
        signs = _det_signs(point_dets)
        if signs.min() < 0.0 < signs.max():
            det_flip = True
        cond_signs = [[np.sign(float(c(t, eta))) for c in conditions]
                      for eta in [center, *etas]]
        for ci in range(len(conditions)):
            col = [row[ci] for row in cond_signs if row[ci] != 0.0]
            if col and (min(col) < 0.0 < max(col)):
                cond_flip = True
    if nu_flip:
        evidence.append("pointwise index varies across sampled neighborhoods")
    if det_flip:
        evidence.append("final chain determinant changes sign across sampled neighborhoods")
    if cond_flip:
        evidence.append("a declared critical condition changes sign across sampled neighborhoods")

    # critical points along the trajectory
    crit: list[float] = []
    if conditions:
        crit.extend(t for t, _ in detect_critical_points(traj, conditions, interval=(a, b)))
    a_ref = _blind_chain(_restrict(p.A, a, b), linear_kernel(p, traj), nu_ref)
    traj_dets = det(a_ref(grid))
    signs = _det_signs(traj_dets)
    for j in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        crit.append(_bisect_zero(lambda tt: float(det(a_ref(tt))),
                                 float(grid[j]), float(grid[j + 1]), traj_dets[j]))
    # fallback: bisect jumps of the pointwise index itself
    for j in range(grid.size - 1):
        n0, n1 = nu_at[j], nu_at[j + 1]
        if n0 is None or n1 is None or n0 == n1:
            continue
        lo_t, hi_t = float(grid[j]), float(grid[j + 1])
        if any(lo_t <= c <= hi_t for c in crit):
            continue
        crit.append(_bisect_zero(
            lambda tt: 1.0 if pointwise_index(p, traj, tt) == n0 else -1.0,
            lo_t, hi_t, 1.0, 1e-3))

    crit = _cluster([c for c in crit if a <= c <= b], 2e-3)
    if crit:
        evidence.append("critical points located along the trajectory")

    if not evidence:
        classification = "well-structure"
    elif crit:
        classification = "free-structure-dependent"
    else:
        classification = "free-structure-independent"

    return IndexProfile(times=list(map(float, grid)), nu_at=nu_at,
                        classification=classification, critical_points=crit,
                        neighborhood_eps=eps, nu=nu_ref, seed=seed,
                        undefined_fraction=undefined_fraction, evidence=evidence)
