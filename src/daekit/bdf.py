"""Fixed-step implicit BDF1/BDF2 solver for semi-nonlinear DAEs.

Each step solves the implicit system with a full Newton iteration (the
Jacobian is refreshed every iteration: near critical points F_y changes
character, and a stale Jacobian would muddy the diagnosis).  The algebraic
rows are enforced by Newton at every accepted point rather than integrated,
so algebraic components are exact up to the Newton tolerance whenever the
system determines them.

Newton failures are data, not exceptions: near an index change divergence
is the expected observation.  The solver first retries the step with up to
``max_halvings`` local halvings (first-order substeps), recording each
attempt; if those fail too, it returns the trajectory computed so far with
a failure record attached.

A monitor evaluates the problem's critical conditions at every accepted
point and warns whenever |g| drops below ``WARN_THRESHOLD`` or g changes
sign, so a solution component drifting into a critical set is flagged as
it happens rather than discovered from the blown-up error afterwards.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InvalidInputError
from .linalg import NEWTON_MAX_ITER, newton
from .problems import SemiNonlinearDAE, mesh_steps, probe_points


WARN_THRESHOLD = 1e-2


@dataclass
class DaeSolveConfig:
    h: float
    order: int = 1
    newton_tol: float = 1e-10
    max_halvings: int = 3

    def validate(self):
        if not 0 < self.h < np.inf:
            raise InvalidInputError("h must be finite and positive")
        if self.order not in (1, 2):
            raise InvalidInputError("order must be 1 or 2")
        if not 0 < self.newton_tol < np.inf:
            raise InvalidInputError("newton_tol must be finite and positive")
        if self.max_halvings < 0:
            raise InvalidInputError("max_halvings must be non-negative")


@dataclass(frozen=True)
class MonitorWarning:
    t: float
    condition: int
    value: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveResult:
    """Accepted trajectory plus per-step diagnostics.

    ``failure`` is None on a complete run; otherwise a record of where and
    why stepping stopped (times/values then cover only the solved span).
    """

    times: np.ndarray
    values: np.ndarray
    newton_iters: list
    monitor_warnings: list
    halvings: list
    failure: Optional[dict]
    config: DaeSolveConfig
    initial_defect: float = 0.0
    _spline: object = field(default=None, repr=False, compare=False)

    @property
    def success(self) -> bool:
        return self.failure is None

    def interpolant(self) -> CubicSpline:
        if self._spline is None:
            if self.times.size < 2:
                raise InvalidInputError("need at least two accepted points")
            self._spline = CubicSpline(self.times, self.values, axis=0,
                                       bc_type="natural")
        return self._spline

    def __call__(self, t):
        return self.interpolant()(t)

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "n_steps": int(self.times.size - 1),
            "t_span": [float(self.times[0]), float(self.times[-1])] if self.times.size else [],
            "newton_iters": [int(i) for i in self.newton_iters],
            "monitor_warnings": [w.to_dict() for w in self.monitor_warnings],
            "halvings": list(self.halvings),
            "failure": self.failure,
            "initial_defect": self.initial_defect,
            "config": {
                "h": self.config.h, "order": self.config.order,
                "newton_tol": self.config.newton_tol,
                "newton_max_iter": NEWTON_MAX_ITER,
                "warn_threshold": WARN_THRESHOLD,
                "max_halvings": self.config.max_halvings,
            },
        }


def _newton(p: SemiNonlinearDAE, t_new: float, c: float, d: np.ndarray,
            y_guess: np.ndarray, tol: float):
    """Solve c·A(t)·y − A(t)·d + F(t,y) = f(t) by Newton; (y, iters) or (None, iters)."""
    a = p.A(t_new)
    fv = np.atleast_1d(np.asarray(p.f(t_new), dtype=float))
    y, it, _, _ = newton(
        lambda y: c * (a @ y) - a @ d
        + np.atleast_1d(np.asarray(p.F(t_new, y), dtype=float)) - fv,
        lambda y: c * a + p.jacobian(t_new, y), y_guess, tol, NEWTON_MAX_ITER)
    return y, it


def _bdf1(p, t_n, y_n, h, cfg):
    return _newton(p, t_n + h, 1.0 / h, y_n / h, y_n, cfg.newton_tol)


def _halved(p, t_n, y_n, h, cfg, records, step_index):
    """Retry [t_n, t_n+h] with first-order substeps at h/2, h/4, ... ."""
    for halving in range(1, cfg.max_halvings + 1):
        m = 2 ** halving
        sub_h = h / m
        y, t = y_n, t_n
        total_iters = 0
        ok = True
        for i in range(m):
            y_next, its = _bdf1(p, t, y, sub_h, cfg)
            total_iters += its
            if y_next is None:
                ok = False
                break
            y, t = y_next, t_n + (i + 1) * sub_h
        records.append({"step": step_index, "t": t_n, "h_tried": sub_h,
                        "substeps": m, "newton_iters": total_iters,
                        "converged": ok})
        if ok:
            return y, total_iters
    return None, 0


def solve_dae(p: SemiNonlinearDAE, cfg: DaeSolveConfig, interval=None) -> SolveResult:
    """March A(t)y′ + F(t,y) = f from a to b on the fixed mesh a + n·h.

    The initial value is the problem's y0 when the interval starts at
    t_start, otherwise the exact solution at a (recorded in diagnostics);
    it must satisfy the algebraic rows.  Order 2 starts with one BDF1 step
    and extrapolates the Newton guess from the two previous points.
    """
    cfg.validate()
    if not isinstance(p, SemiNonlinearDAE):
        raise InvalidInputError("solve_dae expects a SemiNonlinearDAE")
    a, b = p.interval if interval is None else (float(interval[0]), float(interval[1]))
    lo, hi = p.interval
    if not (lo - 1e-9 <= a < b <= hi + 1e-9):
        raise InvalidInputError(f"interval [{a}, {b}] outside problem domain [{lo}, {hi}]")
    n_steps = mesh_steps(a, b, cfg.h)

    if abs(a - p.t_start) <= 1e-12 and p.y0 is not None:
        y0 = np.array(p.y0, dtype=float)
    elif p.exact is not None:
        y0 = np.atleast_1d(np.asarray(p.exact(a), dtype=float))
    else:
        raise InvalidInputError("no initial value available at the interval start")
    defect = p.consistency_defect(a, y0)
    if defect > 1e-6 * (1.0 + float(np.linalg.norm(np.atleast_1d(p.f(a))))):
        raise InvalidInputError(
            f"initial value violates the algebraic rows at t={a}: defect {defect:.3e}")

    times = [a]
    values = [y0]
    newton_iters: list[int] = []
    warnings: list[MonitorWarning] = []
    halvings: list[dict] = []
    failure = None
    prev_g = [float(g(a, y0)) for g in p.critical_conditions]
    for cid, gv in enumerate(prev_g):
        if abs(gv) < WARN_THRESHOLD:
            warnings.append(MonitorWarning(a, cid, gv))

    y_n = y0
    y_nm1 = None
    for step in range(n_steps):
        t_n = a + step * cfg.h
        t_new = a + (step + 1) * cfg.h
        if cfg.order == 2 and y_nm1 is not None:
            c = 1.5 / cfg.h
            d = (4.0 * y_n - y_nm1) / (2.0 * cfg.h)
            guess = 2.0 * y_n - y_nm1
        else:
            c = 1.0 / cfg.h
            d = y_n / cfg.h
            guess = y_n if y_nm1 is None else 2.0 * y_n - y_nm1
        y_new, its = _newton(p, t_new, c, d, guess, cfg.newton_tol)
        if y_new is None:
            y_new, more = _halved(p, t_n, y_n, cfg.h, cfg, halvings, step)
            its += more
        newton_iters.append(its)
        if y_new is None:
            failure = {"t": t_new, "step": step,
                       "reason": "Newton iteration did not converge "
                                 f"(after {cfg.max_halvings} local halvings)"}
            break
        for cid, g in enumerate(p.critical_conditions):
            gv = float(g(t_new, y_new))
            if abs(gv) < WARN_THRESHOLD or prev_g[cid] * gv < 0.0:
                warnings.append(MonitorWarning(t_new, cid, gv))
            prev_g[cid] = gv
        times.append(t_new)
        values.append(y_new)
        y_nm1, y_n = y_n, y_new

    return SolveResult(times=np.array(times), values=np.array(values),
                       newton_iters=newton_iters, monitor_warnings=warnings,
                       halvings=halvings, failure=failure, config=cfg,
                       initial_defect=defect)


def dae_residual(p: SemiNonlinearDAE, sol: SolveResult, probe_grid) -> np.ndarray:
    """Defining-equation residual norms at probe points.

    The solution derivative comes from differentiating the cubic spline
    through the accepted points, so even an exact trajectory shows the
    interpolation-differentiation floor rather than zero.
    """
    lo, hi = float(sol.times[0]), float(sol.times[-1])
    probe_grid = probe_points(probe_grid, lo, hi)
    spline = sol.interpolant()
    dspline = spline.derivative()
    out = np.empty(probe_grid.size)
    for i, t in enumerate(probe_grid):
        t = float(min(max(t, lo), hi))
        y = np.atleast_1d(spline(t))
        res = (p.A(t) @ np.atleast_1d(dspline(t))
               + np.atleast_1d(np.asarray(p.F(t, y), dtype=float))
               - np.atleast_1d(np.asarray(p.f(t), dtype=float)))
        out[i] = float(np.linalg.norm(res))
    return out
