"""Fixed-step implicit BDF1/BDF2 solver for semi-nonlinear DAEs.

Each step solves the implicit system with a full Newton iteration (the
Jacobian is refreshed every iteration: near critical points F_y changes
character, and a stale Jacobian would muddy the diagnosis).  The algebraic
rows are enforced by Newton at every accepted point rather than integrated,
so algebraic components are exact up to the Newton tolerance whenever the
system determines them.

Newton failures are data, not exceptions: near an index change divergence
is the expected observation.  The solver first retries the step with up to
``MAX_HALVINGS`` local halvings (first-order substeps), recording each
attempt; if those fail too, it returns the trajectory computed so far with
a failure record attached.  A non-finite right side f is no breakdown:
it is refused with InvalidInputError, as ``solve_iae`` refuses it, and
so is a non-finite F at the start.

f is read once per solve, on the whole mesh, before the first step (so a
non-finite f anywhere on it is refused there), and at each halving
substep's own time.  A is read at every step and substep, not on the
mesh: an A that is undefined past a breakdown is never asked for there,
and a non-constant A is not stored at r² floats per mesh time.

The solver reads no critical condition: the accepted trajectory is read
by :func:`~daekit.structure.monitor` after the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .linalg import NEWTON_MAX_ITER, MatrixFunction, newton, norm2, per_point
from .problems import SemiNonlinearDAE, Trajectory, probe_points, solve_span, start_value


# Newton stopping tolerance of every step, and the most local halvings a
# step whose Newton iteration fails is retried with
NEWTON_TOL = 1e-10
MAX_HALVINGS = 3


@dataclass
class DaeSolveConfig:
    h: float
    order: int = 1

    def validate(self):
        if not 0 < self.h < np.inf:
            raise InvalidInputError("h must be finite and positive")
        if self.order not in (1, 2):
            raise InvalidInputError("order must be 1 or 2")


@dataclass
class SolveResult(Trajectory):
    """Accepted trajectory plus per-step diagnostics.

    ``failure`` is None on a complete run; otherwise a record of where and
    why stepping stopped (times/values then cover only the solved span),
    whose ``t`` is the end of the step that failed.
    As a :class:`~daekit.problems.Trajectory` on the span of its accepted
    times it gives the natural cubic spline through the accepted points,
    or the one accepted value of a solve that stopped at its first step.
    """

    times: np.ndarray
    values: np.ndarray
    newton_iters: list
    halvings: list
    failure: Optional[dict]
    config: DaeSolveConfig
    initial_defect: float = 0.0
    # the spline's second derivatives at the accepted points, set on first use
    _spline: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @property
    def success(self) -> bool:
        return self.failure is None

    def _spline_at(self, t: np.ndarray):
        """The spline's values and first derivatives at times t inside the span."""
        x, y = self.times, self.values
        if x.size < 2:
            raise InvalidInputError("need at least two accepted points for a slope")
        m = self._spline
        if m is None:
            # second derivatives m, zero at the ends, from the tridiagonal system
            # h_{i-1} m_{i-1} + 2(h_{i-1} + h_i) m_i + h_i m_{i+1} = 6(d_i − d_{i-1})
            # (d_i the slope on interval i), by one Thomas sweep each way
            h = np.diff(x)
            rhs = 6.0 * np.diff(np.diff(y, axis=0) / h[:, None], axis=0)
            diag = 2.0 * (h[:-1] + h[1:])
            for i in range(1, diag.size):
                w = h[i] / diag[i - 1]
                diag[i] -= w * h[i]
                rhs[i] -= w * rhs[i - 1]
            m = np.zeros_like(y)
            for i in range(diag.size - 1, -1, -1):
                m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
            self._spline = m
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        dx = (x[i + 1] - x[i])[..., None]
        a, b = (x[i + 1] - t)[..., None] / dx, (t - x[i])[..., None] / dx
        m0, m1, y0, y1 = m[i], m[i + 1], y[i], y[i + 1]
        value = a * y0 + b * y1 + ((a**3 - a) * m0 + (b**3 - b) * m1) * dx**2 / 6
        slope = (y1 - y0) / dx + ((1 - 3 * a**2) * m0 + (3 * b**2 - 1) * m1) * dx / 6
        return value, slope

    def _at(self, t: np.ndarray) -> np.ndarray:
        if self.times.size == 1:
            return np.repeat(self.values, t.size, axis=0)
        return self._spline_at(t)[0]

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "n_steps": int(self.times.size - 1),
            "t_span": [float(self.times[0]), float(self.times[-1])] if self.times.size else [],
            "newton_iters": [int(i) for i in self.newton_iters],
            "halvings": list(self.halvings),
            "failure": self.failure,
            "initial_defect": self.initial_defect,
            "config": {
                "h": self.config.h, "order": self.config.order,
                "newton_tol": NEWTON_TOL,
                "newton_max_iter": NEWTON_MAX_ITER,
                "max_halvings": MAX_HALVINGS,
            },
        }


def _newton(p: SemiNonlinearDAE, fv: np.ndarray, t_new: float, c: float, d: np.ndarray,
            y_guess: np.ndarray):
    """Solve c·A(t)·y − A(t)·d + F(t,y) = f(t) by Newton; (y, iters) or (None, iters).

    ``fv`` is f(t_new), already checked finite.  F and a declared F_y are
    called directly (``p.jacobian`` differences F otherwise), and their
    values enter the arithmetic as returned: numpy's operators convert a
    list or a scalar to the floats ``asarray`` would give.
    """
    a = p.A(t_new)
    ad, ca = a @ d, c * a
    F, jac = p.F, p.jacobian if p.F_y is None else p.F_y
    y, it, _, _ = newton(lambda y: c * (a @ y) - ad + F(t_new, y) - fv,
                         lambda y: ca + jac(t_new, y), y_guess, NEWTON_TOL, NEWTON_MAX_ITER)
    return y, it


def _halved(p, f: MatrixFunction, t_n, y_n, h, records, step_index):
    """Retry [t_n, t_n+h] with first-order substeps at h/2, h/4, ... .

    ``f`` is the solve's per-point right side, read at each substep's time,
    so a non-finite f there raises InvalidInputError.  Returns (y, iters)
    or (None, iters), iters the Newton iterations of every halving tried,
    failed ones included.
    """
    spent = 0
    for halving in range(1, MAX_HALVINGS + 1):
        m = 2 ** halving
        sub_h = h / m
        y, t = y_n, t_n
        total_iters = 0
        ok = True
        for i in range(m):
            t_sub = t + sub_h
            y_next, its = _newton(p, f(t_sub), t_sub, 1.0 / sub_h, y / sub_h, y)
            total_iters += its
            if y_next is None:
                ok = False
                break
            y, t = y_next, t_n + (i + 1) * sub_h
        records.append({"step": step_index, "t": t_n, "h_tried": sub_h,
                        "substeps": m, "newton_iters": total_iters,
                        "converged": ok})
        spent += total_iters
        if ok:
            return y, spent
    return None, spent


def solve_dae(p: SemiNonlinearDAE, cfg: DaeSolveConfig, interval=None) -> SolveResult:
    """March A(t)y′ + F(t,y) = f from a to b on the fixed mesh a + n·h.

    The interval and the initial value come from ``solve_span`` and
    ``start_value`` (:mod:`~daekit.problems`): y0 at t_start, else the
    exact solution at a; the value must satisfy the algebraic rows.  f is
    read at a, then once on the mesh a + n·h (n = 1 … N) before the first
    step, then at each halving substep; a non-finite f at any of them, or
    a non-finite F at a, raises InvalidInputError.  A is read at each step
    and substep.  Order 2 starts with one BDF1 step and extrapolates the
    Newton guess from the two previous points.
    """
    cfg.validate()
    if not isinstance(p, SemiNonlinearDAE):
        raise InvalidInputError("solve_dae expects a SemiNonlinearDAE")
    a, n_steps = solve_span(p, interval, cfg.h)
    y0 = start_value(p, a)
    if y0 is None:
        raise InvalidInputError("no initial value available at the interval start")
    f = per_point(p.f, p.interval, "f")  # a non-finite value raises
    f_a = f(a)
    defect = p.consistency_defect(a, y0)
    if not defect <= 1e-6 * (1.0 + norm2(f_a)):  # a NaN defect fails too
        raise InvalidInputError(
            f"initial value violates the algebraic rows at t={a}: defect {defect:.3e}")

    # f at every step's t_new, rounded as t_new is: a non-finite f anywhere
    # on the mesh is refused here
    f_mesh = f(a + np.arange(1, n_steps + 1) * cfg.h)

    times = [a]
    values = [y0]
    newton_iters: list[int] = []
    halvings: list[dict] = []
    failure = None

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
        y_new, its = _newton(p, f_mesh[step], t_new, c, d, guess)
        if y_new is None:
            y_new, more = _halved(p, f, t_n, y_n, cfg.h, halvings, step)
            its += more
        newton_iters.append(its)
        if y_new is None:
            failure = {"t": t_new, "step": step,
                       "reason": "Newton iteration did not converge "
                                 f"(after {MAX_HALVINGS} local halvings)"}
            break
        times.append(t_new)
        values.append(y_new)
        y_nm1, y_n = y_n, y_new

    return SolveResult(times=np.array(times), values=np.array(values),
                       newton_iters=newton_iters, halvings=halvings, failure=failure,
                       config=cfg, initial_defect=defect)


def dae_residual(p: SemiNonlinearDAE, sol: SolveResult, probe_grid) -> np.ndarray:
    """Defining-equation residual norms at probe points.

    The solution derivative comes from differentiating the cubic spline
    through the accepted points, so even an exact trajectory shows the
    interpolation-differentiation floor rather than zero.  A solution of
    one accepted point has no slope and raises InvalidInputError.  A and f
    are read once on the probe grid, f per point as ``solve_dae`` reads
    it: a non-finite f at a probe raises InvalidInputError naming the
    first such time.  F is called once per probe.
    """
    lo, hi = sol.span
    probe_grid = probe_points(probe_grid, lo, hi)
    values, slopes = sol._spline_at(probe_grid)
    a_probe = p.A(probe_grid)
    f_probe = per_point(p.f, p.interval, "f")(probe_grid)
    out = np.empty(probe_grid.size)
    for i, t in enumerate(probe_grid.tolist()):
        res = (a_probe[i] @ slopes[i]
               + np.atleast_1d(np.asarray(p.F(t, values[i]), dtype=float))
               - f_probe[i])
        out[i] = norm2(res)
    return out
