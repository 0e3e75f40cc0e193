"""Problem classes for the four equation families and shared evaluation helpers.

The library handles

* linear integral-algebraic systems      A(t) y + ∫ k(t,s) y(s) ds   = f
* linear differential-algebraic systems  A(t) y' + B(t) y            = f
* semi-nonlinear IAEs                    A(t) y + ∫ κ(t,s,y(s)) ds   = f
* semi-nonlinear DAEs                    A(t) y' + F(t,y)            = f

with A square and singular of constant rank.  Integrals are Volterra-type
with lower limit ``t_start`` (the start of the working interval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import EvaluationError, ExtrapolationError, InvalidInputError
from .linalg import MatrixFunction, fd_derivative, semi_inverse


def _vec(x, r=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if r is not None and v.shape != (r,):
        raise InvalidInputError(f"expected a vector of length {r}, got shape {v.shape}")
    return v


JACOBIAN_STEP = 1e-6
VERIFY_QUAD_TOL = 1e-10
# the most steps a solve may take; at r = 2 the collocation history of
# 10**6 intervals alone is 128 MB
MAX_STEPS = 10**6


def fd_jacobian(g: Callable[[float, np.ndarray], np.ndarray], t: float,
                y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of y ↦ g(t, y).

    Column j perturbs y_j by ±JACOBIAN_STEP·max(1, |y_j|).  A y of shape
    (r, M) holds M points, components on axis 0, and g takes them all in one
    call; the result then has shape (n, r, M), one Jacobian per point on the
    last axis.
    """
    y = np.array(y, dtype=float, ndmin=1)
    cols = []
    for j in range(y.shape[0]):
        h = JACOBIAN_STEP * np.maximum(1.0, np.abs(y[j]))
        yp = y.copy()
        ym = y.copy()
        yp[j] += h
        ym[j] -= h
        gp = _vec(g(t, yp))
        gm = _vec(g(t, ym))
        if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
            raise EvaluationError(f"non-finite function value while differencing at t={t}")
        cols.append((gp - gm) / (2.0 * h))
    return np.stack(cols, axis=1)


def mesh_steps(a: float, b: float, h: float) -> int:
    """Number of steps of size h from a to b: a whole number, at most MAX_STEPS."""
    n_steps_f = (b - a) / h
    if n_steps_f > MAX_STEPS:
        raise InvalidInputError(
            f"(b - a)/h = {n_steps_f:g} steps exceeds the limit of {MAX_STEPS}")
    n_steps = int(round(n_steps_f))
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-8 * max(1.0, n_steps):
        raise InvalidInputError(f"(b - a)/h = {n_steps_f} is not a whole number of steps")
    return n_steps


def probe_points(probe_grid, lo: float, hi: float) -> np.ndarray:
    """The probe grid as an array, checked to lie inside the solved span [lo, hi]."""
    probe_grid = np.asarray(probe_grid, dtype=float)
    if probe_grid.size == 0 or probe_grid.min() < lo - 1e-9 or probe_grid.max() > hi + 1e-9:
        raise InvalidInputError(f"probe grid must lie inside the solved span [{lo}, {hi}]")
    return probe_grid


@dataclass
class TrajectorySample:
    """Sampled trajectory with linear interpolation between samples."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), r)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != self.times.size:
            raise InvalidInputError("times and values disagree in length")
        if self.times.size < 1 or np.any(np.diff(self.times) <= 0):
            raise InvalidInputError("times must be strictly increasing and non-empty")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("trajectory values must be finite")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    @staticmethod
    def from_function(fn: Callable[[float], np.ndarray], times) -> "TrajectorySample":
        times = np.asarray(times, dtype=float)
        vals = np.array([_vec(fn(t)) for t in times])
        return TrajectorySample(times=times, values=vals)

    def __call__(self, t: float) -> np.ndarray:
        lo, hi = self.span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not (lo - slack <= t <= hi + slack):
            raise ExtrapolationError(f"t={t} outside trajectory span [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        if self.times.size == 1:
            return self.values[0]
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        i = min(max(i, 0), self.times.size - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


@dataclass
class LinearIAE:
    """A(t) y(t) + ∫_{t_start}^t k(t,s) y(s) ds = f(t)."""

    A: MatrixFunction
    k: Callable[[float, float], np.ndarray]
    f: Callable[[float], np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    name: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t_start, self.T)


@dataclass
class LinearDAE:
    """A(t) y'(t) + B(t) y(t) = f(t), y(t_start) = y0."""

    A: MatrixFunction
    B: MatrixFunction
    f: Callable[[float], np.ndarray]
    y0: Optional[np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    name: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t_start, self.T)


@dataclass
class SemiNonlinearIAE:
    """A(t) y(t) + ∫_{t_start}^t κ(t,s,y(s)) ds = f(t).

    κ is vectorised over quadrature points: ``kappa(t, s, y)`` with scalar t,
    s of shape (M,) and y of shape (r, M) (components on axis 0, as in
    scipy's ``solve_ivp(vectorized=True)``) returns shape (r, M).  A scalar
    s with y of shape (r,) returns shape (r,).  ``solve_iae`` and
    ``residual`` make one batched κ call per equation and raise
    InvalidInputError when the first one fails or has the wrong shape.
    ``kappa_y`` keeps the per-point form: scalar s, y of shape (r,), and an
    (r, r) result.
    """

    A: MatrixFunction
    kappa: Callable[[float, float, np.ndarray], np.ndarray]
    f: Callable[[float], np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    kappa_y: Optional[Callable[[float, float, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    critical_conditions: Sequence[Callable[[float, np.ndarray], float]] = field(default_factory=tuple)
    name: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t_start, self.T)

    def kappa_jacobian(self, t: float, s, y: np.ndarray) -> np.ndarray:
        """∂κ/∂y (κ_y, else differences of κ): (r, r) at a scalar s and y (r,);
        (r, r, M) at s (M,) and y (r, M), κ_y then called per point."""
        if self.kappa_y is None:
            return fd_jacobian(lambda _t, yy: self.kappa(t, s, yy), t, y)
        if np.ndim(s) == 0:
            return np.asarray(self.kappa_y(t, s, y), dtype=float)
        return np.stack([self.kappa_y(t, si, yi) for si, yi in zip(s, y.T)], axis=-1)


@dataclass
class SemiNonlinearDAE:
    """A(t) y'(t) + F(t, y(t)) = f(t), y(t_start) = y0."""

    A: MatrixFunction
    F: Callable[[float, np.ndarray], np.ndarray]
    f: Callable[[float], np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    y0: Optional[np.ndarray] = None
    F_y: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    exact_derivative: Optional[Callable[[float], np.ndarray]] = None
    critical_conditions: Sequence[Callable[[float, np.ndarray], float]] = field(default_factory=tuple)
    name: str = ""

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t_start, self.T)

    def jacobian(self, t: float, y: np.ndarray) -> np.ndarray:
        if self.F_y is not None:
            return np.asarray(self.F_y(t, y), dtype=float)
        return fd_jacobian(self.F, t, y)

    def consistency_defect(self, t: Optional[float] = None, y: Optional[np.ndarray] = None) -> float:
        """Norm of the algebraic rows of the equation at (t, y).

        The projector V of A(t) extracts the rows in which y' does not
        appear; a consistent initial value drives them to zero.
        """
        t = self.t_start if t is None else t
        y = self.y0 if y is None else y
        if y is None:
            raise InvalidInputError("no initial value to check")
        v = semi_inverse(self.A(t)).projector
        return float(np.linalg.norm(v @ (_vec(self.F(t, _vec(y, self.r))) - _vec(self.f(t)))))


Problem = LinearIAE | LinearDAE | SemiNonlinearIAE | SemiNonlinearDAE


def _exact_derivative(p, t: float) -> np.ndarray:
    if getattr(p, "exact_derivative", None) is not None:
        return _vec(p.exact_derivative(t))
    lo, hi = p.interval
    return fd_derivative(lambda tt: _vec(p.exact(tt)), t, lo=lo, hi=hi)


def verify_exact(p: Problem, grid) -> float:
    """Max residual norm of the registered exact solution over ``grid``.

    Substitutes the exact solution into the defining equation: derivatives
    are analytic when registered (finite differences otherwise), integrals
    use adaptive quadrature with tolerance ``VERIFY_QUAD_TOL``.  Guards
    against transcription slips in problem definitions.
    """
    exact = getattr(p, "exact", None)
    if exact is None:
        raise InvalidInputError(f"problem {getattr(p, 'name', '')!r} has no exact solution")
    grid = np.asarray(grid, dtype=float)
    worst = 0.0
    for t in grid:
        y = _vec(exact(t), p.r)
        if isinstance(p, SemiNonlinearDAE):
            res = p.A(t) @ _exact_derivative(p, t) + _vec(p.F(t, y), p.r) - _vec(p.f(t), p.r)
        elif isinstance(p, LinearDAE):
            res = p.A(t) @ _exact_derivative(p, t) + p.B(t) @ y - _vec(p.f(t), p.r)
        elif isinstance(p, (SemiNonlinearIAE, LinearIAE)):
            if isinstance(p, SemiNonlinearIAE):
                def integrand(s):
                    return _vec(p.kappa(t, s, _vec(exact(s), p.r)), p.r)
            else:
                def integrand(s):
                    return p.k(t, s) @ _vec(exact(s), p.r)
            integ = np.array([
                quad(lambda s, i=i: float(integrand(s)[i]), p.t_start, t,
                     epsabs=VERIFY_QUAD_TOL, epsrel=VERIFY_QUAD_TOL, limit=200)[0]
                for i in range(p.r)
            ])
            res = p.A(t) @ y + integ - _vec(p.f(t), p.r)
        else:
            raise InvalidInputError(f"unsupported problem type {type(p)}")
        worst = max(worst, float(np.linalg.norm(res)))
    return worst
