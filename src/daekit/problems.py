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

from .errors import DomainError, ExtrapolationError, InvalidInputError
from .linalg import (MatrixFunction, all_finite, check_grid, check_span, matfn_derivative,
                     norm2, quadrature, semi_inverse)


def _vec(x, r=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if r is not None and v.shape != (r,):
        raise InvalidInputError(f"expected a vector of length {r}, got shape {v.shape}")
    return v


JACOBIAN_STEP = 1e-6
VERIFY_QUAD_TOL = 1e-10
# the most steps a solve may take; at r = 2 the whole collocation history
# of 10**6 intervals (a kernel that depends on t) alone is 128 MB
MAX_STEPS = 10**6
# what batch_checked's refusals name, for κ and for the Jacobians
KAPPA_CONTRACT = ("κ must be vectorised: κ(t, s, y) with t and s of shape (M,) and y of "
                  "shape (r, M), components on axis 0, returns shape (r, M)")
JACOBIAN_CONTRACT = ("κ_y and F_y (κ and F when differenced) must take the batch: κ_y(t, s, y) "
                     "and F_y(t, y) with t, s of shape (M,), y of shape (r, M) return (r, r, M)")


def fd_jacobian(g: Callable[..., np.ndarray], *args) -> np.ndarray:
    """Central-difference Jacobian of y ↦ g(t, ..., y) at args = (t, ..., y).

    Column j perturbs y_j by ±JACOBIAN_STEP·max(1, |y_j|).  A y of shape (r,)
    takes two calls of g per column.  A y of shape (r, M) holds M points,
    components on axis 0: g then gets all 2r perturbed copies in one call, y
    of shape (r, 2r·M) with every (M,) argument before it (t, a kernel's s)
    tiled to match, and the result has shape (n, r, M), one Jacobian per
    point on the last axis with the arithmetic of its per-point call.  A
    non-finite value of g gives non-finite entries, not an error: the
    caller checks the Jacobian, as :func:`~daekit.linalg.newton` and a
    kernel's finiteness check do.
    """
    *lead, y = args
    y = np.array(y, dtype=float, ndmin=1)
    r = y.shape[0]
    h = JACOBIAN_STEP * np.maximum(1.0, np.abs(y))
    # copies[:, j, 0] and copies[:, j, 1] are y with y_j moved by +h_j and -h_j
    copies = np.broadcast_to(y[:, None, None], (r, r, 2) + y.shape[1:]).copy()
    cols = np.arange(r)
    copies[cols, cols, 0] += h
    copies[cols, cols, 1] -= h
    if y.ndim == 1:
        out = np.moveaxis(np.array([[_vec(g(*lead, copies[:, j, k].copy())) for k in (0, 1)]
                                    for j in range(r)]), -1, 0)  # (n, r, 2)
    else:
        tiled = [a if np.ndim(a) == 0 else np.concatenate((a,) * (2 * r)) for a in lead]
        out = np.asarray(g(*tiled, copies.reshape(r, -1)), dtype=float)
        out = out.reshape(-1, r, 2, y.shape[1]).swapaxes(2, 3)  # (n, r, M, 2)
    return (out[..., 0] - out[..., 1]) / (2.0 * h)


def batch_checked(fn: Callable[..., np.ndarray], shape: tuple,
                  contract: str) -> Callable[..., np.ndarray]:
    """``fn`` as a batch caller calls it, with y of shape (r, M) last.

    Its first call must return ``shape + (M,)``: (r,) + (M,) for κ, (r, r)
    + (M,) for κ_y and F_y.  One that raises TypeError/ValueError or returns
    another shape raises InvalidInputError naming ``contract``; later calls
    go to ``fn`` unchecked.
    """
    checked = False

    def call(*args) -> np.ndarray:
        nonlocal checked
        if checked:
            return fn(*args)
        try:
            out = np.asarray(fn(*args), dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{contract}; the batched call raised {exc!r}") from exc
        want = shape + np.shape(args[-1])[1:]
        if out.shape != want:
            raise InvalidInputError(
                f"{contract}; the batched call returned shape {out.shape}, expected {want}")
        checked = True
        return out

    return call


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
    """The probe grid as a non-empty array inside the solved span [lo, hi]
    (``check_span``), each probe clamped to [lo, hi]."""
    probe_grid = np.asarray(
        check_span(probe_grid, lo, hi, "the solution (probe grid)", InvalidInputError))
    if probe_grid.size == 0:
        raise InvalidInputError("probe grid must be non-empty")
    return np.clip(probe_grid, lo, hi)


class Trajectory:
    """A function of time on the span of its knot ``times``: the one trajectory rule.

    A float t gives the value (r,), an (n,) array the (n, r) values, each row with
    its float call's arithmetic.  A time outside the span (``check_span``) raises
    ExtrapolationError; an accepted one is clamped to it, where a subclass's
    ``_at`` evaluates the (n,) clamped times."""

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def __call__(self, t) -> np.ndarray:
        lo, hi = self.span
        ts = check_span(t, lo, hi, "the trajectory", ExtrapolationError)
        if isinstance(ts, float):
            # min and max keep the first of equal arguments, as np.minimum
            # and np.maximum do
            return self._at(np.array([min(max(ts, lo), hi)]))[0]
        vals = self._at(np.minimum(np.maximum(ts.reshape(-1), lo), hi))
        return vals.reshape(ts.shape + vals.shape[1:])


@dataclass
class TrajectorySample(Trajectory):
    """Sampled trajectory, linear between its times (a ``check_grid`` grid)."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), r)

    def __post_init__(self):
        self.times = check_grid(self.times, 1, "trajectory times")
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != self.times.size:
            raise InvalidInputError("times and values disagree in length")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("trajectory values must be finite")

    @staticmethod
    def from_function(fn: Callable[[float], np.ndarray], times) -> "TrajectorySample":
        times = np.asarray(times, dtype=float)
        vals = np.array([_vec(fn(t)) for t in times])
        return TrajectorySample(times=times, values=vals)

    def _at(self, t: np.ndarray) -> np.ndarray:
        if self.times.size == 1:
            return np.repeat(self.values, t.size, axis=0)
        # t >= times[0] after the clamp, so i >= 0
        i = np.minimum(np.searchsorted(self.times, t, side="right") - 1, self.times.size - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = ((t - t0) / (t1 - t0))[:, None]
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


class _OnInterval:
    """A problem's working interval [t_start, T], the one rule of its four classes.

    A's domain must start at t_start: the chain takes the start of A's
    domain as the integral origin (:func:`~daekit.chain.consistency_check`).
    """

    def __post_init__(self):
        if self.A.domain[0] != self.t_start:
            raise InvalidInputError(
                f"A's domain {self.A.domain} must start at t_start = {self.t_start}")

    @property
    def interval(self) -> tuple[float, float]:
        return (self.t_start, self.T)


@dataclass
class LinearIAE(_OnInterval):
    """A(t) y(t) + ∫_{t_start}^t k(t,s) y(s) ds = f(t).

    ``kernel_free_of_t`` declares that k(t, s) does not depend on t (as
    :class:`SemiNonlinearIAE`'s does for κ).
    """

    A: MatrixFunction
    k: Callable[[float, float], np.ndarray]
    f: Callable[[float], np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    name: str = ""
    exact: Optional[Callable[[float], np.ndarray]] = None
    kernel_free_of_t: bool = False


@dataclass
class LinearDAE(_OnInterval):
    """A(t) y'(t) + B(t) y(t) = f(t), y(t_start) = y0."""

    A: MatrixFunction
    B: MatrixFunction
    f: Callable[[float], np.ndarray]
    y0: Optional[np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    name: str = ""
    exact: Optional[Callable[[float], np.ndarray]] = None


@dataclass
class SemiNonlinearIAE(_OnInterval):
    """A(t) y(t) + ∫_{t_start}^t κ(t,s,y(s)) ds = f(t).

    κ is vectorised over quadrature points: ``kappa(t, s, y)`` with t and s
    of shape (M,) (one time per point) and y of shape (r, M) (components on
    axis 0, as in scipy's ``solve_ivp(vectorized=True)``) returns shape
    (r, M); a scalar t stands for the same t at every point.  Scalars t and
    s with y of shape (r,) return shape (r,).  ``solve_iae`` makes one
    batched κ call per Newton residual, per history integral (per
    completed interval for a kernel free of t) and per differenced
    Jacobian, ``residual`` one for the partial intervals of
    all its probes and one per batch of their histories, and both raise
    InvalidInputError when the first call fails or has the wrong shape.
    ``kappa_y`` takes the same batch and returns (r, r, M); its first call
    in each kernel or solve is checked the same way (:func:`batch_checked`).

    ``kernel_free_of_t`` declares that κ(t, s, y) does not depend on t, so
    ``solve_iae`` keeps one running sum of the history integral instead of
    integrating the whole history again at every time.  The default, False,
    is "κ depends on t"; a wrong True gives a wrong solution, which
    ``residual`` (it always integrates the whole history) shows.
    """

    A: MatrixFunction
    kappa: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    f: Callable[[float], np.ndarray]
    r: int
    T: float
    t_start: float = 0.0
    kappa_y: Optional[Callable[[float, float, np.ndarray], np.ndarray]] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    critical_conditions: Sequence[Callable[[float, np.ndarray], float]] = field(default_factory=tuple)
    name: str = ""
    kernel_free_of_t: bool = False

    def kappa_jacobian(self, t, s, y: np.ndarray) -> np.ndarray:
        """∂κ/∂y (κ_y, else differences of κ) in one call: (r, r, M) at t, s
        (M,) and y (r, M); (r, r) at scalars and y (r,) if κ_y (or κ) takes
        that form too."""
        if self.kappa_y is None:
            return fd_jacobian(self.kappa, t, s, y)
        return np.asarray(self.kappa_y(t, s, y), dtype=float)


@dataclass
class SemiNonlinearDAE(_OnInterval):
    """A(t) y'(t) + F(t, y(t)) = f(t), y(t_start) = y0.

    F and ``F_y`` take a float t and y of shape (r,), as ``solve_dae`` calls
    them, and a batch: t of shape (M,) and y of shape (r, M) give (r, M)
    and (r, r, M), as a linearized kernel calls them, its first call
    checked by :func:`batch_checked`.
    """

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

    def jacobian(self, t, y: np.ndarray) -> np.ndarray:
        """∂F/∂y (F_y, else differences of F) in one call: (r, r) at a float t
        and y (r,); (r, r, M) at t (M,) and y (r, M)."""
        if self.F_y is not None:
            return np.asarray(self.F_y(t, y), dtype=float)
        return fd_jacobian(self.F, t, y)

    def consistency_defect(self, t: float, y: np.ndarray) -> float:
        """Norm of the algebraic rows of the equation at (t, y).

        The projector V of A(t) extracts the rows in which y' does not
        appear; a consistent initial value drives them to zero.  A
        non-finite F(t, y) or f(t) raises InvalidInputError.
        """
        v = semi_inverse(self.A(t)).projector
        fy, fv = _vec(self.F(t, _vec(y, self.r))), _vec(self.f(t))
        for name, side in (("F", fy), ("f", fv)):
            if not all_finite(side):
                raise InvalidInputError(f"non-finite {name} at t={t}")
        return norm2(v @ (fy - fv))


Problem = LinearIAE | LinearDAE | SemiNonlinearIAE | SemiNonlinearDAE


def solve_span(p: Problem, interval, h: float) -> tuple[float, int]:
    """(a, n_steps) of a solve of p with step h over ``interval`` = [a, b],
    by default the problem's: [a, b] must lie in the problem's interval
    (``check_span``), with a < b and a whole number of steps
    (:func:`mesh_steps`), and an IAE's solve must start at its integral
    origin t_start."""
    a, b = p.interval if interval is None else (float(interval[0]), float(interval[1]))
    check_span((a, b), *p.interval, f"the problem: bad interval [{a}, {b}]", InvalidInputError)
    if isinstance(p, (LinearIAE, SemiNonlinearIAE)):
        check_span(a, p.t_start, p.t_start, "the integral origin t_start, where a solve must start",
                   InvalidInputError)
    if not a < b:
        raise InvalidInputError(f"bad interval [{a}, {b}]: it needs a < b")
    return a, mesh_steps(a, b, h)


def start_value(p: Problem, a: float) -> Optional[np.ndarray]:
    """The value a solve of p starts from at a: ``y0`` when a is t_start
    (``check_span``) and p has one, else ``exact(a)``, else None.  A value
    that is not a finite vector of length r raises InvalidInputError."""
    try:
        check_span(a, p.t_start, p.t_start, "the start t_start of the problem's y0")
        y = getattr(p, "y0", None)
    except DomainError:
        y = None
    if y is None and p.exact is not None:
        y = p.exact(a)
    if y is not None:
        y = _vec(y, p.r)
        if not np.isfinite(y).all():
            raise InvalidInputError(f"non-finite initial value at t={a}: {y}")
    return y


def verify_exact(p: Problem, grid) -> float:
    """Max residual norm of the registered exact solution over ``grid``.

    Substitutes the exact solution into the defining equation: derivatives
    come from :func:`~daekit.linalg.matfn_derivative`, analytic when
    registered (finite differences otherwise), integrals
    use :func:`~daekit.linalg.quadrature` with tolerance ``VERIFY_QUAD_TOL``.
    Guards against transcription slips in problem definitions.
    """
    exact = getattr(p, "exact", None)
    if exact is None:
        raise InvalidInputError(f"problem {getattr(p, 'name', '')!r} has no exact solution")
    grid = np.asarray(grid, dtype=float)
    declared = getattr(p, "exact_derivative", None)
    y_fn = MatrixFunction(eval=lambda t: _vec(exact(t)), domain=p.interval, name="exact",
                          derivative=None if declared is None else lambda t: _vec(declared(t)))
    worst = 0.0
    for t in grid:
        y = _vec(exact(t), p.r)
        if isinstance(p, SemiNonlinearDAE):
            res = p.A(t) @ matfn_derivative(y_fn, t) + _vec(p.F(t, y), p.r) - _vec(p.f(t), p.r)
        elif isinstance(p, LinearDAE):
            res = p.A(t) @ matfn_derivative(y_fn, t) + p.B(t) @ y - _vec(p.f(t), p.r)
        elif isinstance(p, (SemiNonlinearIAE, LinearIAE)):
            if isinstance(p, SemiNonlinearIAE):
                def integrand(s):
                    return _vec(p.kappa(t, s, _vec(exact(s), p.r)), p.r)
            else:
                def integrand(s):
                    return p.k(t, s) @ _vec(exact(s), p.r)
            integ = quadrature(integrand, p.t_start, t, VERIFY_QUAD_TOL)
            res = p.A(t) @ y + integ - _vec(p.f(t), p.r)
        else:
            raise InvalidInputError(f"unsupported problem type {type(p)}")
        worst = max(worst, norm2(res))
    return worst
