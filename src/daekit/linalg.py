"""Dense matrix utilities: numerical rank, semi-inverse, projector, derivatives.

Everything here works on small dense real square matrices (the coefficient
matrices of algebraic equation systems).  A "semi-inverse" of A is any matrix
A⁻ with A A⁻ A = A; the Moore-Penrose pseudoinverse is used throughout because
it is deterministic and varies continuously while the rank stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidInputError

DEFAULT_RANK_TOL = 1e-10

# 4th-order finite-difference stencils: offsets (in units of the step) and
# weights (to be divided by the step).  One-sided variants cover endpoints.
_STENCILS = {
    "central": (np.array([-2.0, -1.0, 1.0, 2.0]),
                np.array([1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0])),
    "forward": (np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0),
    "backward": (np.array([0.0, -1.0, -2.0, -3.0, -4.0]),
                 np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / 12.0),
}


def _check_square_finite(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``tol * sigma_max``.

    The zero matrix has rank 0; ``tol`` is relative to the largest singular
    value, so scaling the matrix does not change the answer.
    """
    m = _check_square_finite(m)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class SemiInverseResult:
    """Semi-inverse A⁻ of a square matrix plus derived quantities.

    ``projector`` is V = E - A A⁻, the left annihilator of A: V A = 0.  It
    extracts the rows of an equation system in which A carries no information
    (the purely algebraic directions).
    """

    a_minus: np.ndarray
    rank: int
    projector: np.ndarray
    tol_used: float


def semi_inverse(m, tol: float = DEFAULT_RANK_TOL) -> SemiInverseResult:
    """Moore-Penrose pseudoinverse with singular values below ``tol * sigma_max`` dropped.

    Returns the pseudoinverse, the retained rank, and the projector
    V = E - A A⁻.  The truncation keeps the result stable when A is
    numerically rank-deficient.
    """
    m = _check_square_finite(m)
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    r = m.shape[0]
    u, s, vh = np.linalg.svd(m)
    if s.size and s[0] > 0.0:
        keep = s > tol * s[0]
    else:
        keep = np.zeros_like(s, dtype=bool)
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    a_minus = (vh.T * inv_s) @ u.T
    projector = np.eye(r) - m @ a_minus
    return SemiInverseResult(a_minus=a_minus, rank=rank, projector=projector, tol_used=tol)


def newton(residual: Callable[[np.ndarray], np.ndarray],
           jacobian: Callable[[np.ndarray], np.ndarray], x0, tol: float, max_iter: int,
           affine: bool = False):
    """Full Newton iteration for residual(x) = 0.

    Each iteration calls ``residual(x)``, then ``jacobian(x)`` at the same x
    and only if that residual is finite, so a Jacobian may reuse what its
    residual computed.  Stops when ‖δ‖ ≤ tol·(1 + ‖x‖), or after the first
    step when ``affine``.  Returns (x, iterations, last residual, last
    Jacobian); x is None after a non-finite residual, Jacobian or iterate,
    a singular Jacobian, or ``max_iter`` iterations without convergence.
    """
    x = np.array(x0, dtype=float)
    res = jac = None
    for it in range(1, max_iter + 1):
        # overflow while probing a divergent iterate is expected; the
        # finiteness checks below turn it into a clean non-convergence
        with np.errstate(over="ignore", invalid="ignore"):
            res = residual(x)
            if not np.all(np.isfinite(res)):
                return None, it, res, None
            jac = jacobian(x)
        if not np.all(np.isfinite(jac)):
            return None, it, res, jac
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None, it, res, jac
        x = x + delta
        if not np.all(np.isfinite(x)):
            return None, it, res, jac
        if affine or np.linalg.norm(delta) <= tol * (1.0 + np.linalg.norm(x)):
            return x, it, res, jac
    return None, max_iter, res, jac


def default_fd_step(t: float) -> float:
    """Default step for 4th-order differentiation stencils at time ``t``."""
    return 1e-4 * max(1.0, abs(t))


def fd_derivative(fn: Callable[[float], np.ndarray], t: float, step: Optional[float] = None,
                  lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
    """4th-order finite-difference derivative of an array-valued function of t.

    Uses the central 5-point stencil where the domain allows, one-sided
    4th-order stencils near ``lo``/``hi``.  The step shrinks if the domain
    window is too narrow for the stencil.
    """
    if step is None:
        step = default_fd_step(t)
    if step <= 0:
        raise InvalidInputError("step must be positive")
    if not (lo - 1e-12 <= t <= hi + 1e-12):
        raise DomainError(f"t={t} outside [{lo}, {hi}]")

    width = hi - lo
    if np.isfinite(width):
        # largest stencil reach is 4 steps (one-sided) or 2 (central)
        step = min(step, max(width / 4.0, 1e-14))

    if t - 2.0 * step >= lo and t + 2.0 * step <= hi:
        kind = "central"
    elif t + 4.0 * step <= hi:
        kind = "forward"
    elif t - 4.0 * step >= lo:
        kind = "backward"
    else:
        raise DomainError(f"domain [{lo}, {hi}] too narrow for a stencil of step {step} at t={t}")

    offsets, weights = _STENCILS[kind]
    acc = None
    for off, w in zip(offsets, weights):
        val = np.asarray(fn(t + off * step), dtype=float) * w
        acc = val if acc is None else acc + val
    return acc / step


@dataclass
class MatrixFunction:
    """A time-dependent square matrix on a closed interval.

    ``derivative`` is the analytic d/dt when available; otherwise
    :func:`matfn_derivative` falls back to finite differences.
    """

    eval: Callable[[float], np.ndarray]
    domain: tuple[float, float] = (0.0, 1.0)
    derivative: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __call__(self, t: float) -> np.ndarray:
        t = float(t)
        lo, hi = self.domain
        if not (lo - 1e-9 * max(1.0, abs(lo)) <= t <= hi + 1e-9 * max(1.0, abs(hi))):
            raise DomainError(f"t={t} outside domain [{lo}, {hi}] of {self.name or 'matrix function'}")
        hit = self._cache.get(t)
        if hit is None:
            hit = np.asarray(self.eval(t), dtype=float)
            if not np.all(np.isfinite(hit)):
                raise InvalidInputError(f"non-finite matrix at t={t}")
            self._cache[t] = hit
        return hit

    @staticmethod
    def constant(m, domain=(0.0, 1.0), name: str = "") -> "MatrixFunction":
        m = np.asarray(m, dtype=float)
        zero = np.zeros_like(m)
        return MatrixFunction(eval=lambda t: m, domain=domain,
                              derivative=lambda t: zero, name=name)


def matfn_derivative(f: MatrixFunction, t: float, step: Optional[float] = None) -> np.ndarray:
    """d/dt of a matrix function: analytic if declared, else 4th-order differences."""
    if f.derivative is not None:
        return np.asarray(f.derivative(t), dtype=float)
    lo, hi = f.domain
    return fd_derivative(f.__call__, t, step=step, lo=lo, hi=hi)
