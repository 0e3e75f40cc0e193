"""Dense matrix utilities: numerical rank, semi-inverse, projector, derivatives.

Everything here works on small dense real square matrices (the coefficient
matrices of algebraic equation systems).  A "semi-inverse" of A is any matrix
A⁻ with A A⁻ A = A; the Moore-Penrose pseudoinverse is used throughout because
it is deterministic and varies continuously while the rank stays constant.

The matrix routines also take a stack (..., r, r) of matrices, in the style
of a numpy gufunc, and the routines of t also take an array of times.  One
stacked SVD costs little more than one small SVD, and each slice of a stack
gets exactly the arithmetic of the single-matrix call, so the two forms
agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(
            f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def _kept(s: np.ndarray, tol: float) -> np.ndarray:
    """Singular values above ``tol`` times the largest of their matrix (none if it is 0)."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    return s > tol * s[..., :1]


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL):
    """Number of singular values above ``tol * sigma_max``.

    The zero matrix has rank 0; ``tol`` is relative to the largest singular
    value, so scaling the matrix does not change the answer.  A stack
    (..., r, r) gives an integer array of shape (...).
    """
    m = _check_square_finite(m)
    rank = np.count_nonzero(_kept(np.linalg.svd(m, compute_uv=False), tol), axis=-1)
    return int(rank) if m.ndim == 2 else rank


@dataclass(frozen=True)
class SemiInverseResult:
    """Semi-inverse A⁻ of a square matrix plus derived quantities.

    ``projector`` is V = E - A A⁻, the left annihilator of A: V A = 0.  It
    extracts the rows of an equation system in which A carries no information
    (the purely algebraic directions).  For a stack of matrices every field
    but ``tol_used`` is stacked too (``rank`` is then an integer array).
    """

    a_minus: np.ndarray
    rank: int | np.ndarray
    projector: np.ndarray
    tol_used: float


def semi_inverse(m, tol: float = DEFAULT_RANK_TOL) -> SemiInverseResult:
    """Moore-Penrose pseudoinverse with singular values below ``tol * sigma_max`` dropped.

    Returns the pseudoinverse, the retained rank, and the projector
    V = E - A A⁻.  The truncation keeps the result stable when A is
    numerically rank-deficient.  ``m`` may be one matrix or a stack
    (..., r, r); a stack takes one SVD call.
    """
    m = _check_square_finite(m)
    u, s, vh = np.linalg.svd(m)
    keep = _kept(s, tol)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    a_minus = (np.swapaxes(vh, -1, -2) * inv_s[..., None, :]) @ np.swapaxes(u, -1, -2)
    projector = np.eye(m.shape[-1]) - m @ a_minus
    rank = np.count_nonzero(keep, axis=-1)
    return SemiInverseResult(a_minus=a_minus, rank=int(rank) if m.ndim == 2 else rank,
                             projector=projector, tol_used=tol)


# iteration cap of :func:`newton`, shared by the BDF and collocation solvers
NEWTON_MAX_ITER = 25


def newton(residual: Callable[[np.ndarray], np.ndarray],
           jacobian: Callable[[np.ndarray], np.ndarray], x0, tol: float, max_iter: int,
           affine: bool = False):
    """Full Newton iteration for residual(x) = 0.

    Each iteration calls ``residual(x)``, then ``jacobian(x)`` at the same x
    and only if that residual is finite, so a Jacobian may reuse what its
    residual computed.  Stops when ‖δ‖ ≤ tol·(1 + ‖x‖), or after the first
    step when ``affine``.  Returns (x, iterations, last residual, last
    Jacobian); x is None after a non-finite residual, Jacobian or iterate
    (an iterate whose norm overflows counts as non-finite: the test above
    would pass for any δ), a singular Jacobian, or ``max_iter`` iterations
    without convergence.
    """
    x = np.array(x0, dtype=float)
    res = jac = None
    for it in range(1, max_iter + 1):
        # overflow while probing a divergent iterate is expected; the
        # finiteness checks turn it into a clean non-convergence
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
            x_norm = np.linalg.norm(x)
        if not np.isfinite(x_norm):
            return None, it, res, jac
        if affine or np.linalg.norm(delta) <= tol * (1.0 + x_norm):
            return x, it, res, jac
    return None, max_iter, res, jac


def default_fd_step(t):
    """Default step for 4th-order differentiation stencils at ``t`` (a time or an array)."""
    return 1e-4 * np.maximum(1.0, np.abs(t))


def fd_derivative(fn: Callable, t, step: Optional[float] = None,
                  lo: float = -np.inf, hi: float = np.inf, args: tuple = ()) -> np.ndarray:
    """4th-order finite-difference derivative of an array-valued function of t.

    Uses the central 5-point stencil where the domain allows, one-sided
    4th-order stencils near ``lo``/``hi``.  The step shrinks if the domain
    window is too narrow for the stencil.  ``fn`` is called as
    ``fn(tau, *args)``.

    For a float ``t``, ``fn`` is called once per stencil point.  For an
    (n,) array ``t``, it is called once, on the (m,) array of every stencil
    point of every t, and must return an (m, ...) stack; each of ``args`` is
    then an (n,) array aligned with ``t`` and reaches ``fn`` repeated to
    match the points.  Each t keeps its own step and stencil kind, so the
    (n, ...) result equals the loop of float calls bit for bit.
    """
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts)
    steps = default_fd_step(ts) if step is None else np.full(ts.shape, float(step))
    if np.any(steps <= 0):
        raise InvalidInputError("step must be positive")
    outside = ~((lo - 1e-12 <= ts) & (ts <= hi + 1e-12))
    if np.any(outside):
        raise DomainError(f"t={ts[np.argmax(outside)]} outside [{lo}, {hi}]")

    width = hi - lo
    if np.isfinite(width):
        # largest stencil reach is 4 steps (one-sided) or 2 (central)
        steps = np.minimum(steps, max(width / 4.0, 1e-14))

    central = (ts - 2.0 * steps >= lo) & (ts + 2.0 * steps <= hi)
    forward = ~central & (ts + 4.0 * steps <= hi)
    backward = ~central & ~forward & (ts - 4.0 * steps >= lo)
    stuck = ~(central | forward | backward)
    if np.any(stuck):
        j = int(np.argmax(stuck))
        raise DomainError(
            f"domain [{lo}, {hi}] too narrow for a stencil of step {steps[j]} at t={ts[j]}")

    # the stencil points kind by kind, offset-major within a kind
    groups = [(_STENCILS[kind], np.flatnonzero(mask))
              for kind, mask in (("central", central), ("forward", forward),
                                 ("backward", backward)) if np.any(mask)]
    points = np.concatenate([(ts[idx] + offsets[:, None] * steps[idx]).ravel()
                             for (offsets, _), idx in groups])
    if scalar:
        vals = np.stack([np.asarray(fn(tau, *args), dtype=float) for tau in points])
    else:
        rows = np.concatenate([np.tile(idx, offsets.size) for (offsets, _), idx in groups])
        vals = np.asarray(fn(points, *(np.asarray(a)[rows] for a in args)), dtype=float)

    out = np.empty((ts.size,) + vals.shape[1:])
    start = 0
    for (_, weights), idx in groups:
        acc = None
        for w in weights:
            val = vals[start:start + idx.size] * w
            acc = val if acc is None else acc + val
            start += idx.size
        out[idx] = acc / steps[idx].reshape((-1,) + (1,) * (vals.ndim - 1))
    return out[0] if scalar else out


@dataclass
class MatrixFunction:
    """A time-dependent square matrix on a closed interval.

    ``derivative`` is the analytic d/dt when available; otherwise
    :func:`matfn_derivative` falls back to finite differences.  A float t
    gives the (r, r) matrix and an array of times the stack of shape
    t.shape + (r, r).  ``eval`` is called once per time, unless
    ``vectorized``: then it takes an (n,) array and returns the (n, r, r)
    stack.  Nothing is memoized, so ``eval`` runs at every evaluation point.
    """

    eval: Callable
    domain: tuple[float, float] = (0.0, 1.0)
    derivative: Optional[Callable[[float], np.ndarray]] = None
    name: str = ""
    vectorized: bool = False

    def __call__(self, t) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        if self.vectorized:
            m = self._eval_checked(ts.ravel())
        elif ts.ndim == 0:
            return self._eval_checked(float(ts))
        else:
            m = np.stack([self._eval_checked(x) for x in map(float, ts.ravel())])
        return m.reshape(ts.shape + m.shape[1:])

    def _eval_checked(self, t) -> np.ndarray:
        """eval(t) as floats for a float or an (n,) array t inside the domain."""
        t_min, t_max = (t, t) if isinstance(t, float) else (t.min(), t.max())
        lo, hi = self.domain
        for bad, inside in ((t_min, t_min >= lo - 1e-9 * max(1.0, abs(lo))),
                            (t_max, t_max <= hi + 1e-9 * max(1.0, abs(hi)))):
            if not inside:
                raise DomainError(f"t={bad} outside domain [{lo}, {hi}] "
                                  f"of {self.name or 'matrix function'}")
        m = np.asarray(self.eval(t), dtype=float)
        if not np.isfinite(m).all():
            raise InvalidInputError(f"non-finite matrix at t={t}")
        return m

    @staticmethod
    def constant(m, domain=(0.0, 1.0), name: str = "") -> "MatrixFunction":
        m = np.asarray(m, dtype=float)
        zero = np.zeros_like(m)
        return MatrixFunction(eval=lambda t: m, domain=domain,
                              derivative=lambda t: zero, name=name)


def matfn_derivative(f: MatrixFunction, t: float) -> np.ndarray:
    """d/dt of a matrix function: analytic if declared, else 4th-order differences."""
    if f.derivative is not None:
        return np.asarray(f.derivative(t), dtype=float)
    lo, hi = f.domain
    return fd_derivative(f.__call__, t, lo=lo, hi=hi)
