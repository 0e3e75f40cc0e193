"""Dense matrix utilities: numerical rank, semi-inverse, projector, derivatives.

Everything here works on small dense real square matrices (the coefficient
matrices of algebraic equation systems).  A "semi-inverse" of A is any matrix
A⁻ with A A⁻ A = A; the Moore-Penrose pseudoinverse is used throughout because
it is deterministic and varies continuously while the rank stays constant.

The matrix routines also take a stack (..., r, r) of matrices, in the style
of a numpy gufunc, and the routines of t also take an array of times.  A
small SVD costs about as much in a stack as alone (1–2 µs for a 2×2
matrix), so a stack takes one SVD, and one determinant, per distinct
matrix (:func:`per_distinct`): a broadcast stack of one matrix takes
one.  Each slice of a stack gets exactly the arithmetic of the
single-matrix call, so the two forms agree bit for bit.
:class:`MatrixFunction` is the one float/array adapter for every
function of time: coefficients, chain levels, kernels, right sides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# the LAPACK gesv and gesdd gufuncs that np.linalg.solve and np.linalg.cond
# wrap: called directly, they give the same bits without the wrappers' fixed
# cost, which dominates small matrices
from numpy.linalg._umath_linalg import solve1 as _gesv, svd as _singular_values

from .errors import DomainError, EvaluationError, InvalidInputError

# the relative singular-value threshold of every rank decision (:func:`_kept`)
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


def _core(m: np.ndarray) -> np.ndarray:
    """The free view of a stack m (..., r, r) with each stride-0 stack axis
    (a broadcast view's) cut to one slice."""
    return m[tuple(slice(0, 1) if step == 0 else slice(None) for step in m.strides[:-2])]


def per_distinct(routine: Callable, m: np.ndarray):
    """``routine(m)`` of a per-matrix routine (an SVD, a determinant) on a
    stack m (..., r, r), with ``routine`` run once per distinct matrix.

    A stride-0 stack axis (a broadcast view) is cut to one slice for free;
    if more than one matrix is left, one ``np.unique`` over each matrix's
    bytes finds the repeats, so +0.0 and −0.0 count as different entries.
    Each output (one array or a tuple) comes back C-contiguous and
    writable with the stack's leading shape.  As the routine works on
    each matrix alone, every value has the bits of the call on the whole
    stack.
    """
    if m.ndim == 2 or m.size == 0:
        return routine(m)
    core = _core(m)
    flat = np.ascontiguousarray(core).reshape((-1,) + m.shape[-2:])
    inverse = slice(None)
    if len(flat) > 1:
        keys = flat.reshape(len(flat), -1).view(np.dtype((np.void, flat[0].nbytes)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        flat = flat[first]
    out = routine(flat)

    def spread(x: np.ndarray) -> np.ndarray:
        tail = x.shape[1:]
        x = x[inverse].reshape(core.shape[:-2] + tail)
        return x if core.shape == m.shape else np.broadcast_to(x, m.shape[:-2] + tail).copy()

    return spread(out) if not isinstance(out, tuple) else tuple(map(spread, out))


def _kept(s: np.ndarray) -> np.ndarray:
    """Singular values above ``DEFAULT_RANK_TOL`` times the largest of their
    matrix (none if it is 0): the one rank decision of the package."""
    return s > DEFAULT_RANK_TOL * s[..., :1]


def numerical_rank(m):
    """Number of singular values above ``DEFAULT_RANK_TOL * sigma_max``.

    The zero matrix has rank 0; the tolerance is relative to the largest
    singular value, so scaling the matrix does not change the answer.  A
    stack (..., r, r) gives an integer array of shape (...), from one SVD
    per distinct matrix.
    """
    m = _check_square_finite(m)
    rank = per_distinct(
        lambda d: np.count_nonzero(_kept(np.linalg.svd(d, compute_uv=False)), axis=-1), m)
    return int(rank) if m.ndim == 2 else rank


def det(m) -> np.ndarray:
    """``np.linalg.det`` of a matrix or a stack (..., r, r), one LU per
    distinct matrix (:func:`per_distinct`), bit for bit."""
    return per_distinct(np.linalg.det, np.asarray(m, dtype=float))


def cond(m: np.ndarray) -> float:
    """``np.linalg.cond(m)`` of one finite square matrix m, to the bit:
    σ_max/σ_min from the singular values alone, and inf where that is NaN
    (the zero matrix).  m is not checked."""
    s = _singular_values(m, signature="d->d")
    with np.errstate(all="ignore"):
        ratio = s[0] / s[-1]
    return math.inf if math.isnan(ratio) else float(ratio)


@dataclass(frozen=True)
class SemiInverseResult:
    """Semi-inverse A⁻ of a square matrix plus derived quantities.

    ``projector`` is V = E - A A⁻, the left annihilator of A: V A = 0.  It
    extracts the rows of an equation system in which A carries no information
    (the purely algebraic directions).  For a stack of matrices every field
    is stacked too (``rank`` is then an integer array).
    """

    a_minus: np.ndarray
    rank: int | np.ndarray
    projector: np.ndarray


def _pseudoinverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The truncated pseudoinverse and rank of :func:`semi_inverse`, read
    from the SVD of m alone."""
    u, s, vh = np.linalg.svd(m)
    keep = _kept(s)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    a_minus = (np.swapaxes(vh, -1, -2) * inv_s[..., None, :]) @ np.swapaxes(u, -1, -2)
    return a_minus, np.count_nonzero(keep, axis=-1)


def semi_inverse(m) -> SemiInverseResult:
    """Moore-Penrose pseudoinverse with singular values below
    ``DEFAULT_RANK_TOL * sigma_max`` dropped.

    Returns the pseudoinverse, the retained rank, and the projector
    V = E - A A⁻.  The truncation keeps the result stable when A is
    numerically rank-deficient.  ``m`` may be one matrix or a stack
    (..., r, r); a stack takes one SVD per distinct matrix.
    """
    m = _check_square_finite(m)
    a_minus, rank = per_distinct(_pseudoinverse, m)
    projector = np.eye(m.shape[-1]) - m @ a_minus
    return SemiInverseResult(a_minus=a_minus, rank=int(rank) if m.ndim == 2 else rank,
                             projector=projector)


def projector(m: np.ndarray) -> np.ndarray:
    """The projector V of :func:`semi_inverse` of a finite stack m (..., r, r),
    formed once per distinct matrix, with the bits of semi_inverse's.  A
    stride-0 axis of m stays one: V is a read-only view, and a broadcast
    (constant) stack's V holds one matrix.  m is not checked."""
    def each(d: np.ndarray) -> np.ndarray:
        return np.eye(d.shape[-1]) - d @ _pseudoinverse(d)[0]

    return np.broadcast_to(per_distinct(each, _core(m)), m.shape)


def norm2(v) -> float:
    """Euclidean norm of ``v`` raveled, as ``math.sqrt(v·v)``: what
    ``np.linalg.norm`` computes for a real v, to the bit, without its
    wrapper.  An overflowing dot gives inf (and numpy's overflow warning)."""
    v = np.asarray(v, dtype=float).ravel("K")
    return math.sqrt(v.dot(v))


# the most entries all_finite tests by their dot product
_DOT_TEST_MAX = 256


def all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()``'s verdict without numpy's Python ``_all``
    wrapper.  A small v (Newton's residual and Jacobian) takes one
    ``np.vdot`` first: a finite v·v means every entry is finite (no
    square is negative, so nothing cancels), and only a NaN, an inf or an
    overflowing dot (entries past 1e154) takes the exact test.  ``np.vdot``
    raises no floating-point warning.  A larger v, a chain level's stack
    above all, takes the exact count alone: ``np.vdot`` would copy a
    non-contiguous stack and may wake the BLAS threads on a long one."""
    if v.size <= _DOT_TEST_MAX and math.isfinite(np.vdot(v, v)):
        return True
    return np.count_nonzero(np.isfinite(v)) == v.size


def non_finite(m: np.ndarray, t, what: str) -> InvalidInputError:
    """The error of a value m of ``what`` at t that is not finite: it names
    t, or for an array t (one time per leading entry of m) the first time
    whose value is not finite."""
    if np.ndim(t):
        t = np.ravel(t)[np.argmin(np.isfinite(m.reshape(np.size(t), -1)).all(axis=1))]
    return InvalidInputError(f"non-finite {what} at t={t}")


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
    Jacobian); x is None after a non-finite residual, Jacobian or iterate,
    or ``max_iter`` iterations without convergence.  An iterate whose norm
    overflows counts as non-finite (the test above would pass for any δ),
    and so does the NaN step of an exactly singular Jacobian.
    """
    x = np.array(x0, dtype=float)
    res = jac = None
    # overflow while probing a divergent iterate is expected, and so is the
    # invalid flag of a singular solve (its step is NaN); the finiteness
    # checks turn both into a clean non-convergence
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            res = residual(x)
            if not all_finite(res):
                return None, it, res, None
            jac = jacobian(x)
            if not all_finite(jac):
                return None, it, res, jac
            # −δ: gesv's arithmetic is odd in its right side, bit for bit
            step = _gesv(jac, res, signature="dd->d")
            x = x - step
            # norm2 written out: its asarray and ravel would add measurably
            # to the two norms of every iteration
            x_norm = math.sqrt(x.dot(x))
            if not math.isfinite(x_norm):
                return None, it, res, jac
            if affine or math.sqrt(step.dot(step)) <= tol * (1.0 + x_norm):
                return x, it, res, jac
    return None, max_iter, res, jac


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss–Legendre rule on
    [−1, 1], read-only: built on first use, not at import, as numpy loads
    ``numpy.polynomial`` only when it is first asked for."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# the most panels :func:`quadrature` doubles to before it gives up
QUAD_MAX_PANELS = 1024


def quadrature(fn: Callable, a: float, b: float, tol: float) -> np.ndarray:
    """∫ fn(s) ds over [a, b] of an array-valued ``fn`` of a float s.

    Composite 8-point Gauss–Legendre on 1, 2, 4, ... equal panels, until two
    successive estimates agree to tol·max(1, |I|) in every component; the
    finer one is returned.  A non-finite value of ``fn``, or no agreement
    within ``QUAD_MAX_PANELS`` panels, raises EvaluationError.
    """
    x, w = gauss_legendre(8)
    prev, panels = None, 1
    while panels <= QUAD_MAX_PANELS:
        left, half = np.linspace(a, b, panels + 1)[:-1], 0.5 * (b - a) / panels
        vals = np.array([fn(s) for s in (left[:, None] + half * (x + 1.0)).ravel().tolist()],
                        dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"non-finite integrand on [{a}, {b}]")
        est = np.tensordot(half * np.tile(w, panels), vals, axes=1)
        if prev is not None and np.all(np.abs(est - prev) <= tol * np.maximum(1.0, np.abs(est))):
            return est
        prev, panels = est, 2 * panels
    raise EvaluationError(f"quadrature on [{a}, {b}] did not settle to {tol} "
                          f"within {QUAD_MAX_PANELS} panels")


def check_span(t, lo: float, hi: float, what: str, error: type = DomainError):
    """``t`` checked to lie in the span [lo − 1e-9·max(1, |lo|),
    hi + 1e-9·max(1, |hi|)] of ``what`` (NaN never does), else ``error``:
    the one span rule of the package.  A float t (``np.float64`` too) comes
    back as a Python float and builds no array; anything else as a float
    array."""
    if isinstance(t, float):
        ts = t0 = t1 = float(t)
    else:
        ts = np.asarray(t, dtype=float)
        # the ends as initial values, so that an empty t passes
        t0, t1 = (ts.item(),) * 2 if ts.size == 1 else (ts.min(initial=lo), ts.max(initial=hi))
    if not lo - 1e-9 * max(1.0, abs(lo)) <= t0 <= t1 <= hi + 1e-9 * max(1.0, abs(hi)):
        raise error(f"t={t0 if t0 < lo else t1} outside the span [{lo}, {hi}] of {what}")
    return ts


def check_grid(grid, min_size: int, what: str = "grid") -> np.ndarray:
    """``grid`` as a 1-D, finite, strictly increasing float array of at least
    ``min_size`` points, else InvalidInputError: the one grid rule of the package."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < min_size or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0):
        raise InvalidInputError(f"{what} must be 1-D, finite and strictly increasing, "
                                f"with at least {min_size} point(s)")
    return grid


# the step of fd_derivative's stencils at t is FD_STEP·max(1, |t|)
FD_STEP = 1e-4


def fd_derivative(fn: Callable, t, lo: float = -np.inf, hi: float = np.inf,
                  args: tuple = ()) -> np.ndarray:
    """4th-order finite-difference derivative of an array-valued function of t.

    t must lie in [lo, hi] (:func:`check_span`), and the step at t is
    ``FD_STEP``·max(1, |t|).  Uses the central 5-point stencil where the
    domain allows, one-sided 4th-order stencils near ``lo``/``hi``; the
    step shrinks to a quarter of the domain if the domain is too narrow
    for the stencil, and a t that still fits no stencil takes the
    one-sided one toward the farther end, with step a quarter of the
    distance to it.  ``fn`` is called as ``fn(tau, *args)``.

    For a float ``t``, ``fn`` is called once per stencil point.  For an
    (n,) array ``t``, it is called once, on the (m,) array of every stencil
    point of every t, and must return an (m, ...) stack; each of ``args`` is
    then an (n,) array aligned with ``t`` and reaches ``fn`` repeated to
    match the points.  Each t keeps its own step and stencil kind, so the
    (n, ...) result equals the loop of float calls bit for bit.
    """
    ts = np.asarray(check_span(t, lo, hi, "the function differenced"))
    scalar = ts.ndim == 0
    ts = np.atleast_1d(ts)
    steps = FD_STEP * np.maximum(1.0, np.abs(ts))

    # largest stencil reach is 4 steps (one-sided) or 2 (central); an
    # infinite span leaves the step as it is
    steps = np.minimum(steps, np.maximum((hi - lo) / 4.0, 1e-14))

    central = (ts - 2.0 * steps >= lo) & (ts + 2.0 * steps <= hi)
    forward = ~central & (ts + 4.0 * steps <= hi)
    backward = ~central & ~forward & (ts - 4.0 * steps >= lo)
    stuck = ~(central | forward | backward)
    if np.any(stuck):
        # a t that fits none of them takes the one-sided stencil reaching the farther end
        up, down = hi - ts, ts - lo
        steps = np.where(stuck, np.maximum(up, down) / 4.0, steps)
        forward |= stuck & (up >= down)
        backward |= stuck & (up < down)
        if np.any(steps[stuck] <= 0.0):
            j = int(np.argmax(stuck))
            raise DomainError(f"domain [{lo}, {hi}] too narrow for a stencil at t={ts[j]}")

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
    """A matrix (or vector) function of time on the closed interval ``domain`` (:func:`check_span`).

    ``derivative`` is the analytic d/dt when available; otherwise
    :func:`matfn_derivative` falls back to finite differences.  A float t
    gives the value, an array of times the stack along t.shape.  ``eval``
    gets a float t once per time, or if ``vectorized`` the (n,) array of
    times at once (a float t as a (1,) array) and returns the (n, ...)
    stack.  Further arguments (a kernel's s) are broadcast with t and reach
    ``eval`` the way t does.  A declared ``derivative`` is called the way
    ``eval`` is.  Nothing is memoized.  A value that is not finite raises
    InvalidInputError naming the first time whose value it is.
    """

    eval: Callable
    domain: tuple[float, float] = (0.0, 1.0)
    derivative: Optional[Callable] = None
    name: str = ""
    vectorized: bool = False
    # a finite constant's one read-only matrix, checked where it is built:
    # a float t gets it as it is, and no call checks a value again; None
    # for any other function.  No field, so no setting
    _constant = None

    def __call__(self, t, *args) -> np.ndarray:
        if args:
            t, *args = np.broadcast_arrays(np.asarray(t, dtype=float),
                                           *(np.asarray(a, dtype=float) for a in args))
        ts = check_span(t, *self.domain, self.name or "a matrix function")
        if isinstance(ts, float):
            if self._constant is not None:
                return self._constant
            # one time: the array path's call of eval and its value, without
            # the arrays of t around them
            if self.vectorized:
                m = np.asarray(self.eval(np.array([ts])), dtype=float)
                m = m.reshape(m.shape[1:])
            else:
                m = np.array(self.eval(ts), dtype=float)
        else:
            if self.vectorized:
                m = np.asarray(self.eval(ts.ravel(), *[a.ravel() for a in args]), dtype=float)
            else:
                m = np.array(list(map(self.eval, ts.ravel().tolist(),
                                      *[a.ravel().tolist() for a in args])), dtype=float)
            m = m.reshape(ts.shape + m.shape[1:])
        if self._constant is None and not all_finite(m):
            raise non_finite(m, ts if np.ndim(t) else t, self.name or "matrix function")
        return m

    @staticmethod
    def constant(m, domain=(0.0, 1.0), name: str = "") -> "MatrixFunction":
        """The matrix ``m`` at every t: one read-only copy at a float t, and
        read-only views of it at an array.  Its finiteness is checked once,
        here; a non-finite m raises at each call, as any matrix function's
        non-finite value does."""
        m = np.array(m, dtype=float)

        def fixed(value: np.ndarray) -> Callable:
            value.flags.writeable = False
            one = value[None]       # a float t needs no broadcast

            def at(t, *s):
                if t.size == 1:
                    return one
                # a kernel's s (t's shape) is ignored
                return np.broadcast_to(value, t.shape + value.shape)

            return at

        out = MatrixFunction(eval=fixed(m), domain=domain, derivative=fixed(np.zeros_like(m)),
                             name=name, vectorized=True)
        if all_finite(m):
            out._constant = m
        return out


def per_point(fn: Callable, domain, name: str = "") -> MatrixFunction:
    """``fn`` if a MatrixFunction, else ``fn`` of floats called once per point on ``domain``."""
    return fn if isinstance(fn, MatrixFunction) else MatrixFunction(fn, domain, name=name)


def matfn_derivative(f: MatrixFunction, t) -> np.ndarray:
    """d/dt of a matrix function at a float t or an (n,) array of times:
    analytic if declared, else 4th-order differences."""
    if f.derivative is None:
        lo, hi = f.domain
        return fd_derivative(f.__call__, t, lo=lo, hi=hi)
    return MatrixFunction(eval=f.derivative, domain=f.domain, vectorized=f.vectorized,
                          name=f"derivative of {f.name or 'matrix function'}")(t)
