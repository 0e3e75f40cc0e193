"""Continuous piecewise-polynomial collocation for linear and semi-nonlinear IAEs.

The solver works in the space of globally continuous piecewise polynomials.
With collocation parameters c = (c_1, ..., c_m) and c_1 = 0, each mesh
interval [t_n, t_n + h] carries a degree-m polynomial represented by its
values at the local nodes (c_1, ..., c_m, 1); the left-end value is pinned
to the previous interval's right-end value, so continuity holds by
construction.  The unknowns of interval n are then determined by the
collocation equations at the interior points t_n + c_i h (i >= 2) together
with the equation at the right endpoint t_{n+1}, which is exactly the
c_1 = 0 collocation equation of the next interval read across the
continuity joint.

That assignment matters for singular A: collocated at t_n with a zero-width
current integral, the algebraic rows contain no unknown of interval n at
all, so a scheme that keeps the equation on its own interval has a
structurally singular Jacobian and falls apart on problems whose first-kind
rows need two differentiations.  Read as the closing equation of interval
n-1 instead, the same rows involve the full integral over that interval and
every one of its nodal values; the system becomes exactly determined and,
with the parameters used here, stable.

When c_1 > 0 there is no equation to pass across the joint; the nodes are
(0, c_1, ..., c_m) and all m collocation equations stay on their own
interval, which is the standard continuous scheme for second-kind systems.

The code has one interval system and one march.  :class:`_Interval` is
interval n's equations as the residual/Jacobian pair of its free nodal
values that :func:`~daekit.linalg.newton` takes, built from its left
value, its slices of A and f, and its history integral.  :func:`solve_iae`
marches: evaluate A and f once, at the equation times of every interval
(a constant A stays a broadcast view, and a non-finite f anywhere on the
mesh is refused before the first interval), then per interval build the
system, run Newton from its left value, record the step, add the
interval to the history, and carry its right-end value to the next.

History and partial integrals use one Gauss-Legendre rule of ``QUAD_ORDER``
points, in the solver and in :func:`residual` alike, applied to the
interval interpolants.  κ is vectorised over quadrature points, with t of
shape (M,) aligned with s (see SemiNonlinearIAE), so κ is called once per
collocation stage: each Newton residual is one call on the Gauss points of
every equation of the interval, with each equation's time repeated over
its points.  The history integral ∫ₐ^{t_n} κ(t, s, u(s)) ds depends on
the kernel:

* a kernel declared free of t (``kernel_free_of_t``) has one history, the
  same at every time of the interval.  :class:`_RunningSum` adds each
  completed interval's integral to it, one κ call on that interval's q
  Gauss points: q·N points over a solve of N intervals, and no per-point
  history in memory;
* a kernel that depends on t is integrated over the whole history again
  at each time.  :class:`_GaussHistory` keeps the solution at the Gauss
  nodes of every completed interval, and interval n's history is one
  call covering them for all its n_eq equations at once: n_eq·q·n points,
  about n_eq·q·N²/2 over a solve.

:func:`residual` builds no interval and always takes the whole history,
so it checks a solution, a running sum's included, independently of the
march: one partial-interval call for all its probes, and one history
call per batch of probes whose histories hold as many points as the
solver's largest whole-history call.  Each equation (or probe) keeps its
own product with its weights, so the values are those of one call per
equation.  The Newton matrix of an interval is one dense (n_eq r)²
system, built in one piece from one κ_y call per Newton iteration on the
residual's points.  The first κ and κ_y calls of a solve check the batch
shapes, (r, M) and (r, r, M)
(:func:`~daekit.problems.batch_checked`).  A κ with no κ_y is differenced
in one call on all 2r perturbed copies of those points
(:func:`~daekit.problems.fd_jacobian`).  Newton failures
are recorded, not raised: a solve that stops converging after an index
change is the phenomenon of interest, and the partial solution up to
that step is returned with the failure record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .linalg import NEWTON_MAX_ITER, cond, gauss_legendre, newton, norm2, per_point
from .problems import (JACOBIAN_CONTRACT, KAPPA_CONTRACT, LinearIAE, SemiNonlinearIAE, Trajectory,
                       batch_checked, probe_points, solve_span, start_value)


QUAD_ORDER = 8


@dataclass
class CollocationConfig:
    c: tuple = (0.0, 0.7, 0.9)
    h: float = 0.025
    newton_tol: float = 1e-12

    def validate(self):
        _tau_nodes(self.c)
        if not 0 < self.h < np.inf:
            raise InvalidInputError("h must be finite and positive")
        if not 0 < self.newton_tol < np.inf:
            raise InvalidInputError("newton_tol must be finite and positive")


def _tau_nodes(c) -> np.ndarray:
    """Interpolation nodes on [0, 1] of the collocation parameters c: c plus
    whichever interval endpoint it does not already contain.  The one node
    rule; c must be a non-empty, strictly increasing sequence inside [0, 1]."""
    c = np.array(c, dtype=float)
    if c.ndim != 1 or c.size < 1 or not np.all(np.diff(c) > 0) \
            or not np.all((0 <= c) & (c <= 1)):
        raise InvalidInputError(
            "collocation parameters must be distinct, increasing, inside [0, 1]")
    if c[0] == 0.0:
        return np.append(c, 1.0) if c[-1] < 1.0 else c
    return np.concatenate(([0.0], c))


def _lagrange_weights(nodes: np.ndarray, tau) -> np.ndarray:
    """Values of the Lagrange basis polynomials for ``nodes`` at ``tau``:
    shape (m,) at a float, tau.shape + (m,) at an array.  Basis j is the
    product over l != j of (tau - nodes[l]) / (nodes[j] - nodes[l]), taken
    left to right in increasing l from the l = j factor 1.0.  A float is
    worked out in scalar arithmetic with the same operations, so an array
    entry equals its float call bit for bit."""
    if isinstance(tau, float):
        xs = nodes.tolist()
        out = []
        for j, xj in enumerate(xs):
            w = 1.0
            for l, xl in enumerate(xs):
                if l != j:
                    w *= (tau - xl) / (xj - xl)
            out.append(w)
        return np.array(out)
    m = nodes.size
    denom = nodes[:, None] - nodes  # (j, l)
    denom.flat[::m + 1] = 1.0
    factors = (np.asarray(tau, dtype=float)[..., None, None] - nodes) / denom
    factors.reshape(-1, m * m)[:, ::m + 1] = 1.0  # l = j is no factor
    out = factors[..., 0]
    for l in range(1, m):
        out = out * factors[..., l]
    return out


@dataclass
class PiecewiseSolution(Trajectory):
    """Continuous piecewise polynomial: values at local nodes per interval.

    ``tau_nodes`` is derived from ``c`` (:func:`_tau_nodes`): it always
    contains 0 and, when the collocation parameters do not reach it, the
    right endpoint 1; adjacent intervals share the joint
    value, so evaluation is continuous across the mesh.  As a
    :class:`~daekit.problems.Trajectory` its knot ``times`` are the mesh.
    One time is evaluated in scalar arithmetic, with the operations of the
    array path in their order, so it gives the same bits as that time's row
    of an array call at a fraction of the cost.
    """

    t_start: float
    h: float
    c: np.ndarray
    nodal_values: np.ndarray  # shape (N, n_nodes, r)
    tau_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.t_start, self.h = float(self.t_start), float(self.h)
        if not math.isfinite(self.t_start):
            raise InvalidInputError("t_start must be finite")
        if not 0.0 < self.h < math.inf:
            raise InvalidInputError("h must be finite and positive")
        self.tau_nodes = _tau_nodes(self.c)
        self.c = np.array(self.c, dtype=float)
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if self.nodal_values.ndim != 3 or self.nodal_values.shape[1] != self.tau_nodes.size:
            raise InvalidInputError("nodal_values must have shape (N, n_nodes, r)")

    @property
    def n_intervals(self) -> int:
        return self.nodal_values.shape[0]

    @property
    def r(self) -> int:
        return self.nodal_values.shape[2]

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.h * np.arange(self.n_intervals + 1)

    @property
    def span(self) -> tuple[float, float]:
        return self.t_start, self.t_end

    @property
    def t_end(self) -> float:
        return self.t_start + self.h * self.n_intervals

    def interval_of(self, t):
        """Index of the interval holding the time t: an int at a float, an int
        array at an array.  A mesh time t_start + m·h (as ``times`` computes
        it) is in interval m, also where (t − t_start)/h rounds below m; t_end
        is in the last one.  A float is worked out in scalar arithmetic
        (``round`` halves to even, as ``np.rint`` does), bit for bit."""
        if isinstance(t, float):
            x = (t - self.t_start) / self.h
            m = round(x)
            n = m if t == self.t_start + m * self.h else math.floor(x)
            return min(max(n, 0), self.n_intervals - 1)
        t = np.asarray(t, dtype=float)
        x = (t - self.t_start) / self.h
        m = np.rint(x)
        n = np.where(t == self.t_start + m * self.h, m, np.floor(x)).astype(int)
        return np.minimum(np.maximum(n, 0), self.n_intervals - 1)

    def _at(self, t: np.ndarray) -> np.ndarray:
        if self.n_intervals == 0 and t.size:
            raise InvalidInputError("empty solution")
        # a mesh time reads its stored node: interval m at τ = 0, or the last
        # interval at τ = 1 at t_end
        if t.size == 1:
            # one time on floats: on a tie max(0.0, ·) and min(1.0, ·) give
            # the bound, as np.maximum and np.minimum do
            t = t.item()
            n = self.interval_of(t)
            tau = 1.0 if t == self.t_end else \
                min(1.0, max(0.0, (t - (self.t_start + n * self.h)) / self.h))
            weights = _lagrange_weights(self.tau_nodes, tau)[None]
            values = self.nodal_values[n:n + 1]
        else:
            n = self.interval_of(t)
            tau = np.minimum(np.maximum((t - (self.t_start + n * self.h)) / self.h, 0.0), 1.0)
            tau[t == self.t_end] = 1.0
            weights = _lagrange_weights(self.tau_nodes, tau)
            values = self.nodal_values[n]
        # a (1, n_nodes) @ (n_nodes, r) product per time, so no row's
        # arithmetic depends on the other times
        return (weights[:, None, :] @ values)[:, 0]

    def collocation_times(self) -> np.ndarray:
        ts = self.t_start + self.h * np.arange(self.n_intervals)[:, None] + self.h * self.c[None, :]
        return ts.ravel()


def _kernel_of(p):
    """(κ, ∂κ/∂y, linear) in batch form: for s of shape (M,) and y of shape
    (r, M), κ returns (r, M) and ∂κ/∂y returns (r, r, M), each in one call
    of the user's function when it takes the batch."""
    if isinstance(p, LinearIAE):
        k = per_point(p.k, p.interval, "kernel")

        def k_at(t, s):
            # contiguous values: einsum rounds by memory layout
            return np.moveaxis(np.ascontiguousarray(k(t, s)), 0, -1)

        return ((lambda t, s, y: np.einsum("ijm,jm->im", k_at(t, s), y)),
                (lambda t, s, y: k_at(t, s)), True)
    if isinstance(p, SemiNonlinearIAE):
        return (batch_checked(p.kappa, (p.r,), KAPPA_CONTRACT),
                batch_checked(p.kappa_jacobian, (p.r, p.r), JACOBIAN_CONTRACT), False)
    raise InvalidInputError(f"expected an IAE problem, got {type(p)}")


@dataclass
class _Scheme:
    """Per-solve constant data: nodes, Gauss rules, basis weights."""

    nodes: np.ndarray       # interpolation nodes in [0, 1]
    eq_taus: np.ndarray     # local positions of the interval's equations
    h: float
    hist_tau: np.ndarray    # Gauss nodes mapped to [0, 1]
    hist_w: np.ndarray      # matching weights (x h gives ds)
    hist_basis: np.ndarray  # (q, n_nodes) Lagrange weights at hist_tau
    # partial_rule(eq_taus), one row per equation: local nodes (n_eq, q),
    # weights with ds (n_eq, q), Lagrange weights (n_eq, q, n_nodes) and
    # their product with the weights
    part_tau: np.ndarray = field(init=False)
    part_w: np.ndarray = field(init=False)
    part_basis: np.ndarray = field(init=False)
    part_wbasis: np.ndarray = field(init=False)

    def __post_init__(self):
        self.part_tau, self.part_w, self.part_basis = self.partial_rule(self.eq_taus)
        self.part_wbasis = self.part_w[..., None] * self.part_basis

    def partial_rule(self, tau_end):
        """Gauss rule on [0, tau_end] of an interval: local nodes (q,),
        weights including ds (q,), and Lagrange weights at the nodes
        (q, n_nodes); an (n,) array of ends gives each an extra leading axis."""
        tau_end = np.asarray(tau_end, dtype=float)[..., None]
        tau = tau_end * self.hist_tau
        return tau, self.h * tau_end * self.hist_w, _lagrange_weights(self.nodes, tau)


def _build_scheme(c, h: float) -> _Scheme:
    # equations owned by an interval, one per free node: its collocation
    # points with tau > 0, plus the right-end closure when c starts at 0
    # (that closing equation is the next interval's tau = 0 collocation
    # equation)
    nodes = _tau_nodes(c)
    eq_taus = nodes[1:]
    x, w = gauss_legendre(QUAD_ORDER)
    hist_tau = 0.5 * (x + 1.0)
    return _Scheme(nodes=nodes, eq_taus=eq_taus, h=h, hist_tau=hist_tau, hist_w=0.5 * w,
                   hist_basis=_lagrange_weights(nodes, hist_tau))


@dataclass
class _GaussHistory:
    """The history of a kernel that depends on t: u at the Gauss nodes of
    every completed interval, laid out as κ takes it, integrated again at
    each time."""

    kappa: Callable
    basis: np.ndarray  # (q, n_nodes) Lagrange weights at the Gauss nodes
    s: np.ndarray      # (N q,) Gauss points of all intervals, in time order
    w: np.ndarray      # (N q,) matching weights, ds included
    u: np.ndarray      # (r, N q) solution at s, written as intervals complete

    @classmethod
    def empty(cls, kappa, sch: _Scheme, a: float, n_intervals: int, r: int) -> "_GaussHistory":
        t_j = a + np.arange(n_intervals) * sch.h
        s = (t_j[:, None] + sch.hist_tau[None, :] * sch.h).ravel()
        return cls(kappa=kappa, basis=sch.hist_basis, s=s,
                   w=np.tile(sch.h * sch.hist_w, n_intervals), u=np.zeros((r, s.size)))

    def store(self, n: int, values: np.ndarray):
        """Record interval n from its nodal values (n_nodes, r)."""
        q = self.basis.shape[0]
        self.u[:, n * q:(n + 1) * q] = (self.basis @ values).T

    def integral(self, t_eval: np.ndarray, n) -> np.ndarray:
        """∫ over the first n[i] intervals of κ(t_eval[i], s, u(s)) ds at every
        time t_eval[i] (n a sequence of ints), shape (len(t_eval), r), in one
        κ call over every time's Gauss points; a product per time.  An
        overflow gives inf or nan, not a warning."""
        m = [j * self.basis.shape[0] for j in n]
        out = np.zeros((len(m), self.u.shape[0]))
        if not any(m):
            return out
        # each time's prefix of the stored points, one after the other
        with np.errstate(over="ignore", invalid="ignore"):
            k = self.kappa(np.repeat(t_eval, m), np.concatenate([self.s[:j] for j in m]),
                           np.concatenate([self.u[:, :j] for j in m], axis=1))
            end = 0
            for i, j in enumerate(m):
                out[i] = k[:, end:end + j] @ self.w[:j]
                end += j
        return out


class _RunningSum:
    """The history of a kernel free of t: ∫ₐ^{t_n} κ(s, u(s)) ds is one sum,
    the same at every time.  Storing interval n adds its integral, from one
    κ call on its q Gauss points (with t = s, which κ ignores)."""

    def __init__(self, kappa, sch: _Scheme, a: float, r: int):
        self.kappa, self.sch, self.a = kappa, sch, a
        self.total = np.zeros(r)

    def store(self, n: int, values: np.ndarray):
        """Add interval n from its nodal values (n_nodes, r).  An overflow
        gives inf or nan, not a warning."""
        sch = self.sch
        s = (self.a + n * sch.h) + sch.hist_tau * sch.h
        with np.errstate(over="ignore", invalid="ignore"):
            self.total = self.total + self.kappa(s, s, (sch.hist_basis @ values).T) \
                @ (sch.h * sch.hist_w)

    def integral(self, t_eval: np.ndarray, n) -> np.ndarray:
        """The sum as one row, shape (1, r), which is its value at every time
        t_eval[i]; each n[i] is the number of intervals stored."""
        return self.total[None]


def _partial_integrals(kappa, t: np.ndarray, s: np.ndarray, u: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """∫ of κ over each row's Gauss rule, (P, r), in one κ call: row i has
    points s[i q:(i + 1) q] at time t[i q] (t and s of shape (P q,)), u of
    shape (r, P q) and weights w[i] (w of shape (P, q)); a product per row."""
    k = kappa(t, s, u).reshape(u.shape[0], *w.shape).transpose(1, 0, 2)
    return (k @ w[:, :, None])[..., 0]


def _rhs_of(p):
    """f as times -> values, shape t.shape + (r,), per point; a non-finite
    value raises, naming the first such time."""
    f = per_point(p.f, p.interval, "f")
    return lambda t: f(t).reshape(np.shape(t) + (p.r,))


class _Interval:
    """The collocation system of interval n, [t_n, t_n + h]: ``residual(x)``
    and ``jacobian(x)`` of its free nodal values x, shape (n_eq r,), the pair
    :func:`~daekit.linalg.newton` takes.  The left nodal value is pinned to
    ``left_value``.  A, f and the history integral at the interval's
    equation times come in evaluated: ``a_eq`` (n_eq, r, r), ``f_eq``
    (n_eq, r) and ``hist`` (n_eq, r), or (1, r) when it is the same at
    every time.  ``jacobian`` reads u at the x of the latest
    ``residual`` call, the order in which newton calls them.

    κ and κ_y see the Gauss points of every equation at once: t, s of shape
    (n_eq q,), each equation's time repeated over its points.
    """

    def __init__(self, kappa, kappa_jac, sch: _Scheme, t_n: float, a_eq: np.ndarray,
                 f_eq: np.ndarray, hist: np.ndarray, left_value: np.ndarray):
        self.kappa, self.kappa_jac, self.sch = kappa, kappa_jac, sch
        self.a_eq, self.f_eq, self.hist = a_eq, f_eq, hist
        self.t_all = np.repeat(t_n + sch.eq_taus * sch.h, QUAD_ORDER)
        self.s_all = (t_n + sch.part_tau * sch.h).ravel()
        self.eqs = np.arange(sch.eq_taus.size)
        self.values = np.empty((sch.nodes.size, left_value.size))  # left value, then x
        self.values[0] = left_value

    def residual(self, x: np.ndarray) -> np.ndarray:
        u, r = self.values, self.values.shape[1]
        u[1:] = x.reshape(-1, r)
        self.u_s = (self.sch.part_basis @ u).reshape(-1, r).T  # (r, n_eq q)
        k_int = _partial_integrals(self.kappa, self.t_all, self.s_all, self.u_s, self.sch.part_w)
        # equation positions line up with nodes[1:]
        return (np.einsum("eab,eb->ea", self.a_eq, u[1:]) + self.hist + k_int - self.f_eq).ravel()

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        # block (i, j) = Σ_g w_ig ℓ_j(τ_ig) ∂κ/∂y(s_ig) over the free nodes j,
        # plus A(t_eq[i]) where node j carries equation i
        r, eqs = self.values.shape[1], self.eqs
        k_y = self.kappa_jac(self.t_all, self.s_all, self.u_s).reshape(r, r, eqs.size, -1)
        jac = np.einsum("egj,abeg->eajb", self.sch.part_wbasis[:, :, 1:], k_y)
        jac[eqs, :, eqs, :] += self.a_eq
        return jac.reshape(x.size, x.size)


def solve_iae(p, cfg: CollocationConfig, interval=None):
    """March the collocation scheme across the mesh; returns (solution, diagnostics).

    Each step builds interval n's system (:class:`_Interval`) from the
    previous interval's right-end value, solves it by Newton from that
    value, records the step and stores the interval in the history of the
    next ones.  Diagnostics carry per-step Newton iterations, residual norms and
    Newton-matrix condition numbers, plus a failure record if a step did
    not converge (the solution then covers only the completed steps).  The
    record's ``t`` is the end of the interval that failed, a + (step + 1)·h,
    as in :func:`~daekit.bdf.solve_dae`'s record.  A
    linear problem's residual norm is that of the accepted value; a
    nonlinear entry is the residual at the iterate before the accepted
    step, whose Newton step met ``newton_tol``.  The
    interval and the initial value come from ``solve_span`` and
    ``start_value`` (:mod:`~daekit.problems`); without a start value the
    solve starts from the least-squares solution of A(a)y = f(a), with a
    warning.
    """
    cfg.validate()
    kappa, kappa_jac, linear = _kernel_of(p)
    a, n_steps = solve_span(p, interval, cfg.h)
    sch = _build_scheme(cfg.c, cfg.h)
    diag = {
        "newton_iters": [], "residual_norms": [], "condition_numbers": [], "failure": None,
        "warnings": [],
        "config": {"c": [float(x) for x in cfg.c], "h": cfg.h,
                   "quad_order": QUAD_ORDER, "newton_tol": cfg.newton_tol,
                   "newton_max_iter": NEWTON_MAX_ITER},
    }
    f = _rhs_of(p)
    f_a = f(a)
    y_start = start_value(p, a)
    if y_start is None:
        # the one start guessed where the data give none
        y_start = np.linalg.lstsq(p.A(a), f_a, rcond=None)[0]
        diag["warnings"].append("initial value at t=%g taken as least-squares solution of "
                                "A(a) y = f(a); kernel-of-A components are a guess" % a)
    # the data themselves must satisfy the equation at t = a
    start_defect = norm2(p.A(a) @ y_start - f_a)
    diag["start_consistency"] = start_defect
    if start_defect > 1e-8 * (1.0 + norm2(f_a)):
        diag["warnings"].append(
            f"initial data violate A(a)y = f(a) by {start_defect:.3e}")

    # A and f at the equation times of every interval, before the first:
    # a non-finite f anywhere on the mesh is refused here
    t_n = a + np.arange(n_steps) * cfg.h
    t_eq = t_n[:, None] + sch.eq_taus * sch.h
    a_eq, f_eq = p.A(t_eq), f(t_eq)
    history = (_RunningSum(kappa, sch, a, p.r) if p.kernel_free_of_t
               else _GaussHistory.empty(kappa, sch, a, n_steps, p.r))
    values = np.zeros((n_steps, sch.nodes.size, p.r))
    end_weights = _lagrange_weights(sch.nodes, 1.0)  # the right end, when it is no node
    left_value = y_start
    for n in range(n_steps):
        system = _Interval(kappa, kappa_jac, sch, t_n[n], a_eq[n], f_eq[n],
                           history.integral(t_eq[n], [n] * sch.eq_taus.size), left_value)
        # initial guess: the previous interval's right-end value, carried
        # forward unchanged (first interval: the consistent start value)
        u_free, iters, res, jac = newton(system.residual, system.jacobian,
                                         np.concatenate((left_value,) * sch.eq_taus.size),
                                         cfg.newton_tol, NEWTON_MAX_ITER, affine=linear)
        if linear and u_free is not None:
            res = system.residual(u_free)  # the accepted value's, not its start guess's
        diag["newton_iters"].append(iters)
        with np.errstate(over="ignore"):  # a diverged iterate's norm is inf
            diag["residual_norms"].append(norm2(res))
        diag["condition_numbers"].append(np.inf if u_free is None else cond(jac))
        if u_free is None:
            diag["failure"] = {"step": n, "t": a + (n + 1) * cfg.h,
                               "reason": "Newton iteration did not converge"}
            values = values[:n]
            break
        values[n, 0] = left_value
        values[n, 1:] = u_free.reshape(-1, p.r)
        history.store(n, values[n])
        left_value = values[n, -1] if sch.nodes[-1] == 1.0 else end_weights @ values[n]

    return PiecewiseSolution(t_start=a, h=cfg.h, c=cfg.c, nodal_values=values), diag


def residual(p, sol: PiecewiseSolution, probe_grid) -> np.ndarray:
    """Defining-equation residual norms at probe points, using the solver's
    batched Gauss quadrature."""
    if sol.n_intervals == 0:
        raise InvalidInputError("empty solution")
    kappa, _, _ = _kernel_of(p)
    sch = _build_scheme(sol.c, sol.h)
    lo, hi = sol.t_start, sol.t_end
    t_probe = probe_points(probe_grid, lo, hi)
    history = _GaussHistory.empty(kappa, sch, lo, sol.n_intervals, sol.r)
    for n in range(sol.n_intervals):
        history.store(n, sol.nodal_values[n])
    n_probe = sol.interval_of(t_probe)
    t_n = lo + n_probe * sol.h
    # partial piece of the current interval, [t_n, t], at every probe
    tau_t = (t_probe - t_n) / sol.h
    tau, w, basis = sch.partial_rule(tau_t)
    u_part = basis @ sol.nodal_values[n_probe]  # (P, q, r)
    # an overflowing κ makes an inf residual, not a warning, as in solve_iae
    with np.errstate(over="ignore", invalid="ignore"):
        # a κ call covers the histories of as many probes as hold the points
        # of the solver's own history call (n_eq N q), plus one probe's: all
        # P probes in one call would hold O(P N) points
        batch = sch.eq_taus.size * history.s.size
        cuts = np.flatnonzero(np.diff(np.cumsum(n_probe) * QUAD_ORDER // batch)) + 1
        acc = np.concatenate([history.integral(t, n.tolist()) for t, n in
                              zip(np.split(t_probe, cuts), np.split(n_probe, cuts))])
        part = np.flatnonzero(tau_t > 0.0)
        if part.size:
            acc[part] = acc[part] + _partial_integrals(
                kappa, np.repeat(t_probe[part], QUAD_ORDER),
                (t_n[part, None] + tau[part] * sol.h).ravel(),
                u_part[part].reshape(-1, sol.r).T, w[part])
        res = (p.A(t_probe) @ sol(t_probe)[:, :, None])[..., 0] + acc - _rhs_of(p)(t_probe)
        # row by row: np.linalg.norm(res, axis=1) rounds some rows differently
        return np.array([norm2(x) for x in res])
