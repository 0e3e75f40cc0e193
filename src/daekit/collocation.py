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

History and partial integrals use one Gauss-Legendre rule of ``QUAD_ORDER``
points, in the solver and in :func:`residual` alike, applied to the
interval interpolants.  κ is vectorised over quadrature points (see
SemiNonlinearIAE), so each integral is one κ call: the history integral
covers the solution stored at the Gauss nodes of every completed interval,
and each Newton iteration makes one call per equation.  Newton failures
are recorded, not raised: a solve that stops converging after an index
change is the phenomenon of interest, and the partial solution up to
that step is returned with the failure record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .linalg import NEWTON_MAX_ITER, newton
from .problems import LinearIAE, SemiNonlinearIAE, mesh_steps, probe_points


QUAD_ORDER = 8


@dataclass
class CollocationConfig:
    c: tuple = (0.0, 0.7, 0.9)
    h: float = 0.025
    newton_tol: float = 1e-12

    def validate(self):
        c = np.asarray(self.c, dtype=float)
        if c.size < 1 or np.any(np.diff(c) <= 0) or not np.all((0 <= c) & (c <= 1)):
            raise InvalidInputError(
                "collocation parameters must be distinct, increasing, inside [0, 1]")
        if not 0 < self.h < np.inf:
            raise InvalidInputError("h must be finite and positive")
        if not 0 < self.newton_tol < np.inf:
            raise InvalidInputError("newton_tol must be finite and positive")

    def tau_nodes(self) -> np.ndarray:
        """Interpolation nodes on [0, 1]: the collocation parameters plus
        whichever interval endpoint they do not already contain."""
        c = np.asarray(self.c, dtype=float)
        if c[0] == 0.0:
            return np.append(c, 1.0) if c[-1] < 1.0 else c
        return np.concatenate(([0.0], c))


def _lagrange_weights(nodes: np.ndarray, tau: float) -> np.ndarray:
    """Values of the Lagrange basis polynomials for ``nodes`` at ``tau``."""
    m = nodes.size
    out = np.ones(m)
    for j in range(m):
        for l in range(m):
            if l != j:
                out[j] *= (tau - nodes[l]) / (nodes[j] - nodes[l])
    return out


@dataclass
class PiecewiseSolution:
    """Continuous piecewise polynomial: values at local nodes per interval.

    ``tau_nodes`` always contains 0 and, when the collocation parameters do
    not reach it, the right endpoint 1; adjacent intervals share the joint
    value, so evaluation is continuous across the mesh.
    """

    t_start: float
    h: float
    c: np.ndarray
    tau_nodes: np.ndarray
    nodal_values: np.ndarray  # shape (N, n_nodes, r)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.tau_nodes = np.asarray(self.tau_nodes, dtype=float)
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
    def mesh(self) -> np.ndarray:
        return self.t_start + self.h * np.arange(self.n_intervals + 1)

    @property
    def t_end(self) -> float:
        return self.t_start + self.h * self.n_intervals

    def interval_of(self, t: float) -> int:
        n = int(np.floor((t - self.t_start) / self.h))
        return min(max(n, 0), self.n_intervals - 1)

    def eval_local(self, n: int, tau: float) -> np.ndarray:
        return _lagrange_weights(self.tau_nodes, tau) @ self.nodal_values[n]

    def __call__(self, t: float) -> np.ndarray:
        if self.n_intervals == 0:
            raise InvalidInputError("empty solution")
        slack = 1e-9 * max(1.0, abs(self.t_start), abs(self.t_end))
        if not (self.t_start - slack <= t <= self.t_end + slack):
            raise InvalidInputError(
                f"t={t} outside solved span [{self.t_start}, {self.t_end}]")
        n = self.interval_of(t)
        tau = (t - (self.t_start + n * self.h)) / self.h
        return self.eval_local(n, min(max(tau, 0.0), 1.0))

    def collocation_times(self) -> np.ndarray:
        ts = self.t_start + self.h * np.arange(self.n_intervals)[:, None] + self.h * self.c[None, :]
        return ts.ravel()


_CONTRACT = ("κ must be vectorised: κ(t, s, y) with s of shape (M,) and y of shape "
             "(r, M), components on axis 0, returns shape (r, M)")


def _checked_kappa(kappa, r: int):
    """κ as the solver calls it; the first call checks the batch contract."""
    checked = False

    def call(t, s, y):
        nonlocal checked
        if checked:
            return kappa(t, s, y)
        try:
            out = np.asarray(kappa(t, s, y), dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{_CONTRACT}; the batched call raised {exc!r}") from exc
        if out.shape != (r, s.size):
            raise InvalidInputError(
                f"{_CONTRACT}; the batched call returned shape {out.shape}, "
                f"expected {(r, s.size)}")
        checked = True
        return out

    return call


def _kernel_of(p):
    """(κ, ∂κ/∂y, linear) in batch form: for s of shape (M,) and y of shape
    (r, M), κ returns (r, M) and ∂κ/∂y returns (r, r, M)."""
    if isinstance(p, LinearIAE):
        def k_at(t, s):
            return np.stack([p.k(t, si) for si in s], axis=-1)

        return ((lambda t, s, y: np.einsum("ijm,jm->im", k_at(t, s), y)),
                (lambda t, s, y: k_at(t, s)), True)
    if isinstance(p, SemiNonlinearIAE):
        return _checked_kappa(p.kappa, p.r), p.kappa_jacobian, False
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
    part: list = field(default_factory=list)  # per equation: partial_rule(eq_tau)

    def partial_rule(self, tau_end: float):
        """Gauss rule on [0, tau_end] of an interval: local nodes (q,),
        weights including ds (q,), and Lagrange weights at the nodes (q, n_nodes)."""
        tau = tau_end * self.hist_tau
        basis = np.array([_lagrange_weights(self.nodes, x) for x in tau])
        return tau, self.h * tau_end * self.hist_w, basis


def _build_scheme(c: np.ndarray, nodes: np.ndarray, h: float) -> _Scheme:
    # equations owned by an interval: its collocation points with tau > 0,
    # plus the right-end closure when c starts at 0 (that closing equation
    # is the next interval's tau = 0 collocation equation)
    if c[0] == 0.0:
        eq_taus = np.append(c[1:], 1.0) if nodes[-1] == 1.0 and c[-1] < 1.0 else c[1:]
    else:
        eq_taus = c.copy()
    x, w = np.polynomial.legendre.leggauss(QUAD_ORDER)
    hist_tau = 0.5 * (x + 1.0)
    hist_basis = np.array([_lagrange_weights(nodes, tau) for tau in hist_tau])
    sch = _Scheme(nodes=nodes, eq_taus=eq_taus, h=h, hist_tau=hist_tau, hist_w=0.5 * w,
                  hist_basis=hist_basis)
    sch.part = [sch.partial_rule(tau_eq) for tau_eq in eq_taus]
    return sch


@dataclass
class _GaussHistory:
    """u at the Gauss nodes of every completed interval, laid out as κ takes it."""

    basis: np.ndarray  # (q, n_nodes) Lagrange weights at the Gauss nodes
    s: np.ndarray      # (N q,) Gauss points of all intervals, in time order
    w: np.ndarray      # (N q,) matching weights, ds included
    u: np.ndarray      # (r, N q) solution at s, written as intervals complete

    @classmethod
    def empty(cls, sch: _Scheme, a: float, n_intervals: int, r: int) -> "_GaussHistory":
        t_j = a + np.arange(n_intervals) * sch.h
        s = (t_j[:, None] + sch.hist_tau[None, :] * sch.h).ravel()
        return cls(basis=sch.hist_basis, s=s, w=np.tile(sch.h * sch.hist_w, n_intervals),
                   u=np.zeros((r, s.size)))

    def store(self, n: int, values: np.ndarray):
        """Record interval n from its nodal values (n_nodes, r)."""
        q = self.basis.shape[0]
        self.u[:, n * q:(n + 1) * q] = (self.basis @ values).T

    def integral(self, kappa, t_eval: float, n: int) -> np.ndarray:
        """∫ over the first n intervals of κ(t_eval, s, u(s)) ds, in one κ call."""
        m = n * self.basis.shape[0]
        if m == 0:
            return np.zeros(self.u.shape[0])
        return kappa(t_eval, self.s[:m], self.u[:, :m]) @ self.w[:m]


def _consistent_start(p, a: float):
    """Initial value at a: the exact solution when known, else least squares.

    The least-squares fallback only recovers what A(a)y = f(a) determines;
    components in ker A of higher-index problems are not recoverable from
    the data alone, so a warning is attached.
    """
    if getattr(p, "exact", None) is not None:
        return np.atleast_1d(np.asarray(p.exact(a), dtype=float)), None
    y, *_ = np.linalg.lstsq(p.A(a), np.atleast_1d(np.asarray(p.f(a), dtype=float)),
                            rcond=None)
    return y, ("initial value at t=%g taken as least-squares solution of "
               "A(a) y = f(a); kernel-of-A components are a guess" % a)


def solve_iae(p, cfg: CollocationConfig, interval=None):
    """March the collocation scheme across the mesh; returns (solution, diagnostics).

    Diagnostics carry per-step Newton iterations, final residual norms and
    Newton-matrix condition numbers, plus a failure record if a step did
    not converge (the solution then covers only the completed steps).
    """
    cfg.validate()
    kappa, kappa_jac, linear = _kernel_of(p)
    a, b = p.interval if interval is None else (float(interval[0]), float(interval[1]))
    if abs(a - p.t_start) > 1e-12:
        raise InvalidInputError(
            f"solve must start at the integral origin t_start={p.t_start}, got {a}")
    if not a < b <= p.T + 1e-9:
        raise InvalidInputError(f"bad interval [{a}, {b}] for problem on [{p.t_start}, {p.T}]")
    n_steps = mesh_steps(a, b, cfg.h)

    c = np.asarray(cfg.c, dtype=float)
    nodes = cfg.tau_nodes()
    sch = _build_scheme(c, nodes, cfg.h)
    n_nodes = nodes.size
    n_eq = sch.eq_taus.size        # equations per interval = free nodes per interval
    r = p.r

    y_start, start_warning = _consistent_start(p, a)
    if y_start.shape != (r,):
        raise InvalidInputError("initial value has wrong dimension")

    values = np.zeros((n_steps, n_nodes, r))
    diag = {
        "newton_iters": [], "residual_norms": [], "condition_numbers": [],
        "failure": None,
        "warnings": [start_warning] if start_warning else [],
        "config": {"c": [float(x) for x in c], "h": cfg.h,
                   "quad_order": QUAD_ORDER, "newton_tol": cfg.newton_tol,
                   "newton_max_iter": NEWTON_MAX_ITER},
    }
    # the data themselves must satisfy the equation at t = a
    f_a = np.atleast_1d(np.asarray(p.f(a), dtype=float))
    start_defect = float(np.linalg.norm(p.A(a) @ y_start - f_a))
    diag["start_consistency"] = start_defect
    if start_defect > 1e-8 * (1.0 + float(np.linalg.norm(f_a))):
        diag["warnings"].append(
            f"initial data violate A(a)y = f(a) by {start_defect:.3e}")

    history = _GaussHistory.empty(sch, a, n_steps, r)
    left_value = y_start
    completed = 0
    for n in range(n_steps):
        t_n = a + n * cfg.h
        t_eq = t_n + sch.eq_taus * cfg.h
        a_eq = [p.A(t) for t in t_eq]
        f_eq = [np.atleast_1d(np.asarray(p.f(t), dtype=float)) for t in t_eq]
        hist = [history.integral(kappa, t, n) for t in t_eq]
        s_part = [t_n + tau * cfg.h for tau, _, _ in sch.part]

        u_s = [None] * n_eq  # (r, q) per equation, at the latest residual's iterate
        def res_of(x):
            u_all = np.vstack([left_value[None, :], x.reshape(n_eq, r)])  # (n_nodes, r)
            out = []
            for i, (_, w_i, basis_i) in enumerate(sch.part):
                u_s[i] = (basis_i @ u_all).T
                # equation positions line up with nodes[1:]
                out.append(a_eq[i] @ u_all[i + 1] + hist[i]
                           + kappa(t_eq[i], s_part[i], u_s[i]) @ w_i - f_eq[i])
            return np.concatenate(out)

        def jac_of(x):
            rows = []
            for i, (_, w_i, basis_i) in enumerate(sch.part):
                # block j = Σ_g w_g ℓ_j(τ_g) ∂κ/∂y(s_g), one per node
                blocks = np.einsum("gj,abg->jab", w_i[:, None] * basis_i,
                                   kappa_jac(t_eq[i], s_part[i], u_s[i]))
                blocks[i + 1] += a_eq[i]
                rows.append(np.hstack(blocks[1:]))
            return np.vstack(rows)

        # initial guess: the previous interval's right-end value, carried
        # forward unchanged (first interval: the consistent start value)
        u_free, iters, res, jac = newton(res_of, jac_of, np.tile(left_value, n_eq),
                                         cfg.newton_tol, NEWTON_MAX_ITER, affine=linear)
        diag["newton_iters"].append(iters)
        with np.errstate(over="ignore"):  # a diverged iterate's norm is inf
            diag["residual_norms"].append(float(np.linalg.norm(res)))
        diag["condition_numbers"].append(np.inf if u_free is None else float(np.linalg.cond(jac)))
        if u_free is None:
            diag["failure"] = {"step": n, "t": t_n,
                               "reason": "Newton iteration did not converge"}
            break
        values[n, 0] = left_value
        values[n, 1:] = u_free.reshape(n_eq, r)
        history.store(n, values[n])
        left_value = values[n, -1] if nodes[-1] == 1.0 else \
            _lagrange_weights(nodes, 1.0) @ values[n]
        completed = n + 1

    sol = PiecewiseSolution(t_start=a, h=cfg.h, c=c.copy(), tau_nodes=nodes.copy(),
                            nodal_values=values[:completed].copy())
    return sol, diag


def residual(p, sol: PiecewiseSolution, probe_grid) -> np.ndarray:
    """Defining-equation residual norms at probe points, using the solver's
    batched Gauss quadrature."""
    kappa, _, _ = _kernel_of(p)
    sch = _build_scheme(sol.c, sol.tau_nodes, sol.h)
    lo, hi = sol.t_start, sol.t_end
    probe_grid = probe_points(probe_grid, lo, hi)
    history = _GaussHistory.empty(sch, lo, sol.n_intervals, sol.r)
    for n in range(sol.n_intervals):
        history.store(n, sol.nodal_values[n])
    out = np.empty(probe_grid.size)
    for idx, t in enumerate(probe_grid):
        t = float(min(max(t, lo), hi))
        n = sol.interval_of(t)
        t_n = lo + n * sol.h
        acc = history.integral(kappa, t, n)
        # partial piece of the current interval, [t_n, t]
        tau_t = (t - t_n) / sol.h
        if tau_t > 0.0:
            tau, w, basis = sch.partial_rule(tau_t)
            acc = acc + kappa(t, t_n + tau * sol.h, (basis @ sol.nodal_values[n]).T) @ w
        u_t = sol(t)
        res = p.A(t) @ u_t + acc - np.atleast_1d(np.asarray(p.f(t), dtype=float))
        out[idx] = float(np.linalg.norm(res))
    return out
