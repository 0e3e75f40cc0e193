"""Shared test fixtures.

The core of this module is a tiny exact-arithmetic (Fraction) matrix kit:
rank, Moore-Penrose pseudoinverse via rank factorization, and the index
chain recurrence for constant matrix pairs.  It shares no code with the
package under test, so it can serve as an independent oracle for the
floating-point chain.

Also here: the integrated form of the ex33 problem (its differential row
integrated from 0, its algebraic row accumulated), which gives a
semi-nonlinear integral equation with a known exact solution and a
closed-form right-hand side.
"""

from fractions import Fraction

import numpy as np

from daekit import MatrixFunction, SemiNonlinearIAE, TrajectorySample, example


# --- exact rational matrix arithmetic -----------------------------------

def fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def fmat_eye(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def fmat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fmat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fmat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def fmat_t(a):
    return [list(col) for col in zip(*a)]


def fmat_rref(a):
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = [row[:] for row in a]
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(row, n_rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(n_rows):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    return m, pivots


def fmat_rank(a):
    return len(fmat_rref(a)[1])


def fmat_inv(a):
    n = len(a)
    aug = [row[:] + fmat_eye(n)[i] for i, row in enumerate(a)]
    rref, pivots = fmat_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rref]


def fmat_pinv(a):
    """Exact Moore-Penrose pseudoinverse through the rank factorization
    a = B C: pinv = C^T (C C^T)^{-1} (B^T B)^{-1} B^T."""
    rref, pivots = fmat_rref(a)
    k = len(pivots)
    n_rows, n_cols = len(a), len(a[0])
    if k == 0:
        return [[Fraction(0)] * n_rows for _ in range(n_cols)]
    b = [[a[i][j] for j in pivots] for i in range(n_rows)]
    c = rref[:k]
    bt, ct = fmat_t(b), fmat_t(c)
    left = fmat_inv(fmat_mul(bt, b))
    right = fmat_inv(fmat_mul(c, ct))
    return fmat_mul(fmat_mul(ct, right), fmat_mul(left, bt))


def fnp(a):
    return np.array([[float(x) for x in row] for row in a])


def frac_chain_constant(a, k, max_level=4, semi_inverse_of=None):
    """Index chain for a constant pair in exact arithmetic.

    Constant data makes every derivative term vanish, so the recurrence
    collapses to A_{i+1} = A_i + (E - A_i A_i^-) k with the kernel fixed.
    ``semi_inverse_of`` may replace the pseudoinverse with any map taking
    A_i to a semi-inverse of it (used for the semi-inverse independence
    check).  Returns ([A_0, A_1, ...], nu); nu is None if the cap is hit.
    """
    n = len(a)
    eye = fmat_eye(n)
    pick = fmat_pinv if semi_inverse_of is None else semi_inverse_of
    levels = [a]
    for level in range(max_level + 1):
        a_i = levels[level]
        if fmat_rank(a_i) == n:
            return levels, level
        if level == max_level:
            break
        a_minus = pick(a_i)
        v = fmat_sub(eye, fmat_mul(a_i, a_minus))
        levels.append(fmat_add(a_i, fmat_mul(v, k)))
    return levels, None


# the constant pair used throughout the chain tests
PAIR_A = fmat([[1, 0], [0, 0]])
PAIR_K = fmat([[0, 1], [1, 0]])


# --- shared problem fixtures ---------------------------------------------

def exact_traj(p, a=None, b=None, n=201):
    lo, hi = p.interval
    a = lo if a is None else a
    b = hi if b is None else b
    return TrajectorySample.from_function(p.exact, np.linspace(a, b, n))


def float_bits(obj):
    """``obj`` (e.g. a ``to_dict()``) with every float as its hex string, for bitwise ==."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: float_bits(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [float_bits(val) for val in obj]
    return obj


def ex33_as_integral_equation():
    """ex33 recast as an integral equation on [0, 2].

    Integrating the differential row from 0 and leaving the algebraic row
    under the integral sign gives A y(t) + int_0^t F(s, y(s)) ds = g(t)
    with the same A and the closed-form right side below; the solution is
    still (e^t, t).
    """
    dae = example("ex33")

    def g(t):
        return np.array([1.5 - np.exp(2.0 * t) / 2.0,
                         -t * np.exp(t) + np.exp(t) - 1.0])

    return SemiNonlinearIAE(
        A=MatrixFunction.constant(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                  domain=(0.0, 2.0), name="A"),
        kappa=lambda t, s, y: dae.F(s, y),
        kappa_y=lambda t, s, y: dae.F_y(s, y),
        f=g,
        r=2,
        T=2.0,
        t_start=0.0,
        exact=dae.exact,
        name="ex33-integral",
    )


def random_fixed_rank(rng, r, rank, scale_span=(1e-2, 1e2)):
    """Random r x r matrix of exact rank ``rank``: a product of full-rank
    factors U[:, :rank] diag(s) V[:, :rank]^T with controlled scales."""
    if rank == 0:
        return np.zeros((r, r))
    u, _ = np.linalg.qr(rng.standard_normal((r, r)))
    v, _ = np.linalg.qr(rng.standard_normal((r, r)))
    lo, hi = np.log10(scale_span[0]), np.log10(scale_span[1])
    s = 10.0 ** rng.uniform(lo, hi, size=rank)
    return (u[:, :rank] * s) @ v[:, :rank].T
