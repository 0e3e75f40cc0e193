"""Built-in problem registry.

Five semi-nonlinear problems exercising the index taxonomy:

* ``ex31`` -- DAE whose linearized index is 2 for every value of the
  unknowns (well structure); the relevant determinant is e^{y1} > 0.
* ``ex32`` -- DAE whose linearized index is 1 where y1 != 0 and 2 where
  y1 = 0; solution (cos t, t) crosses y1 = 0 at pi/2, so the problem is
  in dependent form on intervals containing pi/2.
* ``ex33`` -- same left-hand side as ex32 with solution (e^t, t); y1 > 0
  everywhere, independent form of index 1.
* ``ex34`` -- IAE with index 2 wherever y1 != 0; solution (e^t, t) keeps
  y1 > 0 on [1, 2], independent form.
* ``ex35`` -- same operator as ex34 with solution (cos t, t); dependent
  form, index changes at pi/2.

All five share the leading matrix diag(1, 0).  Right-hand sides come from
substituting the stated solutions into the equations (the integrals for
ex34/ex35 evaluate in closed form); ``verify_exact`` in the test suite
guards every registered formula.  Every F_y and κ_y takes the batch that
:func:`~daekit.problems.batch_checked` checks: y of shape (r, M) gives the
(r, r, M) stack of Jacobians, so a constant entry is written as an array
shaped like y[0].  F_y takes the per-point form too, as ``solve_dae``
calls it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .linalg import MatrixFunction
from .problems import Problem, SemiNonlinearDAE, SemiNonlinearIAE

_A_SING = np.array([[1.0, 0.0], [0.0, 0.0]])

_REGISTRY: dict[str, Callable[[], Problem]] = {}


def _register(name):
    def deco(factory):
        _REGISTRY[name] = factory
        return factory
    return deco


def available() -> list[str]:
    """Names of the built-in problems, sorted."""
    return sorted(_REGISTRY)


def example(name: str) -> Problem:
    """Build a fresh instance of a built-in problem."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown problem {name!r}; available: {', '.join(available())}") from None
    return factory()


def _shared_F(t, y):
    # used by ex32 and ex33
    return np.array([-y[0] ** 2 - np.exp(y[1]), -y[0] * y[1]])


def _shared_F_y(t, y):
    return np.array([[-2.0 * y[0], -np.exp(y[1])],
                     [-y[1], -y[0]]])


def _shared_kappa(t, s, y):
    # used by ex34 and ex35, which declare it free of t
    return np.array([(y[0] ** 2 + 2.0) * y[1] + np.exp(y[1]), y[0] ** 2])


def _shared_kappa_y(t, s, y):
    return np.array([[2.0 * y[0] * y[1], (y[0] ** 2 + 2.0) + np.exp(y[1])],
                     [2.0 * y[0], np.zeros_like(y[0])]])


@_register("ex31")
def _ex31() -> SemiNonlinearDAE:
    # y1' - y1^2 - e^{y1} - y2 = 0,  e^{y1} = -sin t.  The algebraic row has
    # no real solution for t in (0, 1], so no exact solution is registered;
    # the problem exists for index analysis, where only the Jacobian matters.
    domain = (0.0, 1.0)
    return SemiNonlinearDAE(
        A=MatrixFunction.constant(_A_SING, domain=domain, name="A"),
        F=lambda t, y: np.array([-y[0] ** 2 - np.exp(y[0]) - y[1], np.exp(y[0])]),
        f=lambda t: np.array([0.0, -np.sin(t)]),
        F_y=lambda t, y: np.array([[-2.0 * y[0] - np.exp(y[0]), -np.ones_like(y[0])],
                                   [np.exp(y[0]), np.zeros_like(y[0])]]),
        r=2,
        T=domain[1],
        t_start=domain[0],
        name="ex31",
    )


@_register("ex32")
def _ex32() -> SemiNonlinearDAE:
    # Solution (cos t, t).  Substituting it fixes f; the first component is
    # -cos^2 t - e^t - sin t.
    domain = (0.0, 2.0)
    return SemiNonlinearDAE(
        A=MatrixFunction.constant(_A_SING, domain=domain, name="A"),
        F=_shared_F,
        f=lambda t: np.array([-np.cos(t) ** 2 - np.exp(t) - np.sin(t), -t * np.cos(t)]),
        F_y=_shared_F_y,
        r=2,
        T=domain[1],
        t_start=domain[0],
        y0=np.array([1.0, 0.0]),
        exact=lambda t: np.array([np.cos(t), t]),
        exact_derivative=lambda t: np.array([-np.sin(t), 1.0]),
        critical_conditions=(lambda t, y: y[0],),
        name="ex32",
    )


@_register("ex33")
def _ex33() -> SemiNonlinearDAE:
    domain = (0.0, 2.0)
    return SemiNonlinearDAE(
        A=MatrixFunction.constant(_A_SING, domain=domain, name="A"),
        F=_shared_F,
        f=lambda t: np.array([-np.exp(2.0 * t), -t * np.exp(t)]),
        F_y=_shared_F_y,
        r=2,
        T=domain[1],
        t_start=domain[0],
        y0=np.array([1.0, 0.0]),
        exact=lambda t: np.array([np.exp(t), t]),
        exact_derivative=lambda t: np.array([np.exp(t), 1.0]),
        name="ex33",
    )


def _ex34_f(t):
    # integral of ((e^{2s}+2)s + e^s, e^{2s}) from 1 to t, plus A y
    e = np.e
    f1 = (2.0 * np.exp(t)
          + (2.0 * t - 1.0) * np.exp(2.0 * t) / 4.0
          + t ** 2
          - (e ** 2 / 4.0 + e + 1.0))
    f2 = (np.exp(2.0 * t) - e ** 2) / 2.0
    return np.array([f1, f2])


@_register("ex34")
def _ex34() -> SemiNonlinearIAE:
    domain = (1.0, 2.0)
    return SemiNonlinearIAE(
        A=MatrixFunction.constant(_A_SING, domain=domain, name="A"),
        kappa=_shared_kappa,
        f=_ex34_f,
        kappa_y=_shared_kappa_y,
        r=2,
        T=domain[1],
        t_start=domain[0],
        exact=lambda t: np.array([np.exp(t), t]),
        critical_conditions=(lambda t, y: y[0],),
        name="ex34",
        kernel_free_of_t=True,
    )


def _ex35_f(t):
    f1 = (np.cos(t) - np.sin(2.0) / 4.0 - np.e + np.exp(t)
          + t * np.sin(2.0 * t) / 4.0
          - np.sin(t) ** 2 / 4.0 + np.sin(1.0) ** 2 / 4.0
          + 5.0 * t ** 2 / 4.0 - 5.0 / 4.0)
    f2 = t / 2.0 + np.sin(2.0 * t) / 4.0 - np.sin(2.0) / 4.0 - 0.5
    return np.array([f1, f2])


@_register("ex35")
def _ex35() -> SemiNonlinearIAE:
    domain = (1.0, 2.0)
    return SemiNonlinearIAE(
        A=MatrixFunction.constant(_A_SING, domain=domain, name="A"),
        kappa=_shared_kappa,
        f=_ex35_f,
        kappa_y=_shared_kappa_y,
        r=2,
        T=domain[1],
        t_start=domain[0],
        exact=lambda t: np.array([np.cos(t), t]),
        critical_conditions=(lambda t, y: y[0],),
        name="ex35",
        kernel_free_of_t=True,
    )
