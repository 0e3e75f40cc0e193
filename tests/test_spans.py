"""One span rule and one grid rule for every function of time (linalg.check_span, check_grid)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daekit import (
    CollocationConfig,
    DaeSolveConfig,
    DomainError,
    ExtrapolationError,
    InvalidInputError,
    MatrixFunction,
    PiecewiseSolution,
    SolveResult,
    TrajectorySample,
    classify,
    example,
    matfn_derivative,
    rank_degree_index,
    residual,
    solve_iae,
)
from daekit.problems import probe_points


def test_derivative_accepts_what_its_function_accepts():
    f = MatrixFunction(lambda t: np.array([[t * t]]), domain=(0.0, 1.0))
    t = 1.0 + 5e-10
    f(t)
    np.testing.assert_allclose(matfn_derivative(f, t), [[2.0]], rtol=1e-6)


def test_residual_accepts_the_probes_its_solution_accepts():
    p = example("ex34")
    sol, _ = solve_iae(p, CollocationConfig())
    t = 2.0 + 1.5e-9
    sol(t)
    np.testing.assert_array_equal(residual(p, sol, [t]), residual(p, sol, [2.0]))


def test_coefficient_and_trajectory_share_one_span():
    p = example("ex34")
    traj = TrajectorySample.from_function(p.exact, np.linspace(1.0, 2.0, 11))
    p.A(1.0 - 5e-10)
    traj(1.0 - 5e-10)
    with pytest.raises(DomainError):
        p.A(1.0 - 1.5e-9)
    with pytest.raises(ExtrapolationError):
        traj(1.0 - 1.5e-9)


def _span_sites(lo: float, width: float):
    """Every function of time, each on the span [lo, lo + width] as float arithmetic gives it."""
    sol = PiecewiseSolution(t_start=lo, h=width, c=[0.0], nodal_values=np.zeros((1, 2, 1)))
    hi = sol.t_end
    f = MatrixFunction(lambda t: np.array([[t]]), domain=(lo, hi))
    bdf = SolveResult(times=np.array([lo, hi]), values=np.zeros((2, 1)), newton_iters=[],
                      halvings=[], failure=None, config=DaeSolveConfig(h=width))
    sites = {
        "MatrixFunction": f,
        "matfn_derivative": lambda t: matfn_derivative(f, t),
        "TrajectorySample": TrajectorySample(times=[lo, hi], values=np.zeros((2, 1))),
        "PiecewiseSolution": sol,
        "SolveResult": bdf,
        "probe_points": lambda t: probe_points([t], lo, hi),
    }
    return hi, sites


@given(lo=st.one_of(st.floats(-2.0, 2.0), st.floats(-1e9, 1e9)),
       rel_width=st.floats(1e-2, 10.0), at_hi=st.booleans(),
       offset=st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
@settings(max_examples=60, deadline=None)
def test_every_function_of_time_applies_one_span_rule(lo, rel_width, at_hi, offset):
    hi, sites = _span_sites(lo, rel_width * max(1.0, abs(lo)))
    end = hi if at_hi else lo
    t = end + offset * 1e-9 * max(1.0, abs(end))
    # half the slack either way is inside; twice it is inside only inward
    inside = abs(offset) == 0.5 or (offset < 0) == at_hi
    accepted, errors = {}, {}
    for name, site in sites.items():
        try:
            site(t)
            accepted[name] = True
        except (DomainError, InvalidInputError) as exc:
            accepted[name] = False
            errors[name] = type(exc)
    assert accepted == dict.fromkeys(sites, inside)
    # one trajectory rule, one exception
    trajectories = ("TrajectorySample", "PiecewiseSolution", "SolveResult")
    assert {errors.get(name) for name in trajectories} == {None if inside else ExtrapolationError}


@pytest.mark.parametrize("call", [
    lambda: TrajectorySample(times=[0.0, np.nan, 1.0], values=np.zeros((3, 2))),
    lambda: rank_degree_index(MatrixFunction.constant(np.eye(2)), lambda t, s: np.zeros((2, 2)),
                              grid=[0.0, np.nan, 1.0]),
    lambda: classify(example("ex34"), grid=[1.0, np.nan, 2.0]),
    lambda: classify(example("ex34"), grid=[1.0, np.inf]),
], ids=["trajectory-nan", "rank_degree_index-nan", "classify-nan", "classify-inf"])
def test_non_finite_grid_is_refused_up_front(call):
    with pytest.raises(InvalidInputError, match="(grid|trajectory times) must be .*finite"):
        call()


def test_classify_refuses_a_grid_outside_the_problem_or_the_trajectory():
    p = example("ex34")
    with pytest.raises(InvalidInputError, match=r"outside the span \[1.0, 2.0\] of problem 'ex34'"):
        classify(p, grid=[0.5, 1.5])
    traj = TrajectorySample.from_function(p.exact, np.linspace(1.0, 1.5, 11))
    with pytest.raises(InvalidInputError, match=r"t=1.8 outside the span \[1.0, 1.5\] of the traj"):
        classify(p, traj=traj, grid=[1.2, 1.8])
