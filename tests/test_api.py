"""The public signatures, as a table: adding or removing a setting is an edit here."""

import inspect

import numpy as np
import pytest

import daekit
from daekit import classify, example, fd_derivative, frozen_index_report, rank_degree_index
from helpers import exact_traj

# the parameters of every public callable and dataclass in daekit.__all__
# (the exceptions aside), in order, and of their public methods as
# "Class.method"; "=" marks a parameter with a default
SIGNATURES = {
    "MatrixFunction": "eval, domain=, derivative=, name=, vectorized=",
    "MatrixFunction.constant": "m, domain=, name=",
    "SemiInverseResult": "a_minus, rank, projector",
    "fd_derivative": "fn, t, lo=, hi=, args=",
    "matfn_derivative": "f, t",
    "numerical_rank": "m",
    "semi_inverse": "m",
    "LinearDAE": "A, B, f, y0, r, T, t_start=, name=, exact=",
    "LinearIAE": "A, k, f, r, T, t_start=, name=, exact=, kernel_free_of_t=",
    "SemiNonlinearDAE": "A, F, f, r, T, t_start=, y0=, F_y=, exact=, exact_derivative=, "
                        "critical_conditions=, name=",
    "SemiNonlinearDAE.consistency_defect": "t, y",
    "SemiNonlinearDAE.jacobian": "t, y",
    "SemiNonlinearIAE": "A, kappa, f, r, T, t_start=, kappa_y=, exact=, critical_conditions=, "
                        "name=, kernel_free_of_t=",
    "SemiNonlinearIAE.kappa_jacobian": "t, s, y",
    "Trajectory": "",
    "TrajectorySample": "times, values",
    "TrajectorySample.from_function": "fn, times",
    "fd_jacobian": "g, *args",
    "verify_exact": "p, grid",
    "available": "",
    "example": "name",
    "ChainLevel": "level, A, k, rank, det",
    "ChainStatus": "kind, level=, t=",
    "ConsistencyReport": "t0, defects, passes, condition_number",
    "ConsistencyReport.to_dict": "",
    "IndexReport": "nu, levels, grid, status",
    "IndexReport.to_dict": "",
    "chain_step": "A_i, k_i",
    "consistency_check": "levels, F_list",
    "dae_to_iae": "p",
    "rank_degree_index": "A, k, grid=",
    "rhs_chain": "f, levels",
    "IndexProfile": "times, nu_at, classification, critical_points, neighborhood_eps, "
                    "nu=, seed=, undefined_fraction=, evidence=",
    "IndexProfile.to_dict": "",
    "classify": "p, traj=, eps=, grid=, seed=",
    "detect_critical_points": "traj, conditions, interval=",
    "frozen_index_report": "p, eta, t, traj",
    "linearize_iae": "p, traj",
    "monitor": "traj, conditions",
    "pointwise_index": "p, traj, t, ball=",
    "DaeSolveConfig": "h, order=",
    "DaeSolveConfig.validate": "",
    "MonitorWarning": "t, condition, value",
    "MonitorWarning.to_dict": "",
    "SolveResult": "times, values, newton_iters, halvings, failure, config, initial_defect=",
    "SolveResult.to_dict": "",
    "dae_residual": "p, sol, probe_grid",
    "solve_dae": "p, cfg, interval=",
    "CollocationConfig": "c=, h=, newton_tol=",
    "CollocationConfig.validate": "",
    "PiecewiseSolution": "t_start, h, c, nodal_values",
    "PiecewiseSolution.collocation_times": "",
    "PiecewiseSolution.interval_of": "t",
    "residual": "p, sol, probe_grid",
    "solve_iae": "p, cfg, interval=",
    "compile_expression": "text, variables=",
    "load_problem": "path",
    "solution_table": "times, values, exact=",
    "write_json": "path, obj",
    "write_solution_csv": "path, times, values, exact=",
}


def _parameters(fn) -> str:
    return ", ".join(("*" if p.kind is p.VAR_POSITIONAL else "") + p.name
                     + ("=" if p.default is not p.empty else "")
                     for p in inspect.signature(fn).parameters.values() if p.name != "self")


def test_the_public_signatures_are_the_table():
    got = {}
    for name in daekit.__all__:
        obj = getattr(daekit, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        got[name] = _parameters(obj)
        if isinstance(obj, type):
            got.update((f"{name}.{attr}", _parameters(fn))
                       for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                       if not attr.startswith("_"))
    assert got == SIGNATURES


@pytest.mark.parametrize("call", [
    lambda: rank_degree_index(daekit.MatrixFunction.constant(np.eye(1)),
                              lambda t, s: np.eye(1), nu_max=4),
    lambda: frozen_index_report(example("ex34"), [np.e, 1.0], 1.0,
                                exact_traj(example("ex34")), nu_max=4),
    lambda: classify(example("ex34"), n_perturb=8),
    lambda: fd_derivative(np.sin, 0.5, step=1e-4),
    lambda: example("ex32").consistency_defect(),
], ids=["rank_degree_index-nu_max", "frozen_index_report-nu_max", "classify-n_perturb",
        "fd_derivative-step", "consistency_defect-no-arguments"])
def test_settings_that_are_constants_are_not_parameters(call):
    # chain.NU_MAX, structure.N_PERTURB and linalg.FD_STEP; a start defect
    # is asked for at a given (t, y)
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: daekit.solve_dae(example("ex34"), daekit.DaeSolveConfig(h=0.1)),
     "solve_dae expects a SemiNonlinearDAE"),
    (lambda: daekit.solve_iae(example("ex32"), daekit.CollocationConfig(h=0.1)),
     "expected an IAE problem"),
    (lambda: classify(daekit.LinearDAE(
        A=daekit.MatrixFunction.constant(np.eye(1)), B=daekit.MatrixFunction.constant(np.eye(1)),
        f=lambda t: np.zeros(1), y0=np.zeros(1), r=1, T=1.0)),
     "classification applies to semi-nonlinear problems"),
], ids=["solve_dae-ex34", "solve_iae-ex32", "classify-LinearDAE"])
def test_a_wrong_kind_of_problem_is_refused_by_the_library(call, message):
    # the command line refuses these before the library is called
    with pytest.raises(daekit.InvalidInputError, match=message):
        call()
