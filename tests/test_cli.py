"""Problem files and the command-line front-end."""

import argparse
import json

import numpy as np
import pytest

from daekit import (
    CollocationConfig,
    DaeSolveConfig,
    InconsistentChainError,
    InvalidInputError,
    LinearDAE,
    LinearIAE,
    ProblemFileError,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    dae_to_iae,
    example,
    load_problem,
    solution_table,
    solve_dae,
    solve_iae,
    verify_exact,
    write_solution_csv,
)
from daekit import cli
from daekit.cli import main
from daekit.export import dumps

CONSTANT_PAIR = {
    "kind": "linear-iae",
    "name": "constant-pair",
    "t_start": 0.0,
    "T": 1.0,
    "A": [[1, 0], [0, 0]],
    "k": [["0", "1"], ["1", "0"]],
    "f": [0, 0],
}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# --- problem files ----------------------------------------------------------

def test_load_linear_iae(tmp_path):
    p = load_problem(write_problem(tmp_path, CONSTANT_PAIR))
    assert isinstance(p, LinearIAE)
    assert p.r == 2
    assert p.name == "constant-pair"
    np.testing.assert_array_equal(p.A(0.5), [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(p.k(0.3, 0.1), [[0.0, 1.0], [1.0, 0.0]])


def test_load_linear_dae(tmp_path):
    data = {"kind": "linear-dae", "t_start": 0.0, "T": 2.0,
            "A": [["1", "0"], ["0", "0"]],
            "B": [["cos(t)", "0"], ["t", "1"]],
            "f": ["sin(t)", "0"], "y0": [1, 0]}
    p = load_problem(write_problem(tmp_path, data))
    assert isinstance(p, LinearDAE)
    np.testing.assert_allclose(p.B(0.5), [[np.cos(0.5), 0.0], [0.5, 1.0]])
    np.testing.assert_array_equal(p.y0, [1.0, 0.0])
    assert p.name == "problem"


# y = (cos t, sin t) solves both: y + ∫_0^t k y ds = (1, 0) and y' + B y = 0
ROTATION_FILES = {
    "linear-iae": {"kind": "linear-iae", "t_start": 0.0, "T": 1.0,
                   "A": [[1, 0], [0, 1]], "k": [["0", "1"], ["-1", "0"]],
                   "f": ["1", "0"], "exact": ["cos(t)", "sin(t)"]},
    "linear-dae": {"kind": "linear-dae", "t_start": 0.0, "T": 1.0,
                   "A": [[1, 0], [0, 1]], "B": [["0", "1"], ["-1", "0"]],
                   "f": [0, 0], "y0": [1, 0], "exact": ["cos(t)", "sin(t)"]},
}


@pytest.mark.parametrize("kind", ROTATION_FILES)
def test_linear_problem_files_keep_their_exact_solution(tmp_path, kind):
    p = load_problem(write_problem(tmp_path, ROTATION_FILES[kind]))
    np.testing.assert_allclose(p.exact(0.5), [np.cos(0.5), np.sin(0.5)])
    assert verify_exact(p, np.linspace(0.0, 1.0, 11)) <= 1e-8
    if kind == "linear-dae":
        assert dae_to_iae(p).exact is p.exact


def test_solve_iae_on_a_linear_problem_file_writes_the_exact_and_error_columns(tmp_path):
    path = write_problem(tmp_path, ROTATION_FILES["linear-iae"], name="rotation.json")
    assert main(["solve-iae", "--problem", str(path), "--h", "0.05",
                 "--out", str(tmp_path / "rotation")]) == 0
    lines = (tmp_path / "rotation.csv").read_text().splitlines()
    assert lines[0] == "t,y1,y2,exact1,exact2,error"
    assert max(float(line.split(",")[-1]) for line in lines[1:]) <= 1e-6


def test_load_semi_nonlinear_dae(tmp_path):
    data = {"kind": "dae", "t_start": 0.0, "T": 1.0,
            "A": [[1, 0], [0, 0]],
            "F": ["y1 - y2", "y2 - sin(t)"],
            "f": [0, 0], "y0": [1, 0],
            "exact": ["exp(t)", "t"],
            "critical_conditions": ["y1"]}
    p = load_problem(write_problem(tmp_path, data))
    assert isinstance(p, SemiNonlinearDAE)
    np.testing.assert_allclose(p.F(0.5, np.array([2.0, 3.0])),
                               [-1.0, 3.0 - np.sin(0.5)])
    np.testing.assert_allclose(p.exact(0.3), [np.exp(0.3), 0.3])
    assert len(p.critical_conditions) == 1
    assert p.critical_conditions[0](0.0, np.array([7.0, 1.0])) == 7.0


def test_load_semi_nonlinear_iae(tmp_path):
    data = {"kind": "iae", "t_start": 1.0, "T": 2.0,
            "A": [[1, 0], [0, 0]],
            "kappa": ["s*y2 + y1", "y1^2"],
            "f": ["t", "0"]}
    p = load_problem(write_problem(tmp_path, data))
    assert isinstance(p, SemiNonlinearIAE)
    np.testing.assert_allclose(p.kappa(1.5, 1.2, np.array([2.0, 3.0])),
                               [1.2 * 3.0 + 2.0, 4.0])


@pytest.mark.parametrize("mutate, what", [
    (lambda d: d.pop("kind"), "missing kind"),
    (lambda d: d.pop("A"), "missing A"),
    (lambda d: d.pop("f"), "missing f"),
    (lambda d: d.pop("k"), "missing kernel"),
    (lambda d: d.update(kind="pde"), "unknown kind"),
    (lambda d: d.update(A=[[1, 0]]), "non-square A"),
    (lambda d: d.update(f=[0]), "wrong-length f"),
    (lambda d: d.update(k=[[0]]), "kernel dimension mismatch"),
    (lambda d: d.update(T=-1.0), "empty time interval"),
    (lambda d: d.update(f=["t + "]), "bad expression"),
    (lambda d: d.update(f=["y1", "0"]), "undeclared variable"),
])
def test_problem_file_errors(tmp_path, mutate, what):
    data = dict(CONSTANT_PAIR)
    mutate(data)
    with pytest.raises(ProblemFileError):
        load_problem(write_problem(tmp_path, data))


RELAX = {"kind": "dae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
         "F": ["y1 - y2", "y2 - sin(t)"], "f": [0, 0], "y0": [1, 0]}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("t_start", "zero"), ("T", None), ("T", True), ("y0", ["a", 0]), ("y0", [True, 0]),
    ("y0", 1), ("critical_conditions", 5),
    # Python's json reads the NaN and Infinity literals as floats
    ("t_start", -INF), ("T", INF), ("A", [[1, 0], [0, NAN]]),
    ("F", ["y1 - y2", INF]), ("f", [NAN, 0]), ("critical_conditions", [NAN]),
    # an integer past the float range, which float() refuses with OverflowError
    ("T", 10**400), ("f", [0, -10**400]),
], ids=["t_start-string", "T-null", "T-boolean", "y0-string-entry", "y0-boolean-entry",
        "y0-not-a-list", "critical_conditions-not-a-list", "t_start-minus-infinity",
        "T-infinity", "A-nan-entry", "F-infinity-entry", "f-nan-entry",
        "critical_conditions-nan-entry", "T-huge-integer", "f-huge-integer-entry"])
def test_a_malformed_field_is_a_problem_file_error(tmp_path, capsys, field, value):
    path = write_problem(tmp_path, {**RELAX, field: value})
    with pytest.raises(ProblemFileError, match=field):
        load_problem(path)
    assert main(["solve-dae", "--problem", str(path), "--h", "0.5"]) == 1
    assert capsys.readouterr().err.startswith("problem file error: ")


def test_a_non_finite_y0_is_refused_with_exit_1(tmp_path, capsys):
    # Python's json reads the NaN literal; the loader refuses it
    path = write_problem(tmp_path, {**RELAX, "y0": [NAN, 0]})
    assert main(["solve-dae", "--problem", str(path), "--h", "0.25",
                 "--out", str(tmp_path / "nan")]) == 1
    assert "y0 must be a finite number, got nan" in capsys.readouterr().err
    assert not list(tmp_path.glob("nan*"))


def test_a_non_finite_f_at_the_start_is_refused_with_exit_1(tmp_path, capsys):
    # 1e400 is an expression that evaluates to inf, not a JSON number
    path = write_problem(tmp_path, {**RELAX, "f": ["1e400", 0]})
    assert main(["solve-dae", "--problem", str(path), "--h", "0.25",
                 "--out", str(tmp_path / "inf")]) == 1
    assert "non-finite f at t=0.0" in capsys.readouterr().err
    assert not list(tmp_path.glob("inf*"))


def test_a_non_finite_F_at_the_start_is_refused_with_exit_1(tmp_path, capsys):
    # its consistency defect would be NaN: "solved ... (stopped early)", exit 0
    path = write_problem(tmp_path, {**RELAX, "F": ["y1 - y2", "y2 - sin(t) + 1e400"]})
    assert main(["solve-dae", "--problem", str(path), "--h", "0.25",
                 "--out", str(tmp_path / "inf")]) == 1
    assert "non-finite F at t=0.0" in capsys.readouterr().err
    assert not list(tmp_path.glob("inf*"))


@pytest.mark.parametrize("command, data, message", [
    ("solve-dae", {**RELAX, "F": ["y1 - y2", "y2 - 1/t"]}, "non-finite F at t=0.0"),
    ("solve-dae", {**RELAX, "f": ["1/t", 0]}, "non-finite f at t=0.0"),
    ("solve-dae", {**RELAX, "t_start": 0.5, "f": ["(0-t)^0.5", 0]}, "non-finite f at t=0.5"),
    ("solve-iae", {"kind": "iae", "t_start": 0.0, "T": 1.0, "A": [[0]], "kappa": ["y1"],
                   "f": ["9^9^6"]}, "non-finite f at t=0.0"),
], ids=["F-division-by-zero", "f-division-by-zero", "f-negative-base-to-a-fraction",
        "f-overflowing-power"])
def test_a_float_evaluation_that_leaves_the_reals_is_refused_with_exit_1(
        tmp_path, capsys, command, data, message):
    # a float computes with numpy's arithmetic, as an array does: inf or nan
    # with a RuntimeWarning, which the finiteness check refuses; no traceback
    path = write_problem(tmp_path, data)
    with pytest.warns(RuntimeWarning):
        assert main([command, "--problem", str(path), "--h", "0.1",
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not list(tmp_path.glob("run*"))


def test_problem_file_must_exist_and_be_json(tmp_path):
    with pytest.raises(ProblemFileError):
        load_problem(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFileError):
        load_problem(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ProblemFileError):
        load_problem(arr)
    digits = tmp_path / "digits.json"
    digits.write_text('{"T": 1' + "0" * 5000 + "}")
    with pytest.raises(ProblemFileError, match="not valid JSON"):
        load_problem(digits)


def test_y0_shape_is_checked(tmp_path):
    data = {"kind": "linear-dae", "t_start": 0.0, "T": 1.0,
            "A": [[1, 0], [0, 0]], "B": [[0, 0], [0, 1]],
            "f": [0, 0], "y0": [1, 0, 0]}
    with pytest.raises(ProblemFileError):
        load_problem(write_problem(tmp_path, data))


# --- CLI --------------------------------------------------------------------

def test_list_names_every_example(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ex31", "ex32", "ex33", "ex34", "ex35"):
        assert name in out


def test_analyze_problem_file(tmp_path, capsys):
    path = write_problem(tmp_path, CONSTANT_PAIR)
    assert main(["analyze", "--problem", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rank-degree index: 2" in out
    assert "level 0: rank 1" in out
    assert "level 2: rank 2" in out
    assert "consistency at t0=0: PASS" in out


@pytest.mark.parametrize("name, interval, nu", [
    ("ex34", None, 2),
    # sub-intervals: the trajectory covers [a, b] only
    ("ex34", ("1.2", "1.8"), 2),
    ("ex32", ("1", "2"), 1),
], ids=["ex34", "ex34-1.2-1.8", "ex32-1-2"])
def test_analyze_example_with_known_solution(name, interval, nu, capsys):
    argv = ["analyze", "--problem", name]
    if interval:
        argv += ["--interval", *interval]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"rank-degree index: {nu}" in out
    assert "consistency: not checked (the linearization's right side is zero)" in out


@pytest.mark.parametrize("name", ["ex32", "ex34", "ex35"])
def test_analyze_does_not_check_the_consistency_of_a_linearization(name, capsys):
    # the linearization's right side is zero, so every defect would be 0
    # whatever the problem: a PASS that no problem can fail
    assert main(["analyze", "--problem", name]) == 0
    out = capsys.readouterr().out
    assert "PASS" not in out and "consistency at t0" not in out
    assert main(["analyze", "--problem", name, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["nu"] > 0 and "consistency" not in payload


def test_analyze_json_format(tmp_path, capsys):
    path = write_problem(tmp_path, CONSTANT_PAIR)
    assert main(["analyze", "--problem", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["nu"] == 2


def test_analyze_reports_a_singular_final_chain_matrix_as_a_failed_check(
        tmp_path, monkeypatch, capsys):
    # the chain reaches ν only where A_ν is nonsingular on its grid, t0
    # included, so only a patch makes consistency_check raise here
    def singular(levels, f_list):
        t0 = float(levels[-1].A.domain[0])
        raise InconsistentChainError(f"final chain matrix is numerically singular at t0={t0}")

    monkeypatch.setattr(cli, "consistency_check", singular)
    path = str(write_problem(tmp_path, CONSTANT_PAIR))
    assert main(["analyze", "--problem", path]) == 0
    assert "consistency at t0=0: FAIL (final chain matrix is numerically singular at t0=0.0)" \
        in capsys.readouterr().out
    assert main(["analyze", "--problem", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["consistency"] == {
        "error": "final chain matrix is numerically singular at t0=0.0"}


def test_analyze_linear_dae_problem_file(tmp_path, capsys):
    # y1' + y2 = sin t, y1 = t: the algebraic row needs two differentiations
    data = {"kind": "linear-dae", "t_start": 0.0, "T": 1.0,
            "A": [[1, 0], [0, 0]], "B": [[0, 1], [1, 0]],
            "f": ["sin(t)", "t"]}
    path = write_problem(tmp_path, data)
    assert main(["analyze", "--problem", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rank-degree index: 2" in out
    assert "consistency at t0=0: PASS" in out


# the linear index-2 IAE with solution (cos t, 1 + sin t), and its DAE twin
# y1' + y2 = 0, y1 = sin t
INDEX_2_IAE = {"kind": "linear-iae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
               "k": [["0", "1"], ["1", "0"]], "f": ["t + 1", "sin(t)"]}
INDEX_2_DAE = {"kind": "linear-dae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
               "B": [[0, 1], [1, 0]], "f": [0, "sin(t)"]}


@pytest.mark.parametrize("data", [INDEX_2_IAE, INDEX_2_DAE], ids=["iae", "dae"])
def test_analyze_checks_consistency_at_the_integral_origin(tmp_path, capsys, data):
    # the conditions hold at t_start, where every integral term vanishes; at
    # --interval's start 0.5 these consistent problems miss them by 0.48 and 0.43
    argv = ["analyze", "--problem", str(write_problem(tmp_path, data)), "--interval", "0.5", "1"]
    assert main(argv) == 0
    assert "consistency at t0=0: PASS" in capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 0
    consistency = json.loads(capsys.readouterr().out)["consistency"]
    assert consistency["t0"] == 0.0
    assert max(consistency["defects"]) <= 1e-10


@pytest.mark.parametrize("argv", [
    ["analyze", "--problem", "ex34"],
    ["classify", "--problem", "ex32", "--interval", "1", "2"],
], ids=["analyze", "classify"])
def test_out_file_holds_the_json_output(tmp_path, capsys, argv):
    assert main([*argv, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "run.json").read_text()) == printed


@pytest.mark.parametrize("command", ["analyze", "classify", "solve-dae", "solve-iae"])
def test_unknown_problem_exits_2(capsys, command):
    assert main([command, "--problem", "nosuch"]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_classify_well_structured_example(capsys):
    assert main(["classify", "--problem", "ex31", "--interval", "0", "1",
                 "--eps", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "classification: well-structure, index 2" in out
    assert "critical points: none" in out


def test_classify_reports_critical_point(capsys):
    assert main(["classify", "--problem", "ex32", "--interval", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "classification: free-structure-dependent" in out
    assert "critical points: 1.570796" in out


def test_solve_dae_writes_artifacts(tmp_path, capsys):
    stem = tmp_path / "run"
    code = main(["solve-dae", "--problem", "ex32", "--interval", "0.5", "1",
                 "--h", "0.01", "--out", str(stem)])
    assert code == 0
    csv_path = tmp_path / "run.csv"
    diag_path = tmp_path / "run.diagnostics.json"
    assert csv_path.exists() and diag_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,y1,y2,exact1,exact2,error"
    assert len(lines) == 52
    # floats are written with 17 significant digits and round-trip exactly
    cell = lines[10].split(",")[1]
    assert float(cell) == pytest.approx(np.cos(0.59), abs=1e-3)
    assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 15
    diag = json.loads(diag_path.read_text())
    assert diag["failure"] is None


def test_solve_dae_failure_is_still_exit_zero(tmp_path):
    stem = tmp_path / "crossing"
    code = main(["solve-dae", "--problem", "ex32", "--interval", "1", "2",
                 "--h", "0.001", "--out", str(stem)])
    assert code == 0
    diag = json.loads((tmp_path / "crossing.diagnostics.json").read_text())
    assert diag["failure"] is not None
    assert diag["success"] is False


def test_solve_dae_invalid_config_exits_1(capsys):
    code = main(["solve-dae", "--problem", "ex32", "--interval", "0.5", "1",
                 "--h", "0.3"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_an_overflowing_kernel_prints_only_its_error_line(capsys):
    assert main(["classify", "--problem", "ex32", "--eps", "1000"]) == 1
    assert capsys.readouterr() == ("", "error: non-finite kernel at t=0.05\n")


def test_an_overflowing_differenced_kernel_prints_the_declared_ones_error(tmp_path, capsys):
    # ex32 as a file has no F_y: classify differences F, and at eps 1000 that
    # kernel overflows where ex32's declared F_y does
    data = {"kind": "dae", "t_start": 0.0, "T": 2.0, "A": [[1, 0], [0, 0]],
            "F": ["-y1^2 - exp(y2)", "-y1*y2"],
            "f": ["-cos(t)^2 - exp(t) - sin(t)", "-t*cos(t)"],
            "y0": [1, 0], "exact": ["cos(t)", "t"]}
    path = write_problem(tmp_path, data, name="ex32.json")
    assert main(["classify", "--problem", str(path), "--eps", "1000"]) == 1
    assert capsys.readouterr() == ("", "error: non-finite kernel at t=0.05\n")


@pytest.mark.parametrize("argv, message", [
    (["solve-dae", "--problem", "ex32", "--h", "nan"], "h must be finite"),
    (["solve-iae", "--problem", "ex34", "--h", "nan"], "h must be finite"),
    (["solve-iae", "--problem", "ex34", "--c", "0,abc"], "argument --c"),
    (["solve-iae", "--problem", "ex34", "--c", "0,nan"], "collocation parameters"),
    (["classify", "--problem", "ex32", "--eps", "nan"], "eps must be finite"),
    (["solve-dae", "--problem", "ex32", "--interval", "0.5", "1", "--h", "1e-300"],
     "exceeds the limit"),
    (["solve-iae", "--problem", "ex34", "--h", "1e-300"], "exceeds the limit"),
], ids=["dae-h-nan", "iae-h-nan", "c-not-a-number", "c-nan", "eps-nan",
        "dae-too-many-steps", "iae-too-many-steps"])
def test_non_finite_or_unparsable_settings_exit_1(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, problem", [
    ("analyze", "ex34"), ("classify", "ex34"),
    ("solve-dae", "ex32"), ("solve-iae", "ex34"),
])
@pytest.mark.parametrize("interval, message", [
    (("nan", "2"), "--interval needs two finite numbers A < B"),
    (("2", "1"), "--interval needs two finite numbers A < B"),
    (("1", "1"), "--interval needs two finite numbers A < B"),
    # ex34 lives on [1, 2], ex32 on [0, 2]: the message names both intervals
    (("0.5", "2.5"), "outside the span [{lo}, {hi}] of problem {problem} (--interval 0.5 2.5)"),
], ids=["nan", "reversed", "equal", "outside"])
def test_bad_interval_exits_1(tmp_path, capsys, command, problem, interval, message):
    assert main([command, "--problem", problem, "--interval", *interval,
                 "--out", str(tmp_path / "run")]) == 1
    lo, hi = example(problem).interval
    assert message.format(lo=lo, hi=hi, problem=problem) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_iae_writes_artifacts(tmp_path):
    stem = tmp_path / "colloc"
    code = main(["solve-iae", "--problem", "ex34", "--out", str(stem)])
    assert code == 0
    assert (tmp_path / "colloc.csv").exists()
    diag = json.loads((tmp_path / "colloc.diagnostics.json").read_text())
    assert diag["failure"] is None
    assert diag["max_residual_at_collocation"] <= 1e-8


def test_both_solves_write_the_monitors_warnings(tmp_path):
    assert main(["solve-dae", "--problem", "ex32", "--interval", "1", "2",
                 "--out", str(tmp_path / "dae")]) == 0
    diag = json.loads((tmp_path / "dae.diagnostics.json").read_text())
    warned = [w["t"] for w in diag["monitor_warnings"]]
    assert (len(warned), warned[0], warned[-1]) == (20, 1.561, 1.58)
    assert diag["warn_threshold"] == 0.01 and "warn_threshold" not in diag["config"]
    assert main(["solve-iae", "--problem", "ex35", "--out", str(tmp_path / "iae")]) == 0
    diag = json.loads((tmp_path / "iae.diagnostics.json").read_text())
    assert [(w["t"], w["condition"]) for w in diag["monitor_warnings"]] == [(1.5750000000000002, 0)]


def test_a_solve_iae_whose_first_interval_fails_writes_no_warning(tmp_path, capsys):
    # κ = −exp(50y) blows up in the first interval: the solution is empty
    data = {"kind": "iae", "t_start": 0.0, "T": 1.0, "A": [[1]], "kappa": ["-exp(50*y1)"],
            "f": [0.5], "critical_conditions": ["y1"]}
    path = write_problem(tmp_path, data)
    assert main(["solve-iae", "--problem", str(path), "--h", "0.5",
                 "--out", str(tmp_path / "run")]) == 0
    assert "over 0 intervals (stopped early)" in capsys.readouterr().out
    diag = json.loads((tmp_path / "run.diagnostics.json").read_text())
    assert diag["failure"]["step"] == 0 and diag["monitor_warnings"] == []


def test_solve_iae_breakdown_from_problem_file_exits_0(tmp_path, capsys):
    # ex34 as a file has no κ_y; its breakdown at c = (0.3, 0.8) is a result
    e = np.e
    data = {"kind": "iae", "t_start": 1.0, "T": 2.0,
            "A": [[1, 0], [0, 0]],
            "kappa": ["(y1^2 + 2)*y2 + exp(y2)", "y1^2"],
            "f": [f"2*exp(t) + (2*t - 1)*exp(2*t)/4 + t^2 - {e * e / 4 + e + 1!r}",
                  f"(exp(2*t) - {e * e!r})/2"],
            "exact": ["exp(t)", "t"]}
    path = write_problem(tmp_path, data, name="ex34.json")
    code = main(["solve-iae", "--problem", str(path), "--c", "0.3,0.8", "--h", "0.1",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert "stopped early" in capsys.readouterr().out
    diag = json.loads((tmp_path / "run.diagnostics.json").read_text())
    assert diag["failure"] is not None


def test_json_stdout_is_strict_json_and_equals_the_diagnostics_file(tmp_path, capsys):
    # the divergent step leaves infinite residual norms in the diagnostics
    assert main(["solve-iae", "--problem", "ex34", "--c", "0.3,0.8", "--h", "0.1",
                 "--format", "json", "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    assert json.loads(out, parse_constant=reject)["failure"] is not None
    assert '"inf"' in out
    assert out == (tmp_path / "run.diagnostics.json").read_text()


def test_dumps_converts_numpy_and_non_finite_values_and_refuses_other_types():
    assert dumps({"t": np.float64(-np.inf), "n": np.int64(3), "ok": np.bool_(True)}) == \
        '{\n  "n": 3,\n  "ok": true,\n  "t": "-inf"\n}\n'
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_solve_iae_failure_at_the_first_step_writes_empty_artifacts(tmp_path, capsys):
    # the Jacobian 2*y1 of kappa vanishes at the start value y = 0
    data = {"kind": "iae", "t_start": 0, "T": 1, "A": [[0]], "kappa": ["y1^2"],
            "f": ["t"]}
    path = write_problem(tmp_path, data)
    code = main(["solve-iae", "--problem", str(path), "--h", "0.1",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert "stopped early" in capsys.readouterr().out
    assert (tmp_path / "run.csv").read_text().splitlines() == ["t,y1"]
    diag = json.loads((tmp_path / "run.diagnostics.json").read_text())
    assert diag["failure"]["step"] == 0


# fmt None: no --out and no --format
@pytest.mark.parametrize("fmt", ["csv", "json", None], ids=["csv", "json", "no-out"])
@pytest.mark.parametrize("command, problem, hint", [
    ("analyze", "ex31", "analyze needs a linear problem or one with a known solution "
                        "to linearize along; use classify instead"),
    ("classify", None, "classify applies to semi-nonlinear problems"),
    ("solve-dae", "ex34", "solve-dae needs a differential problem; use solve-iae"),
    ("solve-iae", "ex32", "solve-iae needs an integral problem; use solve-dae"),
], ids=["analyze", "classify", "solve-dae", "solve-iae"])
def test_a_wrong_kind_of_problem_is_an_error_that_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                 command, problem, hint, fmt):
    problem = problem or str(write_problem(tmp_path, CONSTANT_PAIR))
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    out = [] if fmt is None else ["--out", str(tmp_path / "run"), "--format", fmt]
    assert main([command, "--problem", problem, *out]) == 1
    assert capsys.readouterr() == ("", f"error: {hint}\n")
    assert set(tmp_path.iterdir()) == before


def test_solve_dae_from_problem_file(tmp_path):
    path = write_problem(tmp_path, RELAX, name="relax.json")
    stem = tmp_path / "relax-out"
    assert main(["solve-dae", "--problem", str(path), "--h", "0.01",
                 "--out", str(stem)]) == 0
    lines = (tmp_path / "relax-out.csv").read_text().splitlines()
    assert lines[0] == "t,y1,y2"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[2] == pytest.approx(np.sin(1.0), abs=1e-12)


# every command's options, in order; "=" marks one with a default, as in
# test_api.py's SIGNATURES: adding or removing an option is an edit here
OPTIONS = {
    "list": "",
    "analyze": "--problem, --interval, --out, --format=",
    "classify": "--problem, --interval, --out, --format=, --eps=, --seed=",
    "solve-dae": "--problem, --interval, --out, --format=, --h=, --order=",
    "solve-iae": "--problem, --interval, --out, --format=, --h=, --c=",
    "reproduce": "figure, --out=, --format=",
}


def test_every_command_line_option_is_in_the_table():
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    got = {name: ", ".join((a.option_strings[0] if a.option_strings else a.dest)
                           + ("=" if a.default is not None else "")
                           for a in sub._actions if a.dest != "help")
           for name, sub in commands.choices.items()}
    assert got == OPTIONS


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert main(["reproduce", "fig9"]) == 1
    capsys.readouterr()


def test_reproduce_is_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "fig4", "--out", str(d1)]) == 0
    assert main(["reproduce", "fig4", "--out", str(d2)]) == 0
    capsys.readouterr()
    csv1 = (d1 / "fig4.csv").read_bytes()
    csv2 = (d2 / "fig4.csv").read_bytes()
    assert csv1 == csv2
    summary = json.loads((d1 / "fig4-summary.json").read_text())
    assert summary["passed"] is True
    assert "criterion" in summary


def test_reproduce_breakdown_figure(tmp_path, capsys):
    out = tmp_path / "fig2"
    assert main(["reproduce", "fig2", "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "fig2-summary.json").read_text())
    assert summary["passed"] is True
    assert abs(summary["first_warning_t"] - np.pi / 2) <= 0.05
    assert summary["critical_points"]
    assert abs(summary["critical_points"][0] - np.pi / 2) <= 1e-3


@pytest.mark.parametrize("figure", ["fig1", "fig3"])
def test_reproduce_solves_each_bdf_step_size_once(tmp_path, capsys, monkeypatch, figure):
    steps = []

    def counted(p, cfg, interval=None):
        steps.append(cfg.h)
        return solve_dae(p, cfg, interval=interval)

    monkeypatch.setattr(cli, "solve_dae", counted)
    assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert steps == [4e-3, 2e-3, 1e-3, 5e-4]


def _ex32_bdf_rows():
    sol = solve_dae(example("ex32"), DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    return sol.times, sol.values


def _ex34_collocation_rows():
    sol, _ = solve_iae(example("ex34"), CollocationConfig(c=(0.0, 0.7, 0.9), h=0.025))
    times = sol.collocation_times()
    return times, sol(times)


@pytest.mark.parametrize("make, name", [(_ex32_bdf_rows, "ex32"), (_ex34_collocation_rows, "ex34")],
                         ids=["ex32-bdf", "ex34-collocation"])
def test_error_rows_are_the_np_linalg_norm_rows_bit_for_bit(make, name):
    times, values = make()
    exact = example(name).exact
    want_errs = [np.linalg.norm(values[i] - exact(t)) for i, t in enumerate(times)]
    want_rows = []
    for i, t in enumerate(times):
        ex = np.atleast_1d(np.asarray(exact(t), dtype=float))
        want_rows.append([t] + list(values[i]) + list(ex) + [np.linalg.norm(values[i] - ex)])
    assert len(want_rows) > 100
    got_errs = cli._errors_on(times, values, exact)
    assert np.asarray(got_errs).tobytes() == np.asarray(want_errs, dtype=float).tobytes()
    _, rows = solution_table(times, values, exact)
    assert np.asarray(rows).tobytes() == np.asarray(want_rows, dtype=float).tobytes()


@pytest.mark.parametrize("values", [np.zeros((2, 1)), np.zeros(3)], ids=["rows", "ndim"])
def test_a_table_whose_values_do_not_match_its_times_is_invalid_input(values, tmp_path):
    times = np.array([0.0, 0.5, 1.0])
    with pytest.raises(InvalidInputError, match="one row per time"):
        solution_table(times, values)
    with pytest.raises(InvalidInputError, match="one row per time"):
        write_solution_csv(tmp_path / "out.csv", times, values)
    assert not (tmp_path / "out.csv").exists()
