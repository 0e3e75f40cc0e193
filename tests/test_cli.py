"""Problem files and the command-line front-end."""

import json

import numpy as np
import pytest

from daekit import (
    LinearDAE,
    LinearIAE,
    ProblemFileError,
    SemiNonlinearDAE,
    SemiNonlinearIAE,
    load_problem,
    solve_dae,
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
    # sub-intervals: the trajectory covers [a, b] only, and the linearization
    # has right-hand side 0, so its start data are consistent
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
    assert "consistency at t0=" in out and ": PASS" in out


def test_analyze_json_format(tmp_path, capsys):
    path = write_problem(tmp_path, CONSTANT_PAIR)
    assert main(["analyze", "--problem", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["nu"] == 2


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


def test_classify_rejects_linear_problems(tmp_path, capsys):
    path = write_problem(tmp_path, CONSTANT_PAIR)
    assert main(["classify", "--problem", str(path)]) == 1
    assert "semi-nonlinear" in capsys.readouterr().err


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
@pytest.mark.parametrize("interval", [("nan", "2"), ("2", "1"), ("1", "1")],
                         ids=["nan", "reversed", "equal"])
def test_bad_interval_exits_1(tmp_path, capsys, command, problem, interval):
    assert main([command, "--problem", problem, "--interval", *interval,
                 "--out", str(tmp_path / "run")]) == 1
    assert "--interval needs two finite numbers A < B" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_analyze_without_exact_solution_points_to_classify(capsys):
    # ex31 is semi-nonlinear and has no known solution to linearize along
    assert main(["analyze", "--problem", "ex31"]) == 1
    assert "use classify instead" in capsys.readouterr().err


def test_solve_dae_wrong_problem_kind_exits_1(capsys):
    assert main(["solve-dae", "--problem", "ex34"]) == 1
    assert "solve-iae" in capsys.readouterr().err


def test_solve_iae_writes_artifacts(tmp_path):
    stem = tmp_path / "colloc"
    code = main(["solve-iae", "--problem", "ex34", "--out", str(stem)])
    assert code == 0
    assert (tmp_path / "colloc.csv").exists()
    diag = json.loads((tmp_path / "colloc.diagnostics.json").read_text())
    assert diag["failure"] is None
    assert diag["max_residual_at_collocation"] <= 1e-8


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


def test_solve_iae_wrong_problem_kind_exits_1(capsys):
    assert main(["solve-iae", "--problem", "ex32"]) == 1
    assert "solve-dae" in capsys.readouterr().err


def test_solve_dae_from_problem_file(tmp_path):
    data = {"kind": "dae", "t_start": 0.0, "T": 1.0,
            "A": [[1, 0], [0, 0]],
            "F": ["y1 - y2", "y2 - sin(t)"],
            "f": [0, 0], "y0": [1, 0]}
    path = write_problem(tmp_path, data, name="relax.json")
    stem = tmp_path / "relax-out"
    assert main(["solve-dae", "--problem", str(path), "--h", "0.01",
                 "--out", str(stem)]) == 0
    lines = (tmp_path / "relax-out.csv").read_text().splitlines()
    assert lines[0] == "t,y1,y2"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[2] == pytest.approx(np.sin(1.0), abs=1e-12)


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
