"""Command-line front-end: analysis, solvers, and experiment reproduction.

Commands
    list        registered example problems
    analyze     rank-degree index chain (linear problems, or the linearization
                of a problem with a known solution) + consistency check (linear
                problems only)
    classify    structure/form classification with critical points
    solve-dae   fixed-step BDF solve, CSV + diagnostics JSON
    solve-iae   piecewise collocation solve, CSV + diagnostics JSON
    reproduce   fig1..fig5 experiment bundles with acceptance verdicts

Exit codes: 0 on success (solver breakdowns are data, not errors),
1 on invalid configuration or problem files, 2 on unknown problem names.
Every refusal is an exception that ``main`` alone prints, so a command
that refuses writes nothing to stdout and no file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import examples
from .bdf import DaeSolveConfig, solve_dae
from .chain import consistency_check, dae_to_iae, rank_degree_index, rhs_chain
from .collocation import CollocationConfig, residual as iae_residual, solve_iae
from .errors import (DaekitError, InconsistentChainError, InvalidInputError,
                     ProblemFileError)
from .export import dumps, write_json, write_solution_csv
from .linalg import MatrixFunction, check_span, norm2
from .probfile import load_problem
from .problems import (LinearDAE, LinearIAE, SemiNonlinearDAE, SemiNonlinearIAE,
                       TrajectorySample)
from .structure import WARN_THRESHOLD, classify, detect_critical_points, linearize_iae, monitor

HALF_PI = float(np.pi / 2)


def _numbers(text: str) -> tuple:
    """A comma-separated list of numbers, as argparse's ``type`` of --c."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daekit",
        description="index analysis and solvers for differential/integral algebraic equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--problem", required=True,
                        help="example name (see `daekit list`) or JSON problem file")
        sp.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"),
                        help="time interval (default: the problem's own)")
        sp.add_argument("--out", help="output stem for CSV/JSON artifacts")
        sp.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="stdout rendering: human text (csv) or JSON")

    sub.add_parser("list", help="list registered example problems")

    sp = sub.add_parser("analyze", help="rank-degree index of a linear problem")
    common(sp)

    sp = sub.add_parser("classify", help="well/free structure classification")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.1,
                    help="neighborhood radius for perturbation sampling")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")

    sp = sub.add_parser("solve-dae", help="fixed-step BDF solve")
    common(sp)
    sp.add_argument("--h", type=float, default=1e-3, help="step size")
    sp.add_argument("--order", type=int, default=1, choices=(1, 2), help="BDF order")

    sp = sub.add_parser("solve-iae", help="piecewise collocation solve")
    common(sp)
    sp.add_argument("--h", type=float, default=0.025, help="step size")
    sp.add_argument("--c", type=_numbers, default="0,0.7,0.9",
                    help="collocation parameters, comma separated")

    sp = sub.add_parser("reproduce", help="rerun a figure experiment end to end")
    sp.add_argument("figure", choices=[f"fig{i}" for i in range(1, 6)])
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _resolve_problem(spec: str):
    """Example name or problem-file path -> problem object, or None if unknown."""
    if spec in examples.available():
        return examples.example(spec)
    path = Path(spec)
    return load_problem(path) if path.exists() else None


def _emit(args, text: str, payload: dict, json_path) -> int:
    """Write payload to json_path (None: no file), print text or payload; exit code 0."""
    if json_path:
        write_json(json_path, payload)
    if args.format == "json":
        sys.stdout.write(dumps(payload))
    else:
        print(text)
    return 0


def _cmd_list(args) -> int:
    rows = []
    for name in examples.available():
        p = examples.example(name)
        kind = type(p).__name__
        rows.append(f"{name}  {kind}  on [{p.t_start:g}, {p.T:g}]")
    print("\n".join(rows))
    return 0


def _as_linear_iae(p, interval):
    """Problem -> the linear IAE whose kernel drives the index chain."""
    if isinstance(p, LinearIAE):
        return p
    if isinstance(p, LinearDAE):
        return dae_to_iae(p)
    if getattr(p, "exact", None) is None:
        raise InvalidInputError("analyze needs a linear problem or one with a known "
                                "solution to linearize along; use classify instead")
    traj = TrajectorySample.from_function(p.exact, np.linspace(*interval, 201))
    return linearize_iae(p, traj)


def _cmd_analyze(args, p, interval) -> int:
    q = _as_linear_iae(p, interval)
    grid = np.linspace(interval[0], interval[1], 33)
    report = rank_degree_index(q.A, q.k, grid=grid)
    payload = {"problem": args.problem, "interval": list(interval),
               "report": report.to_dict()}
    lines = [f"problem: {args.problem}  interval: [{interval[0]:g}, {interval[1]:g}]",
             f"rank-degree index: {report.nu if report.nu is not None else 'undetermined'}",
             f"status: {report.status}"]
    for lev in report.levels:
        lines.append(f"  level {lev.level}: rank {lev.rank}")
    if report.nu and not isinstance(p, (LinearIAE, LinearDAE)):
        lines.append("consistency: not checked (the linearization's right side is zero)")
    elif report.nu:
        # at the chain's domain start, the integral origin: at a later t0
        # the integral terms do not vanish and consistent data fail
        try:
            cons = consistency_check(report.levels, rhs_chain(q.f, report.levels))
            payload["consistency"] = cons.to_dict()
            lines.append(f"consistency at t0={cons.t0:g}: {'PASS' if cons.ok else 'FAIL'} "
                         f"(max defect {max(cons.defects):.3e})")
        except InconsistentChainError as exc:
            payload["consistency"] = {"error": str(exc)}
            lines.append(f"consistency at t0={q.t_start:g}: FAIL ({exc})")
    return _emit(args, "\n".join(lines), payload,
                 args.out and Path(args.out).with_suffix(".json"))


def _cmd_classify(args, p, interval) -> int:
    if not isinstance(p, (SemiNonlinearDAE, SemiNonlinearIAE)):
        raise InvalidInputError("classify applies to semi-nonlinear problems")
    grid = np.linspace(interval[0], interval[1], 21)
    profile = classify(p, eps=args.eps, seed=args.seed, grid=grid)
    payload = {"problem": args.problem, "interval": list(interval),
               "profile": profile.to_dict()}
    lines = [f"problem: {args.problem}  interval: [{interval[0]:g}, {interval[1]:g}]",
             f"classification: {profile.classification}"
             + (f", index {profile.nu}" if profile.nu is not None else "")]
    if profile.critical_points:
        pts = ", ".join(f"{t:.6f}" for t in profile.critical_points)
        lines.append(f"critical points: {pts}")
    else:
        lines.append("critical points: none")
    for e in profile.evidence:
        lines.append(f"  evidence: {e}")
    return _emit(args, "\n".join(lines), payload,
                 args.out and Path(args.out).with_suffix(".json"))


def _monitor_keys(traj, conditions) -> dict:
    """The diagnostics keys of :func:`monitor` on a solve's trajectory."""
    return {"monitor_warnings": [w.to_dict() for w in monitor(traj, conditions)],
            "warn_threshold": WARN_THRESHOLD}


def _emit_solve(args, p, times, values, diag, span: str) -> int:
    """Write a solve's ``<out>.csv`` and ``<out>.diagnostics.json``, and report them."""
    stem = Path(args.out or f"{Path(args.problem).stem}-{args.command}")
    csv_path = write_solution_csv(stem.with_suffix(".csv"), times, values,
                                  exact=getattr(p, "exact", None))
    json_path = stem.parent / (stem.name + ".diagnostics.json")
    text = (f"solved {args.problem} {span} "
            f"({'complete' if diag['failure'] is None else 'stopped early'}); "
            f"wrote {csv_path} and {json_path}")
    return _emit(args, text, diag, json_path)


def _cmd_solve_dae(args, p, interval) -> int:
    if not isinstance(p, SemiNonlinearDAE):
        raise InvalidInputError("solve-dae needs a differential problem; use solve-iae")
    sol = solve_dae(p, DaeSolveConfig(h=args.h, order=args.order), interval=interval)
    diag = {**sol.to_dict(), **_monitor_keys(sol, p.critical_conditions)}
    return _emit_solve(args, p, sol.times, sol.values, diag,
                       f"on [{sol.times[0]:g}, {sol.times[-1]:g}]")


def _cmd_solve_iae(args, p, interval) -> int:
    if not isinstance(p, (LinearIAE, SemiNonlinearIAE)):
        raise InvalidInputError("solve-iae needs an integral problem; use solve-dae")
    cfg = CollocationConfig(c=args.c, h=args.h)
    sol, diag = solve_iae(p, cfg, interval=interval)
    times = sol.collocation_times()
    values = sol(times)
    if times.size:
        diag["max_residual_at_collocation"] = float(
            iae_residual(p, sol, times).max())
    # a linear problem has no conditions; an empty solution no value to read
    diag.update(_monitor_keys(sol, getattr(p, "critical_conditions", ()) if times.size else ()))
    return _emit_solve(args, p, times, values, diag, f"over {sol.n_intervals} intervals")


# --- figure experiments ------------------------------------------------

def _errors_on(times, values, exact) -> np.ndarray:
    return np.array([norm2(values[i] - exact(t)) for i, t in enumerate(times.tolist())])


def _order_fit(hs, errs) -> float:
    hs, errs = np.asarray(hs, float), np.asarray(errs, float)
    keep = np.isfinite(errs) & (errs > 0)
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(hs[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)


BDF_SWEEP = (4e-3, 2e-3, 1e-3, 5e-4)


def _fig_dae_good(name, interval, bound, criterion):
    """BDF1 over BDF_SWEEP; the figure shows the h = 1e-3 run."""
    p = examples.example(name)
    runs = [solve_dae(p, DaeSolveConfig(h=h), interval=interval) for h in BDF_SWEEP]
    errs = [_errors_on(sol.times, sol.values, p.exact) for sol in runs]
    max_errors = [float(e.max()) if e.size else float("nan") for e in errs]
    conv = {"h_values": list(BDF_SWEEP), "max_errors": max_errors,
            "all_complete": all(sol.success for sol in runs),
            "order": _order_fit(BDF_SWEEP, max_errors)}
    k = BDF_SWEEP.index(1e-3)
    sol, max_error = runs[k], max_errors[k]
    passed = (sol.success and max_error <= bound
              and 0.9 <= conv["order"] <= 1.1 and conv["all_complete"])
    summary = {
        "problem": name, "interval": list(interval), "h": 1e-3, "solver": "bdf1",
        "complete": sol.success, "failure": sol.failure, "max_error": max_error,
        "error_bound": bound, "convergence": conv,
        "criterion": criterion, "passed": bool(passed),
    }
    return sol.times, sol.values, p.exact, summary


def _fig1():
    return _fig_dae_good("ex32", (0.5, 1.0), 5e-3,
                         "solve completes with max error <= 5e-3 and order 1 +- 0.1")


def _fig3():
    # on [0, 2] the BDF1 error constant is about 1.35e4, so the 2e-2 bound
    # is out of reach for any step in the sweep; [0, 1] has constant 5.0
    return _fig_dae_good("ex33", (0.0, 1.0), 2e-2,
                         "solve on [0, 1] completes with max error <= 2e-2 "
                         "and order 1 +- 0.1")


def _error_split(times, errs):
    """Max errors before (t in [1, 1.5]) and after (t in [1.6, 2]) pi/2.

    Returns the three summary keys and whether the late/early ratio is
    finite and at least 10.
    """
    early = errs[(times >= 1.0) & (times <= 1.5)]
    late = errs[(times >= 1.6) & (times <= 2.0)]
    ratio = float(late.max() / early.max()) if late.size and early.size else float("nan")
    grew = bool(np.isfinite(ratio) and ratio >= 10.0)
    return {"max_error_1_15": float(early.max()) if early.size else None,
            "max_error_16_2": float(late.max()) if late.size else None,
            "error_ratio": ratio if np.isfinite(ratio) else None}, grew


def _fig2():
    p = examples.example("ex32")
    interval = (1.0, 2.0)
    sol = solve_dae(p, DaeSolveConfig(h=1e-3, order=1), interval=interval)
    times = sol.times
    split, grew = _error_split(times, _errors_on(times, sol.values, p.exact))
    warn_ts = [w.t for w in monitor(sol, p.critical_conditions)]
    first_warn = min(warn_ts) if warn_ts else None
    warn_near = first_warn is not None and abs(first_warn - HALF_PI) <= 0.05
    crits = [t for t, _ in detect_critical_points(sol, p.critical_conditions)]
    breakdown = (not sol.success) or grew
    summary = {
        "problem": "ex32", "interval": list(interval), "h": 1e-3, "solver": "bdf1",
        "complete": sol.success, "failure": sol.failure,
        "n_monitor_warnings": len(warn_ts), "first_warning_t": first_warn,
        "critical_points": crits, "half_pi": HALF_PI, **split,
        "criterion": "monitor fires near pi/2 and Newton fails after pi/2 "
                     "or late/early error ratio >= 10",
        "passed": bool(warn_near and breakdown),
    }
    return sol.times, sol.values, p.exact, summary


def _scalar_oracle_order():
    one = MatrixFunction.constant(np.array([[1.0]]), domain=(0.0, 1.0), name="I1")
    p = LinearIAE(A=one, k=one, f=lambda t: np.array([1.0]), r=1, T=1.0, name="scalar-second-kind")
    hs, errs = (0.1, 0.05), []
    for h in hs:
        sol, _ = solve_iae(p, CollocationConfig(c=(0.0, 0.7, 0.9), h=h))
        ts = sol.collocation_times()
        errs.append(np.abs(sol(ts)[:, 0] - np.exp(-ts)).max())
    return {"h_values": list(hs), "max_errors": [float(e) for e in errs],
            "order": _order_fit(hs, errs)}


def _colloc_run(name, h):
    p = examples.example(name)
    sol, diag = solve_iae(p, CollocationConfig(c=(0.0, 0.7, 0.9), h=h),
                          interval=(1.0, 2.0))
    times = sol.collocation_times()
    values = sol(times)
    errs = _errors_on(times, values, p.exact) if times.size else np.array([])
    return p, sol, diag, times, values, errs


def _fig4():
    p, sol, diag, times, values, errs = _colloc_run("ex34", 0.025)
    _, _, diag_half, _, _, errs_half = _colloc_run("ex34", 0.0125)
    complete = diag["failure"] is None and diag_half["failure"] is None
    decreasing = bool(errs.size and errs_half.size and errs_half.max() < errs.max())
    oracle = _scalar_oracle_order()
    passed = complete and decreasing and oracle["order"] >= 2.0
    summary = {
        "problem": "ex34", "interval": [1.0, 2.0], "h": 0.025,
        "c": [0.0, 0.7, 0.9], "solver": "collocation",
        "complete": complete, "failure": diag["failure"],
        "max_error": float(errs.max()) if errs.size else None,
        "max_error_half_h": float(errs_half.max()) if errs_half.size else None,
        "error_decreases_under_halving": decreasing,
        "scalar_second_kind_oracle": oracle,
        "criterion": "solve completes, error decreases under h -> h/2, "
                     "scalar oracle order >= 2",
        "passed": bool(passed),
    }
    return times, values, p.exact, summary


def _fig5():
    p, sol, diag, times, values, errs = _colloc_run("ex35", 0.025)
    split, grew = _error_split(times, errs)
    res = iae_residual(p, sol, times) if times.size else np.array([np.inf])
    passed = grew and res.max() <= 1e-8
    summary = {
        "problem": "ex35", "interval": [1.0, 2.0], "h": 0.025,
        "c": [0.0, 0.7, 0.9], "solver": "collocation",
        "complete": diag["failure"] is None, "failure": diag["failure"], **split,
        "max_residual_at_collocation": float(res.max()),
        "half_pi": HALF_PI,
        "criterion": "late/early error ratio >= 10 while collocation-point "
                     "residuals stay <= 1e-8",
        "passed": bool(passed),
    }
    return times, values, p.exact, summary


_FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    times, values, exact, summary = _FIGURES[args.figure]()
    csv_path = write_solution_csv(out_dir / f"{args.figure}.csv", times, values,
                                  exact=exact)
    json_path = out_dir / f"{args.figure}-summary.json"
    text = (f"{args.figure}: {summary['problem']} -> "
            f"{'PASS' if summary['passed'] else 'FAIL'} ({summary['criterion']}); "
            f"wrote {csv_path} and {json_path}")
    return _emit(args, text, summary, json_path)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; config errors are exit 1 here
        return 0 if exc.code == 0 else 1
    without_problem = {"list": _cmd_list, "reproduce": _cmd_reproduce}
    on_problem = {"analyze": _cmd_analyze, "classify": _cmd_classify,
                  "solve-dae": _cmd_solve_dae, "solve-iae": _cmd_solve_iae}
    try:
        if args.command in without_problem:
            return without_problem[args.command](args)
        p = _resolve_problem(args.problem)
        if p is None:
            print(f"unknown problem: {args.problem}", file=sys.stderr)
            return 2
        if args.interval:
            a, b = args.interval
            if not (a < b and np.isfinite([a, b]).all()):
                raise InvalidInputError(
                    f"--interval needs two finite numbers A < B, got {a:g} {b:g}")
            check_span((a, b), *p.interval, f"problem {args.problem} (--interval {a:g} {b:g})",
                       InvalidInputError)
        interval = tuple(args.interval) if args.interval else p.interval
        return on_problem[args.command](args, p, interval)
    except ProblemFileError as exc:
        print(f"problem file error: {exc}", file=sys.stderr)
        return 1
    except DaekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
