"""The three benchmark workloads and their outcome checks.

Every pass builds fresh problem instances, as a command-line user would, so
that memo dicts on ``MatrixFunction`` and the chain closures never carry
over from one pass to the next.  A task's outcome is a (check passed,
record) pair; the record is what must come out identical on every pass,
traced or not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import daekit
import daekit.cli

HALF_PI = math.pi / 2


@dataclass
class Outcome:
    task: str
    ok: bool
    record: dict
    note: str = ""


def _max_error(sol, exact) -> float:
    return max(float(np.linalg.norm(sol(t) - exact(t))) for t in sol.collocation_times())


# --- analysis: SVD-driven chain work, no solver -----------------------------

# problem -> (classify keyword arguments, class, ν); the argument values are
# those of `daekit classify` on the same problems
CLASSIFY = {
    "ex31": ({"eps": 0.5, "grid": np.linspace(0.0, 1.0, 21)}, "well-structure", 2),
    "ex32": ({"grid": np.linspace(1.0, 2.0, 21)}, "free-structure-dependent", 1),
    "ex34": ({}, "well-structure", 2),
    "ex35": ({}, "free-structure-dependent", 2),
}
CRITICAL_TOL = 1e-5
HESSENBERG_NU = 4


def hessenberg4() -> daekit.LinearDAE:
    """Linear index-4 Hessenberg DAE: A = diag(1,1,1,0), B(t) = (1 + t/2)·S.

    S is the cyclic shift, so the rows read y_i' + b y_{i+1} = 0 (i < 4) and
    b y_1 = sin t: y_4 appears only after differentiating three times.
    """
    shift = np.roll(np.eye(4), 1, axis=1)
    domain = (0.0, 1.0)
    return daekit.LinearDAE(
        A=daekit.MatrixFunction.constant(np.diag([1.0, 1.0, 1.0, 0.0]), domain=domain,
                                         name="A"),
        B=daekit.MatrixFunction(eval=lambda t: (1.0 + 0.5 * t) * shift, domain=domain,
                                name="B"),
        f=lambda t: np.array([0.0, 0.0, 0.0, np.sin(t)]),
        y0=None, r=4, T=domain[1], t_start=domain[0], name="hessenberg4")


class Analysis:
    name = "analysis"
    tasks = [*CLASSIFY, "hessenberg4-chain"]
    exercises = ("linalg.semi_inverse", "linalg.numerical_rank", "linalg.fd_derivative",
                 "linalg.matfn", "chain.rank_degree_index", "chain.chain_step",
                 "chain.dae_to_iae", "chain.rhs_chain", "chain.consistency_check",
                 "structure.classify", "structure.frozen_index_report",
                 "structure.pointwise_index", "structure.detect_critical_points",
                 "problems.F_y")

    def __init__(self, work_dir: Path, seed: int):
        self.seed = seed

    def setup(self):
        for name in CLASSIFY:
            daekit.example(name)
        hessenberg4()

    def run_pass(self, pass_dir: Path) -> list:
        out = []
        for name, (kwargs, want_class, want_nu) in CLASSIFY.items():
            prof = daekit.classify(daekit.example(name), seed=self.seed, **kwargs)
            crit = prof.critical_points
            ok = prof.classification == want_class and prof.nu == want_nu
            if want_class == "free-structure-dependent":
                ok = ok and bool(crit) and all(abs(c - HALF_PI) <= CRITICAL_TOL for c in crit)
            else:
                ok = ok and not crit
            out.append(Outcome(name, ok, {"class": prof.classification, "nu": prof.nu,
                                          "critical_points": crit}))

        q = daekit.dae_to_iae(hessenberg4())
        report = daekit.rank_degree_index(q.A, q.k)
        record = {"nu": report.nu, "status": str(report.status),
                  "ranks": [lev.rank for lev in report.levels]}
        ok = report.nu == HESSENBERG_NU
        if ok:
            cons = daekit.consistency_check(report.levels, daekit.rhs_chain(q.f, report.levels))
            record["defects"] = cons.defects
            ok = len(cons.defects) == HESSENBERG_NU and all(map(math.isfinite, cons.defects))
        out.append(Outcome("hessenberg4-chain", ok, record))
        return out


# --- iae-long: O(N²) collocation history ------------------------------------

# newton_tol=1e-10 rather than the default 1e-12: at 1e-12 the N = 200 mesh
# stops at t = 1.125 on a roundoff-level defect (see the note), and work that
# ends where a known defect stops it would make fixing the defect read as a
# slowdown.
NEWTON_TOL = 1e-10
# (h, intervals, bound on the max error at the collocation points); the
# bounds are twice the errors measured when the benchmark was defined
IAE_BUILTIN = (0.005, 200, 4.0e-10)
IAE_FILE = (0.02, 50, 2.6e-8)


def ex34_problem_file(path: Path) -> Path:
    """ex34 written as a JSON problem file (κ without a declared Jacobian)."""
    e = math.e
    data = {
        "kind": "iae", "name": "ex34-file", "t_start": 1.0, "T": 2.0,
        "A": [[1, 0], [0, 0]],
        "kappa": ["(y1^2 + 2)*y2 + exp(y2)", "y1^2"],
        "f": [f"2*exp(t) + (2*t - 1)*exp(2*t)/4 + t^2 - {e * e / 4 + e + 1!r}",
              f"(exp(2*t) - {e * e!r})/2"],
        "exact": ["exp(t)", "t"],
    }
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


class IaeLong:
    name = "iae-long"
    tasks = ["ex34-N200", "ex34-file-N50"]
    exercises = ("collocation.solve_iae", "collocation.eval", "problems.kappa",
                 "problems.kappa_y", "problems.rhs", "expr.eval", "probfile.load_problem")

    def __init__(self, work_dir: Path, seed: int):
        self.problem_file = work_dir / "ex34.json"

    def setup(self):
        ex34_problem_file(self.problem_file)
        daekit.load_problem(self.problem_file)
        daekit.example("ex34")

    def run_pass(self, pass_dir: Path) -> list:
        out = []
        for task, make, (h, n, bound) in (
                ("ex34-N200", lambda: daekit.example("ex34"), IAE_BUILTIN),
                ("ex34-file-N50", lambda: daekit.load_problem(self.problem_file), IAE_FILE)):
            p = make()
            sol, diag = daekit.solve_iae(p, daekit.CollocationConfig(h=h, newton_tol=NEWTON_TOL))
            err = _max_error(sol, p.exact) if sol.n_intervals else math.inf
            ok = diag["failure"] is None and sol.n_intervals == n and err <= bound
            out.append(Outcome(task, ok, {"intervals": sol.n_intervals, "max_error": err,
                                          "failure": diag["failure"]}))
        return out


# --- reproduce: the user-facing paper run ------------------------------------

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
# fig3 fails acceptance criterion 05 at this code (a property of ex33, see
# the README); its verdict is reported as printed and is not required
VERDICT_NOT_REQUIRED = {"fig3"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Reproduce:
    name = "reproduce"
    tasks = list(FIGURES)
    exercises = ("bdf.solve_dae", "collocation.solve_iae", "collocation.residual",
                 "structure.detect_critical_points", "export.write_solution_csv",
                 "export.write_json", "cli.main", "problems.F", "problems.F_y")

    def __init__(self, work_dir: Path, seed: int):
        pass

    def setup(self):
        pass

    def run_pass(self, pass_dir: Path) -> list:
        out = []
        for fig in FIGURES:
            fig_dir = pass_dir / fig
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = daekit.cli.main(["reproduce", fig, "--out", str(fig_dir)])
            csv, summary = fig_dir / f"{fig}.csv", fig_dir / f"{fig}-summary.json"
            if rc != 0 or not (csv.exists() and summary.exists()):
                out.append(Outcome(fig, False, {"rc": rc}, printed.getvalue().strip()))
                continue
            passed = json.loads(summary.read_text())["passed"]
            verdict = "PASS" if passed else "FAIL"
            ok = passed or fig in VERDICT_NOT_REQUIRED
            # same bytes on every pass: criterion 11, checked from outside
            record = {"rc": rc, "verdict": verdict, "csv": _sha256(csv),
                      "summary": _sha256(summary)}
            note = printed.getvalue().split("; wrote")[0].strip()
            if fig in VERDICT_NOT_REQUIRED:
                note += " [verdict not required: acceptance criterion 05]"
            out.append(Outcome(fig, ok, record, note))
        return out


WORKLOADS = {w.name: w for w in (Analysis, IaeLong, Reproduce)}
