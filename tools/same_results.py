"""Check that a git revision and the worktree give the same results.

Extracts REV with ``git archive`` into a temporary directory (no worktree,
no branch), runs every case below in a child process in each tree, with
that tree's ``src`` first on ``PYTHONPATH``, and prints one digest pair per
case.  A digest is the SHA-256 of a case's result written canonically:
floats as their hex bits, files as their bytes, a daekit error as its type
and message.  Exits 1 on any difference.  Standard library and numpy only;
the ``analysis`` arguments come from ``perfbench/workloads.py``.

    python3 tools/same_results.py --against REV

The cases:

- ``IndexProfile.to_dict()`` of ``classify`` on ex31, ex32, ex34 and ex35
  with the ``analysis`` workload's arguments, at seeds 0-5;
- on the same arguments at seed 0, what the profile does not hold: the
  pointwise ν, and each frozen report's ν, ranks and per-level ``det``
  arrays, of classify's one ``pointwise_index(p, traj, grid, ball=...)``
  call, and ``structure._final_det`` on that grid at the workload's ν;
- ex32 on [0, 2] with 41 points, ex31 at eps 3 and ex35 at eps 2, each
  at seeds 0-2;
- ``classify`` along ex32's BDF1 solve on [1, 2] at h = 1e-3, and along
  ex34's and ex35's collocation solves at h = 0.025;
- ``analyze`` (text and JSON) and ``classify --format json`` on ex32,
  ex34 and ex35, as printed;
- the index-4 Hessenberg pair's chain report and consistency ``to_dict()``,
  and the values of its levels' A_i, k_i and F_i at 11 times from end to
  end of the domain;
- every level's A_i and k_i on its row's grid in one chain of three
  frozen windows (ex34, t = 1, 1.5, 2) with three samples each;
- the bytes of every file ``reproduce fig1`` ... ``fig5`` writes;
- ``solve_iae`` on ex34 and ex35, one case per c in (0, 0.7, 0.9),
  (0, 0.5, 1), (0.3, 0.8) and (0.5,), each over h = 0.1, 0.05, 0.025,
  ``newton_tol`` = 1e-12, 1e-10, and with and without κ_y: the nodal
  values, every diagnostics entry, and ``residual`` at the collocation
  times;
- the same for a ``LinearIAE`` (the affine path) and for ex34 without
  ``exact`` (the least-squares start and its warning);
- ``solve_dae`` on ex32 over [1, 2] at h = 1e-3 (fig2's run, which fails
  after its halvings) and on ex33 over [0, 1] at h = 1e-2, each with BDF1
  and BDF2: the times, the values and ``to_dict()``;
- problem files: the ``iae-long`` workload's file twin of ex34 solved at
  h = 0.02 with ``newton_tol`` = 1e-10 (nodal values, diagnostics,
  ``residual`` at the collocation times) and ``classify`` along that
  solve; ex32 written as a ``dae`` file without F_y, solved with BDF1 and
  BDF2 over [1, 2] at h = 1e-3 (times, values, ``to_dict()``) and
  classified on 21 points of [1, 2]; a ``linear-dae`` and a
  ``linear-iae`` file through ``analyze``, as text and as JSON;
- a fixed table of expressions compiled by ``compile_expression``, each
  evaluated at floats and on a 17-point array.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def canonical(obj):
    """``obj`` with every float as its hex bits and every array as a list."""
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tolist"):        # a numpy array or scalar
        return canonical(obj.tolist())
    return obj


def cases() -> dict:
    """Case name -> a function of no arguments giving the case's result."""
    import numpy as np

    import daekit
    from daekit.cli import main

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def profile(name, seed, **kwargs):
        return lambda: daekit.classify(daekit.example(name), seed=seed, **kwargs).to_dict()

    def along(name, solve, grid_of=lambda sol: None):
        def run():
            p = daekit.example(name)
            sol = solve(p)
            return daekit.classify(p, traj=sol, grid=grid_of(sol)).to_dict()
        return run

    def printed(*argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            return [code, out.getvalue()]
        return run

    def frozen_dets(name, kwargs, nu):
        # classify's one pointwise_index call at seed 0, made as classify makes it
        def run():
            from daekit import structure
            p = daekit.example(name)
            grid = kwargs.get("grid", np.linspace(*p.interval, 21))
            ts = np.linspace(grid[0], grid[-1], 201)
            traj = (daekit.TrajectorySample(times=ts, values=np.zeros((ts.size, p.r)))
                    if p.exact is None else daekit.TrajectorySample.from_function(p.exact, ts))
            rng = np.random.default_rng(0)
            balls = np.array([[structure._ball_sample(rng, centre, kwargs.get("eps", 0.1))
                               for _ in range(structure.N_PERTURB)] for centre in traj(grid)])
            points = structure.pointwise_index(p, traj, grid, ball=balls)
            reports = [[nu_t, [[rep.nu, [[lev.rank, lev.det] for lev in rep.levels]]
                               for rep in reps]] for nu_t, reps in points]
            return [reports, structure._final_det([reps for _, reps in points], nu, grid)]
        return run

    def hessenberg():
        q = daekit.dae_to_iae(workloads.hessenberg4())
        report = daekit.rank_degree_index(q.A, q.k)
        cons = daekit.consistency_check(report.levels, daekit.rhs_chain(q.f, report.levels))
        return [report.to_dict(), cons.to_dict()]

    def hessenberg_levels():
        # A_i, k_i and F_i at times reaching both ends, so one array call
        # meets central, forward and backward stencils
        q = daekit.dae_to_iae(workloads.hessenberg4())
        report = daekit.rank_degree_index(q.A, q.k)
        times = np.linspace(0.0, 1.0, 11)
        s = times[::-1].copy()
        return [[lev.A(times), lev.k(times, s), F_i(times)]
                for lev, F_i in zip(report.levels, daekit.rhs_chain(q.f, report.levels))]

    def windowed_levels():
        # one chain of three windows with three samples each, as classify
        # builds it: every level's A_i(t, w) and k_i(t, s, w) on row w's grid
        p = daekit.example("ex34")
        times = np.array([1.0, 1.5, 2.0])
        centre = daekit.TrajectorySample.from_function(p.exact, np.linspace(1.0, 2.0, 201))
        eta = centre(times)[:, None] + np.array([[0.0, 0.0], [0.05, -0.05], [-0.1, 0.1]])
        rows = daekit.frozen_index_report(p, eta, times, centre)
        out = []
        for w, reports in enumerate(rows):
            grid, ws = reports[0].grid, np.full(reports[0].grid.size, w)
            longest = max(reports, key=lambda rep: len(rep.levels))
            out.append([[rep.nu for rep in reports],
                        [[lev.A(grid, ws), lev.k(grid, grid[::-1], ws)]
                         for lev in longest.levels]])
        return out

    def figure(fig):
        def run():
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["reproduce", fig, "--out", out])
                files = {path.name: path.read_bytes().hex()
                         for path in sorted(Path(out).iterdir())}
            return [code, files]
        return run

    ex32_bdf1 = lambda p: daekit.solve_dae(  # noqa: E731
        p, daekit.DaeSolveConfig(h=1e-3), interval=(1.0, 2.0))
    collocation = lambda p: daekit.solve_iae(  # noqa: E731
        p, daekit.CollocationConfig(h=0.025, newton_tol=1e-10))[0]

    def iae_runs(make, configs):
        def run():
            out = []
            for kwargs, with_kappa_y in configs:
                p = make()
                if not with_kappa_y:
                    p.kappa_y = None
                sol, diag = daekit.solve_iae(p, daekit.CollocationConfig(**kwargs))
                res = (daekit.residual(p, sol, sol.collocation_times())
                       if sol.n_intervals else None)
                out.append([sol.nodal_values, diag, res])
            return out
        return run

    def without_exact():
        p = daekit.example("ex34")
        p.exact = None
        return p

    def linear_iae():
        # y1 + ∫ y2 = t + 1, ∫ y1 = sin t: index 2, y = (cos t, 1 + sin t)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        return daekit.LinearIAE(
            A=daekit.MatrixFunction.constant(np.diag([1.0, 0.0]), domain=(0.0, 1.0)),
            k=lambda t, s: swap, f=lambda t: np.array([t + 1.0, np.sin(t)]), r=2, T=1.0,
            exact=lambda t: np.array([np.cos(t), 1.0 + np.sin(t)]))

    def dae_run(name, interval, h, order):
        def run():
            sol = daekit.solve_dae(daekit.example(name), daekit.DaeSolveConfig(h=h, order=order),
                                   interval=interval)
            return [sol.times, sol.values, sol.to_dict()]
        return run

    def problem_file(data, run):
        # the file's path is written as <file>, so both trees print the same
        def case():
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "problem.json"
                path.write_text(json.dumps(data))
                return json.loads(json.dumps(canonical(run(str(path)))).replace(
                    json.dumps(str(path))[1:-1], "<file>"))
        return case

    def ex34_file():
        with tempfile.TemporaryDirectory() as tmp:
            p = daekit.load_problem(workloads.ex34_problem_file(Path(tmp) / "ex34.json"))
        sol, diag = daekit.solve_iae(p, daekit.CollocationConfig(h=0.02, newton_tol=1e-10))
        return [sol.nodal_values, diag, daekit.residual(p, sol, sol.collocation_times()),
                daekit.classify(p, traj=sol).to_dict()]

    ex32_file = {
        "kind": "dae", "name": "ex32-file", "t_start": 0.0, "T": 2.0, "A": [[1, 0], [0, 0]],
        "F": ["-y1^2 - exp(y2)", "-y1*y2"], "f": ["-cos(t)^2 - exp(t) - sin(t)", "-t*cos(t)"],
        "y0": [1, 0], "exact": ["cos(t)", "t"], "critical_conditions": ["y1"]}

    def ex32_file_runs(path):
        p = daekit.load_problem(path)
        sols = [daekit.solve_dae(p, daekit.DaeSolveConfig(h=1e-3, order=order),
                                 interval=(1.0, 2.0)) for order in (1, 2)]
        return [[[sol.times, sol.values, sol.to_dict()] for sol in sols],
                daekit.classify(p, grid=np.linspace(1.0, 2.0, 21)).to_dict()]

    def analyzed(path):
        return [printed("analyze", "--problem", path)(),
                printed("analyze", "--problem", path, "--format", "json")()]

    # y1' + y2 = sin t, y1 = t (consistent: PASS); and y1 + ∫ (t - s) y2 ds = 1 + t^2,
    # ∫ e^(s - t) y1 ds = sin t, index 3, whose start data miss a condition (FAIL)
    linear_dae_file = {"kind": "linear-dae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
                       "B": [[0, 1], [1, 0]], "f": ["sin(t)", "t"]}
    linear_iae_file = {"kind": "linear-iae", "t_start": 0.0, "T": 1.0, "A": [[1, 0], [0, 0]],
                       "k": [[0, "t - s"], ["exp(s - t)", 0]], "f": ["1 + t^2", "sin(t)"]}

    def expressions():
        table = [("t", ()), ("-t + +1", ()), (2, ()), (-1.25, ()), (0, ()), (1e-300, ()),
                 ("t^2", ()), ("t^3", ()), ("t^-1", ()), ("2^t", ()), ("2.718281828459045^t", ()),
                 ("(t^2 + 1)^0.5", ()), ("exp(t)^2.5", ()), ("1/(t + 3)", ()),
                 ("sin(t)*exp(t) + t^2 - 1/(t+2)", ()),
                 ("(y1^2 + 2)*y2 + exp(y2) - sin(s)*cos(t)", ("s", "y1", "y2")),
                 ("y1^2*y2/7 - 3*t*s + 0.1", ("s", "y1", "y2"))]
        rng = np.random.default_rng(5)
        points = rng.uniform(0.25, 2.0, size=(4, 17))
        out = []
        for text, extra in table:
            fn = daekit.compile_expression(text, ("t", *extra))
            args = points[:1 + len(extra)]
            out.append([[fn(*map(float, column)) for column in args.T], fn(*args)])
        return out

    out = {}
    out["problem file: iae-long's ex34 twin h=0.02, and classify along it"] = ex34_file
    out["problem file: ex32 dae without F_y, bdf1 and bdf2, and classify"] = problem_file(
        ex32_file, ex32_file_runs)
    out["problem file: analyze linear-dae (text and json)"] = problem_file(linear_dae_file,
                                                                            analyzed)
    out["problem file: analyze linear-iae (text and json)"] = problem_file(linear_iae_file,
                                                                            analyzed)
    out["expressions at floats and on a 17-point array"] = expressions
    grid = [(h, tol, with_kappa_y) for h in (0.1, 0.05, 0.025) for tol in (1e-12, 1e-10)
            for with_kappa_y in (True, False)]
    for name in ("ex34", "ex35"):
        for c in ((0.0, 0.7, 0.9), (0.0, 0.5, 1.0), (0.3, 0.8), (0.5,)):
            out[f"solve_iae {name} c={c}, 12 runs"] = iae_runs(
                lambda name=name: daekit.example(name),
                [(dict(c=c, h=h, newton_tol=tol), kappa_y) for h, tol, kappa_y in grid])
    out["solve_iae LinearIAE h=0.05"] = iae_runs(linear_iae, [(dict(h=0.05), True)])
    out["solve_iae ex34 without exact h=0.05"] = iae_runs(without_exact, [(dict(h=0.05), True)])
    for order in (1, 2):
        out[f"solve_dae ex32 [1, 2] bdf{order} h=1e-3"] = dae_run("ex32", (1.0, 2.0), 1e-3, order)
        out[f"solve_dae ex33 [0, 1] bdf{order} h=1e-2"] = dae_run("ex33", (0.0, 1.0), 1e-2, order)
    for seed in range(6):
        for name, (kwargs, _, _) in workloads.CLASSIFY.items():
            out[f"classify {name} seed {seed}"] = profile(name, seed, **kwargs)
    for name, (kwargs, _, nu) in workloads.CLASSIFY.items():
        out[f"frozen reports and final dets {name} seed 0"] = frozen_dets(name, kwargs, nu)
    for seed in range(3):
        out[f"classify ex32 [0, 2] 41 points seed {seed}"] = profile(
            "ex32", seed, grid=np.linspace(0.0, 2.0, 41))
        out[f"classify ex31 eps 3 seed {seed}"] = profile("ex31", seed, eps=3.0)
        out[f"classify ex35 eps 2 seed {seed}"] = profile("ex35", seed, eps=2.0)
    out["classify ex32 along BDF1 h=1e-3"] = along(
        "ex32", ex32_bdf1, lambda sol: np.linspace(1.0, sol.times[-1], 21))
    out["classify ex34 along collocation h=0.025"] = along("ex34", collocation)
    out["classify ex35 along collocation h=0.025"] = along("ex35", collocation)
    for name in ("ex32", "ex34", "ex35"):
        out[f"analyze {name}"] = printed("analyze", "--problem", name)
        out[f"analyze {name} --format json"] = printed("analyze", "--problem", name,
                                                       "--format", "json")
        out[f"classify {name} --format json"] = printed("classify", "--problem", name,
                                                        "--format", "json")
    out["hessenberg4 report and consistency"] = hessenberg
    out["hessenberg4 levels A, k and F at both ends"] = hessenberg_levels
    out["windowed chain levels, 3 windows x 3 samples"] = windowed_levels
    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        out[f"reproduce {fig}"] = figure(fig)
    return out


def digests() -> dict:
    """Case name -> the digest of its result, in this process's daekit."""
    import daekit
    from daekit.errors import DaekitError
    out = {"daekit imported from": str(Path(daekit.__file__).resolve().parent)}
    for name, run in cases().items():
        try:
            result = canonical(run())
        except DaekitError as exc:  # a refusal is a result too
            result = ["raised", type(exc).__name__, str(exc)]
        text = json.dumps(result, sort_keys=True, separators=(",", ":"))
        out[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def start_child(tree: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--child"],
                            cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(digests()))
        return 0
    if args.against is None:
        parser.error("--against REV is required")
    archive = subprocess.run(["git", "archive", "--format=tar", args.against], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {args.against[:12]: Path(tmp), "worktree": ROOT}
        children = {side: start_child(tree) for side, tree in trees.items()}
        outputs = {side: child.communicate()[0] for side, child in children.items()}
    for side, child in children.items():
        if child.returncode != 0:
            print(f"same_results: the {side} run exited with code {child.returncode}",
                  file=sys.stderr)
            return 1
    got = {side: json.loads(out) for side, out in outputs.items()}
    before, after = got.values()
    for side, tree in trees.items():
        if got[side].pop("daekit imported from") != str((tree / "src" / "daekit").resolve()):
            print(f"same_results: the {side} run did not import its own daekit",
                  file=sys.stderr)
            return 1
    names = [*before, *(name for name in after if name not in before)]
    width = max(map(len, names))
    print(f"{'case':<{width}}  {args.against[:12]:>16}  {'worktree':>16}")
    differ = 0
    for name in names:
        b, a = before.get(name, "-"), after.get(name, "-")
        differ += a != b
        print(f"{name:<{width}}  {b:>16}  {a:>16}  {'same' if a == b else 'DIFFERENT'}")
    print(f"{len(names) - differ} of {len(names)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
