"""daekit benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analysis --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; daekit is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the metrics
are setup_s, wall_s and peak_rss_mb, with ``--trace 1`` the per-layer
metrics listed in BENCHMARK.json plus trace.overhead_s.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("analysis", "iae-long", "reproduce")
MIN_PASSES = 3          # untraced run
MIN_TRACE_PASSES = 2    # each half of a traced run
# Times are reported at the speed of the machine the benchmark was defined
# on: each is scaled by REFERENCE_S / (reference_s() measured next to it).
# The host is shared and its speed drifts by tens of percent over tens of
# seconds; the ratio to the reference cancels that drift (see README.md).
REFERENCE_ITERS = 4000
REFERENCE_S = 0.1


def layer_metrics() -> list:
    """Per-layer metric declarations, in the order of BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise SystemExit(f"perfbench: {spec} not found")
    return json.loads(spec.read_text())["per_layer"]


def bootstrap():
    """Pin every BLAS/OpenMP pool to one thread and import daekit from ./src.

    Must run before numpy is imported.  Refuses a daekit found anywhere else,
    so the benchmark never measures an installed copy by accident.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "daekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no daekit sources under {src}")
    sys.path.insert(0, str(src))
    import daekit
    if Path(daekit.__file__).resolve().parent != (src / "daekit").resolve():
        raise SystemExit(f"perfbench: imported daekit from {daekit.__file__}, not {src}")


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def reference_s() -> float:
    """Seconds taken by a fixed computation that runs no daekit code.

    Small SVDs, solves and scalar Python arithmetic: the mix of daekit's hot
    loops, so the host's momentary speed affects both alike.
    """
    import numpy as np

    m = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_ITERS):
        a = m + i * 1e-9
        u, sv, vh = np.linalg.svd(a)
        x = np.linalg.solve(a, sv)
        acc += float(x @ x) + sum(v * v for v in (1.0, 2.0, float(i)))
    return time.perf_counter() - t0


def probe_setup(workload: str, seed: int, work_dir: Path) -> float:
    """Seconds from the start of a fresh interpreter until it is ready for a pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only", str(Path(tempfile.mkdtemp(dir=work_dir)))]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit code {rc})")
    return dt


@dataclass
class Passes:
    walls: list = field(default_factory=list)     # seconds per pass, as measured
    before: list = field(default_factory=list)    # reference_s() just before each pass
    after: list = field(default_factory=list)     # reference_s() just after each pass
    outcomes: list = field(default_factory=list)  # task outcomes per pass
    stats: list = field(default_factory=list)     # per-layer metrics per traced pass

    def calibrated(self) -> list:
        """Pass times scaled to the reference speed around each pass."""
        return [w * REFERENCE_S * 2 / (b + a)
                for w, b, a in zip(self.walls, self.before, self.after)]


def run_passes(wl, budget: float, min_passes: int, work_dir: Path, tracer=None,
               before_pass=None) -> Passes:
    """Repeat whole passes until the next one would overrun ``budget`` seconds.

    ``before_pass`` runs untimed ahead of every pass; a reference computation
    follows it and another one follows the pass, so all of them sample the
    same stretch of time as the passes.
    """
    out = Passes()
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        pass_dir = Path(tempfile.mkdtemp(dir=work_dir, prefix="pass"))
        gc.collect()
        out.before.append(reference_s())
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        result = wl.run_pass(pass_dir)
        out.walls.append(time.perf_counter() - t0)
        out.after.append(reference_s())
        shutil.rmtree(pass_dir)
        out.outcomes.append(result)
        if tracer is not None:
            out.stats.append(tracer.snapshot())
        n = len(out.walls)
        if n >= min_passes and (time.perf_counter() - start) * (1 + 1 / n) > budget:
            return out


def check_outcomes(passes: list):
    """(task runs attempted, failures); a task also fails if its record differs from pass 1."""
    first = {o.task: o.record for o in passes[0]}
    attempted, failures = 0, []
    for i, outcomes in enumerate(passes, 1):
        for o in outcomes:
            attempted += 1
            if not o.ok:
                failures.append(f"pass {i} task {o.task}: CHECK FAILED {o.note or o.record}")
            elif o.record != first[o.task]:
                failures.append(f"pass {i} task {o.task}: DIFFERS FROM PASS 1 {o.record}")
    return attempted, failures


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](work_dir, seed)
    wl.setup()
    med = statistics.median
    if not trace:
        setups = []
        run = run_passes(wl, seconds, MIN_PASSES, work_dir,
                         before_pass=lambda: setups.append(probe_setup(workload, seed, work_dir)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {"setup_s": [t * REFERENCE_S / r for t, r in zip(setups, run.before)],
                   "wall_s": run.calibrated(),
                   "setup_s as measured": setups, "wall_s as measured": run.walls,
                   "reference": run.before + run.after}
        metrics = {"setup_s": (med(samples["setup_s"]), "s"),
                   "wall_s": (med(samples["wall_s"]), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        outcomes, shares = run.outcomes, {}
    else:
        from tracer import Tracer, metric_names

        declared = layer_metrics()
        unknown = {m["name"] for m in declared} - metric_names() - {"trace.overhead_s"}
        if unknown:
            raise RuntimeError(f"no span or count produces {', '.join(sorted(unknown))}")
        plain = run_passes(wl, seconds / 2, MIN_TRACE_PASSES, work_dir)
        with Tracer() as tracer:
            traced = run_passes(wl, seconds / 2, MIN_TRACE_PASSES, work_dir, tracer)
        silent = [span for span in wl.exercises if traced.stats[0].get(span + ".calls", 0) == 0]
        if silent:
            raise RuntimeError(f"layers made no calls on {workload}: {', '.join(silent)}; "
                               "a traced function was renamed or bypassed")
        metrics = {}
        for m in declared:
            if m["name"] == "trace.overhead_s":
                value = med(traced.calibrated()) - med(plain.calibrated())
            else:
                value = med(s.get(m["name"], 0) for s in traced.stats)
            metrics[m["name"]] = (value, m["unit"])
        samples = {"wall_s": plain.calibrated(), "traced wall_s": traced.calibrated(),
                   "wall_s as measured": plain.walls,
                   "traced wall_s as measured": traced.walls}
        outcomes = plain.outcomes + traced.outcomes
        shares = layer_shares(traced.stats, med(traced.walls))

    attempted, failures = check_outcomes(outcomes)
    return {"workload": workload, "seed": seed, "tasks": len(wl.tasks), "passes": outcomes,
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "samples": samples, "shares": shares}


def layer_shares(stats: list, traced_wall: float) -> dict:
    """Median self time per layer (first part of the span name) over traced passes."""
    spans = {k[:-len(".self_s")] for s in stats for k in s if k.endswith(".self_s")}
    shares = {}
    for span in spans:
        layer = span.split(".")[0]
        value = statistics.median(s.get(span + ".self_s", 0.0) for s in stats)
        shares[layer] = shares.get(layer, 0.0) + value
    shares["(untraced code)"] = traced_wall - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def report(res: dict):
    print(f"workload {res['workload']} (seed {res['seed']}): {res['tasks']} tasks x "
          f"{len(res['passes'])} passes")
    spread = {}
    for key, xs in res["samples"].items():
        q1, q3 = _quartiles(xs)
        spread[key] = f"median of {len(xs)}; q1 {q1:.4f}, q3 {q3:.4f}"
    print(f"  {'fail_ratio':<40} {res['failed'] / res['attempted']:.4g} 1  "
          f"({res['failed']} of {res['attempted']} task runs failed)")
    for name, (value, unit) in res["metrics"].items():
        extra = f"  ({spread.pop(name)})" if name in spread else ""
        print(f"  {name:<40} {value:.6g} {unit}{extra}")
    for key, text in spread.items():
        print(f"  {key:<40} {statistics.median(res['samples'][key]):.6g} s  ({text})")
    if res["shares"]:
        total = statistics.median(res["samples"]["traced wall_s as measured"])
        print("  self time by layer, share of the median traced pass as measured:")
        for layer, sec in res["shares"].items():
            print(f"    {layer:<16} {sec:8.4f} s  {100 * sec / total:5.1f}%")
    for o in res["passes"][0]:
        print(f"  pass 1 task {o.task}: {'ok' if o.ok else 'CHECK FAILED'} {o.note or o.record}")
    for line in res["failures"]:
        print(f"  {line}")


def run_all(args) -> int:
    """Run each workload in its own process (peak memory stays per workload)."""
    rows, code = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}")
            code = 1
            continue
        res = json.loads(lines[-1])
        code |= int(not res["correct"])
        rows.append((name, res))
    print("\nsummary")
    for name, res in rows:
        parts = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        ratio = res["failed"] / res["attempted"]
        print(f"  {name:<10} fail_ratio {ratio:.4g} 1 | " + " | ".join(parts))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    bootstrap()
    if args.setup_only:
        from workloads import WORKLOADS

        work_dir = Path(args.setup_only)
        WORKLOADS[args.workload](work_dir, args.seed).setup()
        print("ready", flush=True)
        return 0

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch.rmdir()
    report(res)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
