"""Run the benchmark in alternating pairs from two checkouts and compare them.

Each pair runs ``perfbench/run.py --trace 0`` once in the parent checkout
and once in the change's, one after the other, and the first side swaps
from pair to pair, so drift in the host's speed falls on both sides alike.
For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, and how many pairs the change won (ties count for
neither side).  A claimed gain needs the change to win at least nine
pairs in ten, and the medians to differ by more than the distance
between the parent's quartiles.  The last line of output is one JSON
object with the same figures per metric (each side's runs, q1, median
and q3, the pairs the change won, whether the gain holds), the form of
a committed ``BENCH_*.json`` file.  Standard library only.

    python3 tools/paired_bench.py --parent ../parent --change . \\
        --workload reproduce --pairs 10 --seconds 36 --seed 7
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``--trace 0`` run in ``checkout``: its last output line, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"paired_bench: {' '.join(cmd)} in {checkout} "
                         f"exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(xs: list) -> tuple:
    """(q1, median, q3) of xs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, args.seconds, args.seed)
            runs[side].append(res)
            values = ", ".join(f"{m['name']} {res['metrics'][m['name']]['value']:.4g}"
                               for m in spec)
            print(f"pair {pair + 1:2d} {side:<6} correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}: {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}")
    summary: dict = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
                     "seed": args.seed, "metrics": {}}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
        (p1, pm, p3), (c1, cm, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        gain = (pm - cm) if lower else (cm - pm)
        claim = wins >= 0.9 * args.pairs and gain > p3 - p1
        print(f"  {name:<12} parent {pm:.4g} (q1 {p1:.4g}, q3 {p3:.4g})  "
              f"change {cm:.4g} (q1 {c1:.4g}, q3 {c3:.4g})  {m['unit']}  "
              f"change/parent {cm / pm:.3f}  change won {wins}/{args.pairs}  "
              f"{'gain holds' if claim else 'no gain shown'}")
        summary["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "won": wins, "gain_holds": claim,
            **{side: {"q1": q1, "median": q2, "q3": q3, "runs": vals[side]}
               for side, (q1, q2, q3) in (("parent", (p1, pm, p3)), ("change", (c1, cm, c3)))}}
    failed = [side for side in runs if not all(r["correct"] for r in runs[side])]
    if failed:
        print(f"  outcome checks failed on: {', '.join(failed)}")
    summary["outcome_checks_failed_on"] = failed
    print(json.dumps(summary))
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
