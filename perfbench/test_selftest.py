"""Self-test of the benchmark: tracing must not change what daekit computes.

    python3 -m pytest perfbench -q

Takes about half a minute: one untraced and one traced pass per workload.
"""

import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import daekit  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _records(wl, pass_dir):
    return [(o.task, o.ok, o.record) for o in wl.run_pass(pass_dir)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_passes_give_identical_outcomes(name, tmp_path):
    wl = WORKLOADS[name](tmp_path, 0)
    wl.setup()
    plain = _records(wl, tmp_path / "plain")
    with tracer.Tracer() as tr:
        traced = _records(wl, tmp_path / "traced")
        calls = tr.snapshot()
    # verdicts, ν, errors and artifact hashes all live in the records
    assert traced == plain
    assert all(ok for _, ok, _ in plain)
    assert all(calls.get(span + ".calls", 0) > 0 for span in wl.exercises)


def test_two_seeds_give_the_same_analysis_verdicts(tmp_path):
    verdicts = []
    for seed in (0, 7):
        wl = WORKLOADS["analysis"](tmp_path, seed)
        verdicts.append(_records(wl, tmp_path))
    assert verdicts[0] == verdicts[1]


def test_tracer_restores_every_namespace():
    original = daekit.linalg.semi_inverse
    call = daekit.MatrixFunction.__call__
    with tracer.Tracer():
        assert daekit.chain.semi_inverse is not original
        assert daekit.semi_inverse is daekit.chain.semi_inverse
    assert daekit.chain.semi_inverse is original
    assert daekit.semi_inverse is original
    assert daekit.MatrixFunction.__call__ is call


def test_a_stale_wrap_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.FUNCTIONS, "linalg.gone", ("daekit.linalg", "no_such_fn"))
    with pytest.raises(tracer.TraceTargetError):
        with tracer.Tracer():
            pass
    assert daekit.chain.semi_inverse is daekit.linalg.semi_inverse


def test_a_silent_layer_fails_loudly(monkeypatch, tmp_path):
    class Idle:
        tasks = ["nothing"]
        exercises = ("linalg.semi_inverse",)

        def __init__(self, work_dir, seed):
            pass

        def setup(self):
            pass

        def run_pass(self, pass_dir):
            return []

    monkeypatch.setitem(WORKLOADS, "analysis", Idle)
    with pytest.raises(RuntimeError, match="linalg.semi_inverse"):
        run.measure("analysis", 0, 0.0, True, tmp_path)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "analysis",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_declared_per_layer_metric_has_a_source():
    declared = {m["name"] for m in run.layer_metrics()}
    assert declared - tracer.metric_names() == {"trace.overhead_s"}
