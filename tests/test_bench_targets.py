"""The benchmark's pinned names: a rename or move of a function that
perfbench traces fails here, not first when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    # registered first: a dataclass looks its module up while it is built
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_every_traced_function_resolves(span):
    assert callable(tracer._resolve(*tracer.FUNCTIONS[span])[2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_exercised_name_is_a_span_the_tracer_makes(name):
    spans = {m.removesuffix(".calls") for m in tracer.metric_names() if m.endswith(".calls")}
    assert set(workloads.WORKLOADS[name].exercises) <= spans
