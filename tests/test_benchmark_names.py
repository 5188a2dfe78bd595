"""The benchmark still finds every pixtime name it reaches.

`perfbench/spans.py` looks up functions and methods of the pixtime
modules by name when `--trace 1` installs it, and `perfbench/workloads.py`
calls `harness._prepare`, `run_federation` and `evaluate` and swaps
`federation.gather_batch` while it times steps. The benchmark's own tests
are not part of this suite, so deleting, renaming or reshaping one of
those names would otherwise pass here and break only the benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from pixtime import autodiff, federation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


def test_benchmark_tracer_installs_and_uninstalls():
    spans = _load("spans")
    module_names = dict(vars(autodiff))
    node_names = dict(vars(federation.FederatedNode))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert autodiff.sub is not module_names["sub"]
    finally:
        tracer.uninstall()
    assert dict(vars(autodiff)) == module_names
    assert dict(vars(federation.FederatedNode)) == node_names


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_benchmark_workload_smoke_pass(name):
    workload = workloads.build(name, 1, smoke=True)
    res = workload.run_pass(workloads.NullTracer())
    # one round on 1,000 rows is too short to meet criterion 7's quality
    # bound, so its check is the only one that may fail here
    assert all(message.startswith("test MSE") for message in res.failures), res.failures
    if isinstance(workload, workloads.TrainWorkload):
        assert res.steps > 0
        assert sum(kind == "step" for kind, *_ in res.ops) == res.steps
