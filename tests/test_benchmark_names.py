"""The benchmark still finds every pixtime name it reaches.

`perfbench/spans.py` looks up functions and methods of the pixtime
modules by name when `--trace 1` installs it, and `perfbench/workloads.py`
calls `harness._prepare`, `run_federation` and `evaluate` and swaps
`federation.gather_batch` while it times steps. The benchmark's own tests
are not part of this suite, so deleting, renaming or reshaping one of
those names would otherwise pass here and break only the benchmark run.
The tracer and the benchmark's tests rebind `harness.evaluate` and
`harness.persistence_baseline`, so the harness must reach them through
the module.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from pixtime import autodiff, federation, harness

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


def _small_config(tmp_path, mode):
    return harness.ExperimentConfig.from_dict({
        "mode": mode, "dataset": {"synthetic": {"n_vars": 3, "length": 1000}},
        "D": 4, "L": 1, "H": 1, "d_ff": 4,
        "network": {"n_nodes": 2, "strides": [1, 2], "T": 8, "S": 4, "PL": 4},
        "optimizer": {"epochs": 1}, "rounds": 1, "out_dir": str(tmp_path / "out"),
    })


def test_evaluate_takes_node_view_and_eval_batch_in_that_order(tmp_path):
    # the benchmark's tests stand in for it with `(node, view=None, eval_batch=256)`
    # and call it positionally
    assert list(inspect.signature(harness.evaluate).parameters) == ["node", "view", "eval_batch"]
    nodes, _ = harness._prepare(_small_config(tmp_path, "evaluate"), 0)
    view = nodes[1].views["test"]
    assert harness.evaluate(nodes[1], view, 5) == harness.evaluate(nodes[1], view, eval_batch=5)


@pytest.mark.parametrize("mode", ["evaluate", "federated"])
def test_run_experiment_scores_every_node_through_the_rebindable_names(tmp_path, monkeypatch,
                                                                       mode):
    calls = {"evaluate": [], "persistence_baseline": []}
    evaluate, persistence_baseline = harness.evaluate, harness.persistence_baseline

    def counted_evaluate(node, view=None, eval_batch=256):
        calls["evaluate"].append(node.node_id)
        return evaluate(node, view, eval_batch)

    def counted_persistence_baseline(view):
        calls["persistence_baseline"].append(view.cfg.node_id)
        return persistence_baseline(view)

    monkeypatch.setattr(harness, "evaluate", counted_evaluate)
    monkeypatch.setattr(harness, "persistence_baseline", counted_persistence_baseline)
    harness.run_experiment(_small_config(tmp_path, mode))
    assert calls == {"evaluate": [0, 1], "persistence_baseline": [0, 1]}
