"""The benchmark's own tests: python3 -m pytest perfbench (from the repo root).

They run shrunken workloads (1,000-row datasets, at most one round), check
that every metric BENCHMARK.json names is emitted with its unit, that a
planted bad output is counted as a failure and turns the exit code
nonzero, that a planted cost on some steps lowers windows_per_s while a
slower core alone does not, and that fed2-train reproduces what the CLI
writes.
"""

import run  # first: pins BLAS threads before numpy loads, and puts src/ on sys.path

import json
import math
import time

import numpy as np
import pytest

import spans
import workloads
from pixtime import cli, harness, optim
from pixtime.model import PiXTime

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Make run.main build shrunken workloads and write its record under tmp_path."""
    build = workloads.build
    monkeypatch.setattr(workloads, "build", lambda name, seed: build(name, seed, smoke=True))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, smoke, capsys):
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    result = _last_json(capsys)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert result["attempted"] >= 1
    if name == "mixgran-infer":
        assert code == 0 and result["correct"] and result["failed"] == 0
    # one round on 1,000 rows is too short to beat persistence by the
    # criterion-7 margin, so the quality check may fail there and only there
    assert code == (0 if result["correct"] else 1)


def test_traced_run_counts_the_tape(smoke, capsys):
    run.main(["--workload", "fed2-train", "--seed", "0", "--seconds", "0", "--trace", "1"])
    metrics = _last_json(capsys)["metrics"]
    assert metrics["autodiff.tape_nodes"]["value"] == 269
    assert metrics["autodiff.fwd.matmul.calls"]["value"] == 47
    assert metrics["federation.bytes_up"]["value"] == 2 * 42816 * 8
    assert metrics["autodiff.backward.ms"]["value"] > 0


def test_planted_bad_forecast_is_a_counted_failure(smoke, monkeypatch, capsys):
    u2u = PiXTime.u2u_forward

    def corrupted(self, x):
        out = u2u(self, x)
        out.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(PiXTime, "u2u_forward", corrupted)
    code = run.main(["--workload", "mixgran-infer", "--seed", "0", "--seconds", "0"])
    result = _last_json(capsys)
    assert code != 0
    assert not result["correct"]
    # attempted = batches of all three modes + one no_grad/taped check per mode
    modes = len(workloads.MODES)
    u2u_batches = (result["attempted"] - modes) // modes
    assert result["failed"] == u2u_batches + 1


def test_planted_bad_test_metric_is_a_counted_failure(smoke, monkeypatch, capsys):
    evaluate = harness.evaluate

    def corrupted(node, view=None, eval_batch=256):
        metrics = evaluate(node, view, eval_batch)
        metrics.mse = float("inf")
        return metrics

    monkeypatch.setattr(harness, "evaluate", corrupted)
    code = run.main(["--workload", "fed2-train", "--seed", "0", "--seconds", "0"])
    result = _last_json(capsys)
    assert code != 0
    config, nodes, _, _ = workloads.build("fed2-train", 0).setup()
    size = config.optimizer.batch_size
    batches = sum(-(-len(node.views[split].starts) // size)
                  for node in nodes for split in ("train", "val", "test"))
    # both nodes' test evaluations and every m2u forecast batch
    assert result["failed"] == 2 + batches
    # one round, two evaluations, then every window forecast in three modes
    assert result["attempted"] == 1 + 2 + 3 * batches


def _timings(extra_s: float = 0.0, slow_from: int | None = None) -> run.Timings:
    """200 steps of 10 ms with reference work after each; ``extra_s`` on one step in ten,
    and from step ``slow_from`` on a core 1.5x slower for steps and reference work alike."""
    ops, reference, t = [], [], 0.0
    for k in range(200):
        slow = 1.5 if slow_from is not None and k >= slow_from else 1.0
        seconds = 0.010 * slow + (extra_s if k % 10 == 0 else 0.0)
        ops.append(("step", t, seconds, 32))
        t += seconds
        reference.append((t, run.REFERENCE_S * slow))
        t += run.REFERENCE_S * slow
    return run.Timings(ops, reference)


def test_rate_counts_an_intermittent_cost_in_full():
    base = _timings().rate(("step",))
    assert base == pytest.approx(32 / 0.010)
    # 10 ms more on one step in ten is 10% more work time
    assert _timings(extra_s=0.010).rate(("step",)) == pytest.approx(base / 1.1)


def test_rate_corrects_a_contended_stretch():
    base = _timings().rate(("step",))
    assert _timings(slow_from=80).rate(("step",)) == pytest.approx(base, rel=1e-3)


def test_planted_step_cost_lowers_windows_per_s(smoke, monkeypatch, capsys):
    def rate():
        run.main(["--workload", "fed2-train", "--seed", "0", "--seconds", "0"])
        return _last_json(capsys)["metrics"]["windows_per_s"]["value"]

    base = rate()
    step, calls = optim.Adam.step, []

    def slow_step(self):
        calls.append(None)
        if len(calls) % 10 == 0:
            time.sleep(0.1)  # about ten steps' work
        step(self)

    monkeypatch.setattr(optim.Adam, "step", slow_step)
    assert rate() < 0.8 * base


def test_a_pass_that_differs_from_the_first_is_a_counted_failure():
    first, same, other = (workloads.PassResult(node_mse=[0.1, 0.2]) for _ in range(3))
    other.node_mse = [0.1, 0.3]
    run.check_repeats([first, same, other])
    assert (first.attempted, first.failed) == (0, 0)
    assert (same.attempted, same.failed) == (1, 0)
    assert (other.attempted, other.failed) == (1, 1)


def test_check_helpers_reject_bad_outputs():
    assert workloads.check_forecast(np.zeros((2, 3)), (2, 3)) is None
    assert "shape" in workloads.check_forecast(np.zeros((2, 4)), (2, 3))
    assert "non-finite" in workloads.check_forecast(np.array([[np.inf]]), (1, 1))
    assert workloads.check_quality(0.1, 1.0) is None
    assert "exceeds" in workloads.check_quality(0.8, 1.0)
    assert workloads.check_quality(float("nan"), 1.0) is not None


def test_tracer_uninstall_restores_every_binding():
    from pixtime import autodiff, federation

    before = (autodiff.matmul, federation.mse, federation.backward, PiXTime.forward)
    tracer = spans.Tracer()
    tracer.install()
    assert federation.mse is not before[1]
    tracer.uninstall()
    assert (autodiff.matmul, federation.mse, federation.backward, PiXTime.forward) == before


def test_fed2_train_matches_the_cli(tmp_path):
    """The benchmark's fed2-train pass is the program's train-fed run, number for number."""
    seed = 3
    config = run.ROOT / "configs" / "fed-2node.json"
    assert cli.main(["train-fed", "--config", str(config), "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "metrics.json").read_text())
    res = workloads.build("fed2-train", seed).run_pass(workloads.NullTracer())
    assert res.failed == 0
    assert res.node_mse == [node["mse"] for node in written["nodes"]]
