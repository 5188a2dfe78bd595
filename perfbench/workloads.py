"""The benchmark's three workloads.

Each workload is a closed loop with one client and one thread: the next
federated round or forecast batch starts only when the previous one has
finished. A pass runs the whole workload once from a fresh setup; run.py
repeats passes for the run's time budget. The seed fixes every input:
the synthetic dataset, the model initialisation and the batch order.

Why these three (see README.md for the metric map):

- fed2-train: configs/fed-2node.json as committed, the run the ROADMAP
  names. Almost all of its time is per-step tape work at C=7.
- fed8-subset-train: 8 same-shaped clients holding 3 auxiliaries each, so
  the masked variable-embedding average in aggregate does real work and a
  node-batching or flat-parameter change shows first.
- mixgran-infer: forward-only forecasting in the m2u, m2m and u2u modes on
  a fine and a coarse node at batch 256. It builds no tape and runs no
  backward, optimizer or federation, so a training optimisation should
  leave it unchanged, and one that slows forward shows here.
"""

import copy
import dataclasses
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pixtime import autodiff, data, federation, harness, optim
from pixtime.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
FED2_CONFIG = ROOT / "configs" / "fed-2node.json"
QUALITY_BOUND = 0.7  # acceptance criterion 7: test MSE / persistence MSE
EVAL_BATCH = 256  # the batch harness.evaluate uses
# the taped forward of the no_grad check keeps every intermediate; at the
# training batch its memory stays below the forward-only workload's own peak
CHECK_BATCH = 32
REFERENCE_INTERVAL_S = 0.1  # least time between two timings of reference_work
MODES = ("m2u", "m2m", "u2u")

_MODEL = {"D": 32, "L": 2, "H": 4, "d_ff": 64}
FED8_CONFIG = {
    "dataset": {"synthetic": {"n_vars": 8, "length": 4000}},
    **_MODEL,
    "network": {"n_nodes": 8, "strides": [1] * 8, "T": 96, "S": 24, "PL": 16,
                "subset_size": 3},
    "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1},
    "rounds": 10,
}
MIXGRAN_CONFIG = {
    "dataset": {"synthetic": {"n_vars": 8, "length": 4000}},
    **_MODEL,
    "network": {"n_nodes": 2, "strides": [1, 4], "T": 96, "S": 24, "PL": 16},
    "rounds": 0,
}


@dataclass
class PassResult:
    """What one pass did, how long it took, and which outputs failed a check."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    windows: int = 0
    # timed operations as (kind, start, seconds, windows): the pass's setup,
    # a training step, a gap between two steps (the rest of the training
    # phase), or a forecast of one mode
    ops: list = field(default_factory=list)
    timing: bool = False  # time reference_work between operations
    reference: list = field(default_factory=list)  # (start, seconds) of reference_work
    reference_wall_s: float = 0.0  # pass time spent on reference work, timing included
    round_s: list = field(default_factory=list)
    node_mse: list = field(default_factory=list)
    forecast_mse: float = float("nan")
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # normalisers for the per-layer metrics
    steps: int = 0
    batches: int = 0
    node_rounds: int = 0
    eval_windows: int = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def tick(self) -> float:
        """Time reference_work if it is on and due; returns the wall time spent on it."""
        if not self.timing or (
            self.reference and time.perf_counter() - self.reference[-1][0] < REFERENCE_INTERVAL_S
        ):
            return 0.0
        r0 = time.perf_counter()
        self.reference.append(reference_work())
        spent = time.perf_counter() - r0
        self.reference_wall_s += spent
        return spent


_REF_A = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_REF_B = np.linspace(-1.0, 1.0, 32 * 7 * 32).reshape(32, 7, 32)
_REF_X = np.linspace(-1.0, 1.0, 32 * 96 * 32).reshape(32, 96, 32)  # batch x T x D


def reference_work() -> tuple:
    """Time a fixed piece of work that shares no code with pixtime; returns (start, seconds).

    Two parts, timed apart: small cache-resident matmuls, elementwise math
    and a Python loop, and one pass over an array the size of a training
    step's activations. Contention for the core slows the first, and
    contention for caches and memory the second; a step or a forecast is
    a mix of both, so the figure returned is the geometric mean of the two
    times (≈0.7 ms uncontended). The first round of the small work is not
    timed, so the caches a large forecast batch evicted are warm again.
    """
    for rnd in range(13):
        if rnd == 1:
            t = time.perf_counter()
        c = _REF_B @ _REF_A
        c = np.swapaxes(c + 1.0, 1, 2).copy()
        float(np.exp(-c * c).sum())
        sum(i * i for i in range(40))
    small = time.perf_counter() - t
    h = np.tanh(_REF_X @ _REF_A)
    float((np.swapaxes(h, 1, 2).copy() ** 2).sum())
    large = time.perf_counter() - t - small
    return t, (small * large) ** 0.5


class StepClock:
    """Times each training step, from its batch gather to the end of its optimizer step.

    It swaps two attributes for the length of a training phase and costs
    one clock read and one list append per call, about a microsecond
    against a step of about ten milliseconds. After each step it lets the
    pass time ``reference_work`` if that is due, and records how long that
    took, so the gap after the step can exclude it.
    """

    def __init__(self, res: PassResult):
        self.res = res

    def __enter__(self):
        self.starts, self.ends, self.sizes = [], [], []
        self.reference_wall = {}  # step index -> seconds spent on reference work after it
        self._gather, self._step = federation.gather_batch, optim.Adam.step
        gather, step = self._gather, self._step
        starts, ends, sizes, clock = self.starts, self.ends, self.sizes, time.perf_counter

        def timed_gather(view, batch):
            sizes.append(len(batch))
            starts.append(clock())
            return gather(view, batch)

        def timed_step(optimizer):
            step(optimizer)
            ends.append(clock())
            spent = self.res.tick()
            if spent:
                self.reference_wall[len(ends) - 1] = spent

        federation.gather_batch, optim.Adam.step = timed_gather, timed_step
        return self

    def __exit__(self, *exc):
        federation.gather_batch, optim.Adam.step = self._gather, self._step
        return False


class NullTracer:
    """Stands in for spans.Tracer in untraced passes."""

    def set_phase(self, phase: str) -> None:
        pass


def _error_text() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def _setup(raw: dict) -> tuple:
    config = ExperimentConfig.from_dict(copy.deepcopy(raw))
    nodes, global_shared = harness._prepare(config, config.seed)
    return config, nodes, global_shared


class TrainWorkload:
    """Federated training for the config's rounds, then test evaluation and forecasts."""

    work_ops = ("step", "gap")

    def __init__(self, raw: dict):
        self.raw = raw

    def setup(self) -> tuple:
        config, nodes, global_shared = _setup(self.raw)
        server = federation.make_server_optimizer(
            config.optimizer.server_kind, config.optimizer.server_lr
        )
        return config, nodes, global_shared, server

    def run_pass(self, tracer) -> PassResult:
        """One pass; reference work is timed only when ``tracer`` is a NullTracer."""
        res = PassResult(timing=isinstance(tracer, NullTracer))
        t0 = time.perf_counter()
        tracer.set_phase("setup")
        config, nodes, global_shared, server = self.setup()
        t1 = time.perf_counter()
        res.setup_s = t1 - t0
        res.ops.append(("setup", t0, res.setup_s, 0))

        tracer.set_phase("train")
        epochs = config.optimizer.epochs
        res.attempted += config.rounds
        with StepClock(res) as clock:
            try:
                records, _ = federation.run_federation(
                    nodes, global_shared, config.rounds, epochs, server
                )
            except Exception:
                res.fail(config.rounds, f"federation raised: {_error_text()}")
                records = []
        t2 = time.perf_counter()
        for rec in records:
            problem = check_round(rec)
            if problem:
                res.fail(1, f"round {rec.round_index}: {problem}")
        res.node_rounds = len(records) * len(nodes)
        res.round_s = [rec.duration_s for rec in records]
        res.steps = sum(node.steps_taken for node in nodes)
        res.windows = sum(len(node.train_view.starts) for node in nodes) * epochs * len(records)
        if records:
            res.ops += _training_ops(clock, t1, t2)

        tracer.set_phase("eval")
        self._evaluate(res, nodes)
        # at the training batch, so the forecasts do not set the peak memory
        forecast_all(res, nodes, config.optimizer.batch_size)
        return res

    def _evaluate(self, res: PassResult, nodes: list) -> None:
        """Test evaluation of every node, checked against criterion 7."""
        res.attempted += len(nodes)
        baseline = []
        for node in nodes:
            view = node.views["test"]
            try:
                res.node_mse.append(harness.evaluate(node).mse)
                baseline.append(harness.persistence_baseline(view).mse)
            except Exception:
                res.fail(1, f"node {node.node_id} evaluation raised: {_error_text()}")
            res.eval_windows += len(view.starts)
        if len(res.node_mse) == len(nodes):
            res.forecast_mse = float(np.mean(res.node_mse))
            problem = check_quality(res.forecast_mse, float(np.mean(baseline)))
            if problem:
                res.fail(len(nodes), problem)


def _training_ops(clock: StepClock, begin: float, end: float) -> list:
    """The training phase from ``begin`` to ``end``, cut into steps and the gaps between them.

    A gap holds everything outside the steps (broadcasts, aggregation,
    server step, digests, loop overhead) except the reference work timed
    there, so the operations add up to the whole training time.
    """
    ops, prev = [], begin
    for k, (start, stop, n) in enumerate(zip(clock.starts, clock.ends, clock.sizes)):
        ops.append(("gap", prev, start - prev, 0))
        ops.append(("step", start, stop - start, n))
        prev = stop + clock.reference_wall.get(k, 0.0)
    ops.append(("gap", prev, end - prev, 0))
    return ops


def check_round(rec) -> str | None:
    """Every node's loss and every update norm is finite; all nodes agree on the shared state."""
    if not all(math.isfinite(v) for v in rec.node_losses.values()):
        return f"non-finite node loss {rec.node_losses}"
    if not all(math.isfinite(v) for v in rec.update_norms.values()):
        return "non-finite update norm"
    if len(set(rec.node_shared_digests.values())) != 1:
        return f"nodes disagree on the shared state {rec.node_shared_digests}"
    return None


def check_quality(forecast_mse: float, baseline_mse: float) -> str | None:
    """Criterion 7: trained test MSE is finite and at most 0.7 of persistence."""
    if not math.isfinite(forecast_mse):
        return f"test MSE is {forecast_mse}"
    ratio = forecast_mse / baseline_mse
    if not ratio <= QUALITY_BOUND:
        return f"test MSE / persistence MSE = {ratio:.3f} exceeds {QUALITY_BOUND}"
    return None


def check_forecast(pred: np.ndarray, shape: tuple) -> str | None:
    """A forecast batch has the expected shape and only finite values."""
    if pred.shape != shape:
        return f"forecast shape {pred.shape}, expected {shape}"
    if not np.all(np.isfinite(pred)):
        return "non-finite forecast values"
    return None


def check_metrics(metrics, S: int) -> str | None:
    """An m2u batch scored by harness.evaluate has a finite MSE over S horizon steps."""
    if len(metrics.per_step_mse) != S:
        return f"{len(metrics.per_step_mse)} horizon steps scored, expected {S}"
    if not math.isfinite(metrics.mse):
        return f"evaluate returned mse={metrics.mse}"
    return None


def _m2m_inputs(view, starts) -> tuple:
    """All variables as one (B, T, n_var) series block and its (B, n_var, S) truth."""
    cfg = view.cfg
    x, Z, _ = data.gather_batch(view, starts)
    series = np.concatenate([x[:, :, None], Z], axis=-1)
    ids = [cfg.target_id] + list(cfg.var_ids)
    out_rows = np.asarray(starts)[:, None] + cfg.T + np.arange(cfg.S)
    truth = view.series[out_rows][:, :, ids].transpose(0, 2, 1)
    return series, ids, truth


def forecast(mode: str, node, view, starts) -> tuple:
    """Forecast one batch in one mode; returns (forecast or None, truth or None, metrics)."""
    if mode == "m2u":
        # harness.evaluate over a one-batch view forecasts exactly these windows
        return None, None, harness.evaluate(node, dataclasses.replace(view, starts=starts))
    if mode == "m2m":
        series, ids, truth = _m2m_inputs(view, starts)
        return node.model.m2m_forward(series, var_ids=ids).data, truth, None
    x, _, y = data.gather_batch(view, starts)
    return node.model.u2u_forward(x).data, y, None


def expected_shape(mode: str, node, n: int) -> tuple:
    cfg = node.cfg
    return (n, cfg.C + 1, cfg.S) if mode == "m2m" else (n, cfg.S)


def forecast_batch(res: PassResult, mode: str, node, view, lo: int, batch: int):
    """Forecast, time and check one batch; returns (squared error, elements) if it passed."""
    starts = view.starts[lo : lo + batch]
    n = len(starts)
    where = f"{mode} node {node.node_id} {view.split}@{lo}"
    res.attempted += 1
    t = time.perf_counter()
    try:
        pred, truth, metrics = forecast(mode, node, view, starts)
    except Exception:
        res.fail(1, f"{where}: {_error_text()}")
        return None
    dt = time.perf_counter() - t
    res.ops.append((mode, t, dt, n))
    res.batches += 1
    res.tick()
    if metrics is not None:
        res.eval_windows += n
        problem = check_metrics(metrics, node.cfg.S)
        elements = n * node.cfg.S
        scored = (metrics.mse * elements, elements)
    else:
        problem = check_forecast(pred, expected_shape(mode, node, n))
        scored = (float(((pred - truth) ** 2).sum()), pred.size)
    if problem:
        res.fail(1, f"{where}: {problem}")
        return None
    return scored


def forecast_all(res: PassResult, nodes: list, batch: int) -> dict:
    """Forecast every window of every node's splits in every mode under no_grad.

    Returns the pooled forecast MSE of each (mode, node id).
    """
    pooled = {}
    with autodiff.no_grad():
        for mode in MODES:
            for node in nodes:
                sq_sum, count = 0.0, 0
                for split in ("train", "val", "test"):
                    view = node.views[split]
                    for lo in range(0, len(view.starts), batch):
                        scored = forecast_batch(res, mode, node, view, lo, batch)
                        if scored is not None:
                            sq_sum += scored[0]
                            count += scored[1]
                pooled[(mode, node.node_id)] = sq_sum / count if count else float("nan")
    return pooled


class InferWorkload:
    """Forward-only forecasts of every window in the m2u, m2m and u2u modes."""

    work_ops = MODES

    def __init__(self, raw: dict):
        self.raw = raw

    def setup(self) -> tuple:
        return _setup(self.raw)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult(timing=isinstance(tracer, NullTracer))
        t0 = time.perf_counter()
        tracer.set_phase("setup")
        _, nodes, _ = self.setup()
        res.setup_s = time.perf_counter() - t0
        res.ops.append(("setup", t0, res.setup_s, 0))

        tracer.set_phase("infer")
        pooled = forecast_all(res, nodes, EVAL_BATCH)
        res.windows = sum(n for kind, _, _, n in res.ops if kind in MODES)
        res.node_mse = [pooled[k] for k in sorted(pooled)]
        res.forecast_mse = float(np.mean(res.node_mse))

        tracer.set_phase("check")
        self._check_taped_equals_no_grad(nodes[0], res)
        return res

    def _check_taped_equals_no_grad(self, node, res: PassResult) -> None:
        """One batch per mode: the no_grad forecast equals the taped forward bit for bit."""
        view = node.views["test"]
        starts = view.starts[:CHECK_BATCH]
        x, Z, _ = data.gather_batch(view, starts)
        series, ids, _ = _m2m_inputs(view, starts)
        calls = {
            "m2u": lambda: node.model.forward(x, Z),
            "m2m": lambda: node.model.m2m_forward(series, var_ids=ids),
            "u2u": lambda: node.model.u2u_forward(x),
        }
        for mode, call in calls.items():
            res.attempted += 1
            try:
                with autodiff.no_grad():
                    plain = call()
                taped = call()
            except Exception:
                res.fail(1, f"{mode} taped/no_grad check raised: {_error_text()}")
                continue
            if plain.requires_grad or not taped.requires_grad:
                res.fail(1, f"{mode}: no_grad did not switch the tape off")
            elif not np.array_equal(plain.data, taped.data):
                res.fail(1, f"{mode}: no_grad forecast differs from the taped forward")


def build(name: str, seed: int, smoke: bool = False):
    """The named workload for ``seed``; ``smoke`` shrinks it for the benchmark's own tests."""
    if name == "fed2-train":
        with open(FED2_CONFIG) as fh:
            raw = json.load(fh)
    elif name == "fed8-subset-train":
        raw = copy.deepcopy(FED8_CONFIG)
    elif name == "mixgran-infer":
        raw = copy.deepcopy(MIXGRAN_CONFIG)
    else:
        raise KeyError(name)
    raw.update(mode="federated", seed=seed, out_dir="unused")
    raw["dataset"]["synthetic"].pop("seed", None)  # the dataset follows the run seed
    if smoke:
        raw["dataset"]["synthetic"]["length"] = 1000
        raw["rounds"] = min(raw["rounds"], 1)
    if name == "mixgran-infer":
        return InferWorkload(raw)
    return TrainWorkload(raw)


WORKLOADS = ("fed2-train", "fed8-subset-train", "mixgran-infer")
