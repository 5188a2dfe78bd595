"""Experiment orchestration: configs, metrics, training modes, ablations.

A run is described by a declarative ExperimentConfig (usually a JSON
file), validated before any model is built. Every run writes exactly
three artifacts into its output directory: a config echo, a metrics JSON
(byte-identical across replays of the same config and seed), and a round
log CSV (which carries the only wall-clock fields).
"""

import json
import sys
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .autodiff import mse, no_grad
from .data import (
    SYNTHETIC_MINIMA,
    NodeDataView,
    RawDataset,
    SplitSpec,
    assign_variable_subsets,
    build_node_views,
    gather_batch,
    generate_synthetic,
    load_csv,
    standardize,
)
from .errors import ConfigError, EvaluationError
from .federation import (
    FederatedNode,
    init_global_shared,
    make_server_optimizer,
    run_federation,
)
from .model import ModelDims, NodeShapeConfig, PiXTime
from .optim import grad_check


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    batch_size: int = field(default=32, metadata={"min": 1})
    epochs: int = field(default=10, metadata={"min": 1})
    server_kind: str = field(default="sgd", metadata={"choices": ("sgd", "adam")})
    server_lr: float | None = None


@dataclass
class NetworkConfig:
    n_nodes: int = field(default=2, metadata={"min": 1})
    strides: list = field(default_factory=lambda: [1, 1], metadata={"min": 1})
    subset_size: int | None = field(default=None, metadata={"min": 1})
    T: int = field(default=96, metadata={"min": 1})
    S: int = field(default=24, metadata={"min": 1})
    PL: int = field(default=16, metadata={"min": 1})
    target_id: int = field(default=0, metadata={"min": 0})


@dataclass
class DatasetConfig:
    csv: str | None = None
    # the seed defaults to the run seed
    synthetic: dict | None = field(
        default=None, metadata={"min": SYNTHETIC_MINIMA, "optional": ("seed",)}
    )
    split: SplitSpec = field(default_factory=SplitSpec)


@dataclass
class ExperimentConfig:
    mode: str = field(default="federated", metadata={"choices": (
        "central", "federated", "evaluate", "gradcheck", "ablate-granularity", "ablate-ve",
    )})
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    D: int = field(default=32, metadata={"min": 1})
    L: int = field(default=2, metadata={"min": 1})
    H: int = field(default=4, metadata={"min": 1})
    d_ff: int = field(default=64, metadata={"min": 1})
    network: NetworkConfig = field(default_factory=NetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    rounds: int = field(default=10, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    out_dir: str = "runs/out"
    use_ve: bool = True
    n_seeds: int = field(default=3, metadata={"min": 1})
    ablation_stride: int = field(default=4, metadata={"min": 1})
    subset_sizes: list = field(default_factory=list, metadata={"min": 1})

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = _build(cls, raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """The rules between fields; `_build` has checked each field on its own."""
        net, ds = self.network, self.dataset
        if ds.csv is None and ds.synthetic is None and self.mode != "gradcheck":
            # gradcheck reads no data
            raise ConfigError("dataset needs a dataset.csv path or a dataset.synthetic spec")
        if self.D % self.H != 0:
            raise ConfigError(f"D={self.D} is not divisible by H={self.H} heads")
        if len(net.strides) != net.n_nodes:
            raise ConfigError(
                f"network.n_nodes={net.n_nodes} needs as many network.strides, got {net.strides}"
            )
        if net.T % net.PL != 0:
            raise ConfigError(f"network.T={net.T} is not a multiple of network.PL={net.PL}")
        strides = {f"network.strides[{i}]": k for i, k in enumerate(net.strides)}
        if self.mode == "ablate-granularity":  # its mix and coarse runs use this stride
            strides["ablation_stride"] = self.ablation_stride
        for name, k in strides.items():
            for label, base in (("T", net.T), ("S", net.S), ("PL", net.PL)):
                if base % k != 0:
                    raise ConfigError(
                        f"{name}={k} does not divide network.{label}={base}; "
                        "granularity pairing needs integral window lengths"
                    )
        if ds.csv is None and ds.synthetic is not None:
            # a synthetic dataset's width is known before any data exists
            n_vars = ds.synthetic["n_vars"]
            self.check_width(n_vars, f"dataset.synthetic.n_vars={n_vars}")

    def check_width(self, n_vars: int, width: str) -> None:
        """Reject `n_vars` columns (named `width`) with no auxiliary, or too few to hold
        the target id or a subset size."""
        least = SYNTHETIC_MINIMA["n_vars"]
        if n_vars < least:
            raise ConfigError(f"{width} hold no auxiliary: a dataset needs >= {least} columns")
        net = self.network
        widths = [("network.target_id", net.target_id),
                  ("network.subset_size", net.subset_size)]
        widths += [(f"subset_sizes[{i}]", n) for i, n in enumerate(self.subset_sizes)]
        for label, value in widths:
            if value is not None and value >= n_vars:
                raise ConfigError(f"{label}={value} must be < {width}")

    def to_dict(self) -> dict:
        return asdict(self)


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list: "a list", dict: "an object", type(None): "null"}


def _build(cls, raw, path: str = ""):
    """The config block `cls` at dotted `path`, built from its raw JSON object.

    Each key must name a field. A nested block is built before its parent,
    so no `__post_init__` meets a value that `_check` has not passed.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}={raw!r} must be an object")
    prefix = f"{path}." if path else ""
    kwargs = {}
    for key, value in raw.items():
        f = cls.__dataclass_fields__.get(key)
        if f is None:
            raise ConfigError(f"unknown config key {prefix}{key}")
        if is_dataclass(f.type):
            value = _build(f.type, value, prefix + key)
        else:
            _check(prefix + key, value, f.type, f.metadata)
        kwargs[key] = value
    return cls(**kwargs)


def _check(path: str, value, declared, meta) -> None:
    """Reject the value at `path` unless it has its `declared` type, then its bound.

    A number must be positive and finite; a float field also takes an
    integer. `meta` may declare a "min" for an integer, for each integer
    of a list, or per key of a dict, which may hold only those keys and
    must hold all but its "optional" ones; or the "choices" of a string.
    """
    kinds = get_args(declared) or (declared,)
    allowed = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) and bool not in kinds or not isinstance(value, allowed):
        names = " or ".join(_TYPE_NAMES[k] for k in kinds)
        raise ConfigError(f"{path}={value!r} must be {names}")
    if value is None:
        return
    low = meta.get("min")
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check(f"{path}[{i}]", item, int, {"min": low})
    elif isinstance(value, dict):
        for key, item in value.items():
            if key not in low:
                raise ConfigError(f"unknown config key {path}.{key}")
            _check(f"{path}.{key}", item, int, {"min": low[key]})
        for key in sorted(low.keys() - value.keys() - set(meta["optional"])):
            raise ConfigError(f"{path}.{key} is required")
    elif float in kinds:
        if not 0 < value <= sys.float_info.max:  # also NaN, and an int no float holds
            raise ConfigError(f"{path}={value!r} must be positive and finite")
    elif low is not None and value < low:
        raise ConfigError(f"{path}={value} must be >= {low}")
    elif "choices" in meta and value not in meta["choices"]:
        raise ConfigError(f"{path}={value!r} must be one of {', '.join(meta['choices'])}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    mse: float
    mae: float
    per_step_mse: list

    def to_dict(self) -> dict:
        return {"mse": self.mse, "mae": self.mae, "per_step_mse": self.per_step_mse}


def _score(view: NodeDataView, predict, batch: int) -> Metrics:
    """MSE/MAE of `predict(x, Z)`, given `batch` windows at a time, over the view's windows."""
    if len(view.starts) == 0:
        raise EvaluationError(f"node {view.cfg.node_id}: empty evaluation split")
    n, S = len(view.starts), view.cfg.S
    sq_sum = np.zeros(S)
    abs_sum = 0.0
    for lo in range(0, n, batch):
        x, Z, y = gather_batch(view, view.starts[lo : lo + batch])
        err = predict(x, Z) - y
        sq_sum += (err * err).sum(axis=0)
        abs_sum += np.abs(err).sum()
    per_step = sq_sum / n
    return Metrics(mse=float(per_step.mean()), mae=float(abs_sum / (n * S)),
                   per_step_mse=[float(v) for v in per_step])


def evaluate(node: FederatedNode, view: NodeDataView | None = None,
             eval_batch: int = 256) -> Metrics:
    """Standardized-scale MSE/MAE of the node's model over its test windows."""
    view = view if view is not None else node.views["test"]
    with no_grad():
        return _score(view, lambda x, Z: node.model.forward(x, Z).data, eval_batch)


def persistence_baseline(view: NodeDataView) -> Metrics:
    """Repeat the last observed target value across the horizon."""
    # the forecast reads no auxiliary, so its view gathers none
    targets = replace(view, cfg=replace(view.cfg, var_ids=[]))
    return _score(targets, lambda x, Z: np.repeat(x[:, -1:], view.cfg.S, axis=1),
                  len(view.starts))


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

def load_dataset(config: ExperimentConfig) -> RawDataset:
    ds = config.dataset
    if ds.csv is not None:
        raw = load_csv(ds.csv)
        # a csv's width is known only now, still before any training
        n_vars = raw.values.shape[1]
        config.check_width(n_vars, f"the {n_vars} columns of dataset.csv={ds.csv}")
        return raw
    spec = dict(ds.synthetic)
    spec.setdefault("seed", config.seed)
    return generate_synthetic(**spec)


def build_nodes(config: ExperimentConfig, standardized: np.ndarray,
                dims: ModelDims, seed: int) -> list:
    """Instantiate the federated nodes described by the network block."""
    net = config.network
    all_ids = list(range(dims.n_all))
    if net.subset_size is None:
        aux = [v for v in all_ids if v != net.target_id]
        subsets = [list(aux) for _ in range(net.n_nodes)]
    else:
        subsets = assign_variable_subsets(
            all_ids, net.target_id, net.n_nodes, net.subset_size, seed
        )

    nodes = []
    for node_id, stride in enumerate(net.strides):
        cfg = NodeShapeConfig(
            node_id=node_id,
            T=net.T // stride,
            S=net.S // stride,
            PL=net.PL // stride,
            var_ids=subsets[node_id],
            target_id=net.target_id,
            stride=stride,
        )
        # the common training set is split among nodes that share a
        # granularity; a node alone at its granularity owns its full
        # resampled train split
        group = [i for i, k in enumerate(net.strides) if k == stride]
        views = build_node_views(
            standardized, cfg, config.dataset.split,
            partition_count=len(group), partition_rank=group.index(node_id),
        )
        if len(views["test"].starts) == 0:  # every mode scores the test split
            raise ConfigError(
                f"dataset.split.test={config.dataset.split.test} holds no window for node "
                f"{node_id} at stride {stride}: one spans network.T + network.S = "
                f"{net.T + net.S} rows")
        nodes.append(
            FederatedNode(
                dims,
                cfg,
                views,
                seed=seed,
                lr=config.optimizer.lr,
                batch_size=config.optimizer.batch_size,
                use_ve=config.use_ve,
            )
        )
    return nodes


def _prepare(config: ExperimentConfig, seed: int) -> tuple:
    raw = load_dataset(config)
    standardized, _, _ = standardize(raw, config.dataset.split)
    dims = ModelDims(config.D, config.L, config.H, config.d_ff, raw.values.shape[1])
    nodes = build_nodes(config, standardized.values, dims, seed)
    global_shared = init_global_shared(dims, seed, config.use_ve)
    for node in nodes:
        node.load_shared(global_shared)
    return nodes, global_shared


def _reduce_errors(entries: list, reduce) -> dict:
    """`reduce` (np.mean over nodes, np.median over seeds) of the entries' mse and mae."""
    return {stat: float(reduce([e[stat] for e in entries])) for stat in ("mse", "mae")}


def _node_report(nodes: list) -> dict:
    per_node = [
        {"node_id": node.node_id, "S": node.cfg.S, **evaluate(node).to_dict(),
         "persistence": persistence_baseline(node.views["test"]).to_dict()}
        for node in nodes
    ]
    return {"nodes": per_node, "average": _reduce_errors(per_node, np.mean)}


# ---------------------------------------------------------------------------
# experiment modes
# ---------------------------------------------------------------------------

def _variant(config: ExperimentConfig, **changes) -> ExperimentConfig:
    """A checked copy of `config` with fields replaced; a dict updates that block's fields."""
    raw = config.to_dict()
    raw.update({k: {**raw[k], **v} if isinstance(v, dict) else v for k, v in changes.items()})
    return ExperimentConfig.from_dict(raw)


def _solo(config: ExperimentConfig, stride: int) -> ExperimentConfig:
    """Node of `stride` alone: a one-node federation with the identity server step."""
    return _variant(config, network={"n_nodes": 1, "strides": [stride]},
                    optimizer={"server_kind": "sgd", "server_lr": None})


def _train_federated(config: ExperimentConfig, seed: int) -> tuple:
    nodes, global_shared = _prepare(config, seed)
    server = make_server_optimizer(config.optimizer.server_kind, config.optimizer.server_lr)
    records, _ = run_federation(
        nodes, global_shared, config.rounds, config.optimizer.epochs, server
    )
    return nodes, records


ROUND_COLUMNS = ("round", "kind", "node_id", "train_loss", "detail", "duration_s")


def _round_rows(records) -> list:
    """Flatten round records into CSV rows, one value per ROUND_COLUMNS entry."""
    rows = []
    for rec in records:
        for node_id, loss in sorted(rec.node_losses.items()):
            rows.append((rec.round_index, "node", node_id, loss, "", ""))
        norm_text = ";".join(f"{k}={v:.6e}" for k, v in rec.update_norms.items())
        rows.append((rec.round_index, "server", "", "", norm_text, rec.duration_s))
    return rows


def gradcheck_experiment(config: ExperimentConfig) -> dict:
    """Finite-difference verification of the full model loss, all workflows."""
    dims = ModelDims(D=8, L=1, H=2, d_ff=16, n_all=4)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal(cfg.T)
    Z = rng.standard_normal((cfg.T, cfg.C))
    y = rng.standard_normal(cfg.S)
    all_series = rng.standard_normal((cfg.T, 3))
    Y_all = rng.standard_normal((3, cfg.S))

    checks = {
        "m2u": lambda: mse(model.forward(x, Z), y),
        "m2m": lambda: mse(model.m2m_forward(all_series, var_ids=[0, 1, 2]), Y_all),
        "u2u": lambda: mse(model.u2u_forward(x), y),
    }
    report = {name: asdict(grad_check(f, model.params)) for name, f in checks.items()}
    report["tolerance"] = 1e-4
    report["pass"] = all(v["max_rel_error"] < 1e-4 for v in (report["m2u"], report["m2m"], report["u2u"]))
    return report


def _seed_sweep(config: ExperimentConfig, settings: dict, score) -> dict:
    """Train each labelled config at every seed; a seed's entry holds the labelled
    results `score(label, nodes)` gives, and each label's mse and mae get a median."""
    per_seed = []
    for seed in range(config.seed, config.seed + config.n_seeds):
        entry = {"seed": seed}
        for label, cfg in settings.items():
            nodes, _ = _train_federated(cfg, seed)
            entry.update(score(label, nodes))
        per_seed.append(entry)
    medians = {label: _reduce_errors([e[label] for e in per_seed], np.median)
               for label in per_seed[0] if label != "seed"}
    return {"seeds": per_seed, "median": medians}


def ablate_granularity(config: ExperimentConfig) -> dict:
    """Mixed-granularity federation vs fine-only and coarse-only solo runs.

    The mix setting pairs a fine node with a stride-k coarse node whose
    T, S and PL are divided by k so patches span identical physical time;
    a solo run is `_solo`. Each setting runs over n_seeds seeds; medians
    are reported.
    """
    k = config.ablation_stride
    settings = {"mix": _variant(config, network={"n_nodes": 2, "strides": [1, k]}),
                "fine": _solo(config, 1), "coarse": _solo(config, k)}

    def by_stride(_, nodes):
        return {"fine" if n.cfg.stride == 1 else "coarse": evaluate(n).to_dict() for n in nodes}

    return {"stride": k, "settings": {name: _seed_sweep(config, {name: cfg}, by_stride)
                                      for name, cfg in settings.items()}}


def ablate_ve(config: ExperimentConfig) -> dict:
    """Paired runs with and without the variable-embedding table addition.

    Identical seeds and data per pair; optional sweep over auxiliary
    subset sizes. Zero table init makes the pair identical at step 0.
    """
    sizes = config.subset_sizes or [config.network.subset_size]

    def node_mean(label, nodes):
        return {label: _reduce_errors([evaluate(n).to_dict() for n in nodes], np.mean)}

    sweeps = {}
    for size in sizes:
        pair = {"ve": _variant(config, network={"subset_size": size}, use_ve=True),
                "nove": _variant(config, network={"subset_size": size}, use_ve=False)}
        sweeps[str(size)] = _seed_sweep(config, pair, node_mean)
    return {"subset_sizes": list(sizes), "sweeps": sweeps}


# ---------------------------------------------------------------------------
# top-level runner and artifact files
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    metrics: dict
    out_dir: Path
    duration_s: float


def write_outputs(out_dir, config: ExperimentConfig, metrics: dict, round_rows: list) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "rounds.csv", "w") as fh:
        for row in [ROUND_COLUMNS] + round_rows:
            fh.write(",".join(map(str, row)) + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch one experiment and write its three artifact files.

    The metrics JSON carries only replay-deterministic content; wall
    clock goes to the round log.
    """
    ExperimentConfig.from_dict(config.to_dict())  # a config built directly is checked too
    t0 = time.perf_counter()
    round_rows: list = []
    metrics: dict = {
        "build": f"pixtime-{__version__}",
        "mode": config.mode,
        "seed": config.seed,
    }

    # a diverging run is reported by the op that first yields a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        if config.mode == "gradcheck":
            metrics["gradcheck"] = gradcheck_experiment(config)
        elif config.mode in ("central", "federated", "evaluate"):
            trained = config
            if config.mode == "central":  # node 0 alone, with the same epoch budget
                trained = _solo(config, config.network.strides[0])
            elif config.mode == "evaluate":  # the untrained models: no round runs
                trained = _variant(config, rounds=0)
            nodes, records = _train_federated(trained, config.seed)
            round_rows = _round_rows(records)
            metrics.update(_node_report(nodes))
        elif config.mode == "ablate-granularity":
            metrics["granularity"] = ablate_granularity(config)
        elif config.mode == "ablate-ve":
            metrics["ve"] = ablate_ve(config)

    write_outputs(config.out_dir, config, metrics, round_rows)
    return ExperimentResult(
        metrics=metrics,
        out_dir=Path(config.out_dir),
        duration_s=time.perf_counter() - t0,
    )
