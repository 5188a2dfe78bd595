"""Experiment orchestration: configs, metrics, training modes, ablations.

A run is described by a declarative ExperimentConfig (usually a JSON
file), validated before any model is built. Every run writes exactly
three artifacts into its output directory: a config echo, a metrics JSON
(byte-identical across replays of the same config and seed), and a round
log CSV (which carries the only wall-clock fields).
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import mse, no_grad
from .data import (
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
    RoundRecord,
    init_global_shared,
    make_server_optimizer,
    run_federation,
)
from .model import ModelDims, NodeShapeConfig, PiXTime
from .optim import grad_check


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# the keys a dataset.synthetic block may hold, with the least value of each
SYNTHETIC_MINIMA = {"n_vars": 2, "length": 1000, "seed": 0}

MODES = (
    "central",
    "federated",
    "evaluate",
    "gradcheck",
    "ablate-granularity",
    "ablate-ve",
)


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    server_kind: str = "sgd"
    server_lr: float | None = None


@dataclass
class NetworkConfig:
    n_nodes: int = 2
    strides: list = field(default_factory=lambda: [1, 1])
    subset_size: int | None = None
    T: int = 96
    S: int = 24
    PL: int = 16
    target_id: int = 0


@dataclass
class DatasetConfig:
    csv: str | None = None
    synthetic: dict | None = None
    split: SplitSpec = field(default_factory=SplitSpec)


@dataclass
class ExperimentConfig:
    mode: str = "federated"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    D: int = 32
    L: int = 2
    H: int = 4
    d_ff: int = 64
    network: NetworkConfig = field(default_factory=NetworkConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    rounds: int = 10
    seed: int = 0
    out_dir: str = "runs/out"
    use_ve: bool = True
    n_seeds: int = 3
    ablation_stride: int = 4
    subset_sizes: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        def build(factory, block, label):
            try:
                return factory(**block)
            except TypeError as exc:
                raise ConfigError(f"invalid {label} block: {exc}") from None

        raw = dict(raw)
        kwargs = {}
        if "dataset" in raw:
            ds = dict(raw.pop("dataset"))
            if "split" in ds:
                ds["split"] = build(SplitSpec, ds["split"], "split")
            kwargs["dataset"] = build(DatasetConfig, ds, "dataset")
        if "network" in raw:
            kwargs["network"] = build(NetworkConfig, raw.pop("network"), "network")
        if "optimizer" in raw:
            kwargs["optimizer"] = build(OptimizerConfig, raw.pop("optimizer"), "optimizer")
        known = set(cls.__dataclass_fields__)
        for key, value in raw.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = value
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        net, opt = self.network, self.optimizer
        for label, value in (("strides", net.strides), ("subset_sizes", self.subset_sizes)):
            if not isinstance(value, list):
                raise ConfigError(f"{label}={value!r} must be a list")
        # (label, value, minimum) for every integer field, checked before
        # any of them is used as a divisor
        bounds = [
            ("D", self.D, 1), ("L", self.L, 1), ("H", self.H, 1), ("d_ff", self.d_ff, 1),
            ("rounds", self.rounds, 0), ("seed", self.seed, 0), ("n_seeds", self.n_seeds, 1),
            ("ablation_stride", self.ablation_stride, 1),
            ("n_nodes", net.n_nodes, 1), ("T", net.T, 1), ("S", net.S, 1), ("PL", net.PL, 1),
            ("target_id", net.target_id, 0),
            ("batch_size", opt.batch_size, 1), ("epochs", opt.epochs, 0),
        ]
        sizes = [size for size in [net.subset_size] + self.subset_sizes if size is not None]
        bounds += [("stride", k, 1) for k in net.strides] + [("subset_size", n, 1) for n in sizes]
        spec = self.dataset.synthetic
        if self.dataset.csv is None:
            if spec is None:
                raise ConfigError("dataset requires either a csv path or a synthetic spec")
            keys = set(spec) if isinstance(spec, dict) else set()
            if not {"n_vars", "length"} <= keys <= set(SYNTHETIC_MINIMA):
                raise ConfigError(
                    f"synthetic spec {spec!r} must hold n_vars, length and an optional seed"
                )
            bounds += [(f"synthetic.{k}", v, SYNTHETIC_MINIMA[k]) for k, v in spec.items()]
        for label, value, low in bounds:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{label}={value!r} must be an integer")
            if value < low:
                raise ConfigError(f"{label}={value} must be >= {low}")
        if self.D % self.H != 0:
            raise ConfigError(f"D={self.D} is not divisible by H={self.H} heads")
        rates = {"lr": opt.lr}
        if opt.server_lr is not None:
            rates["server_lr"] = opt.server_lr
        for label, value in rates.items():
            if not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise ConfigError(f"{label}={value!r} must be a positive finite number")
        make_server_optimizer(opt.server_kind)  # rejects an unknown kind
        if len(net.strides) != net.n_nodes:
            raise ConfigError(
                f"{net.n_nodes} nodes need {net.n_nodes} strides, got {len(net.strides)}"
            )
        if net.T % net.PL != 0:
            raise ConfigError(f"T={net.T} is not a multiple of PL={net.PL}")
        for k in net.strides:
            for label, base in (("T", net.T), ("S", net.S), ("PL", net.PL)):
                if base % k != 0:
                    raise ConfigError(
                        f"stride {k} does not divide {label}={base}; granularity "
                        "pairing needs integral window lengths"
                    )
        if self.dataset.csv is None:
            # a synthetic dataset's width is known before any data exists
            n_vars = spec["n_vars"]
            widths = [("target_id", net.target_id)] + [("subset_size", n) for n in sizes]
            for label, value in widths:
                if value >= n_vars:
                    raise ConfigError(
                        f"{label}={value} must be < n_vars={n_vars} of the synthetic dataset"
                    )

    def to_dict(self) -> dict:
        return asdict(self)


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


def _metrics_from_errors(sq_sum: np.ndarray, abs_sum: float, n_windows: int, S: int) -> Metrics:
    per_step = sq_sum / n_windows
    return Metrics(
        mse=float(per_step.mean()),
        mae=float(abs_sum / (n_windows * S)),
        per_step_mse=[float(v) for v in per_step],
    )


def evaluate(node: FederatedNode, view: NodeDataView | None = None,
             eval_batch: int = 256) -> Metrics:
    """Standardized-scale MSE/MAE of the node's model over its test windows."""
    view = view if view is not None else node.views["test"]
    if len(view.starts) == 0:
        raise EvaluationError(f"node {view.node_id}: empty evaluation split")
    S = view.cfg.S
    sq_sum = np.zeros(S)
    abs_sum = 0.0
    with no_grad():
        for lo in range(0, len(view.starts), eval_batch):
            x, Z, y = gather_batch(view, view.starts[lo : lo + eval_batch])
            pred = node.model.forward(x, Z).data
            err = pred - y
            sq_sum += (err * err).sum(axis=0)
            abs_sum += np.abs(err).sum()
    return _metrics_from_errors(sq_sum, abs_sum, len(view.starts), S)


def persistence_baseline(view: NodeDataView) -> Metrics:
    """Repeat the last observed target value across the horizon."""
    if len(view.starts) == 0:
        raise EvaluationError(f"node {view.node_id}: empty evaluation split")
    S = view.cfg.S
    x, _, y = gather_batch(view, view.starts)
    pred = np.repeat(x[:, -1:], S, axis=1)
    err = pred - y
    return _metrics_from_errors((err * err).sum(axis=0), float(np.abs(err).sum()),
                                len(view.starts), S)


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

def load_dataset(config: ExperimentConfig) -> RawDataset:
    ds = config.dataset
    if ds.csv is not None:
        return load_csv(ds.csv)
    spec = dict(ds.synthetic)
    spec.setdefault("seed", config.seed)
    return generate_synthetic(**spec)


def build_nodes(config: ExperimentConfig, standardized: np.ndarray,
                n_columns: int, seed: int) -> list:
    """Instantiate the federated nodes described by the network block."""
    net = config.network
    all_ids = list(range(n_columns))
    if net.target_id >= n_columns:
        raise ConfigError(
            f"target id {net.target_id} outside the {n_columns}-column dataset"
        )
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
        nodes.append(
            FederatedNode(
                ModelDims(config.D, config.L, config.H, config.d_ff, n_columns),
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
    nodes = build_nodes(config, standardized.values, raw.values.shape[1], seed)
    dims = ModelDims(config.D, config.L, config.H, config.d_ff, raw.values.shape[1])
    global_shared = init_global_shared(dims, seed)
    for node in nodes:
        node.load_shared(global_shared)
    return nodes, global_shared


def _node_report(nodes: list, include_baseline: bool = True) -> dict:
    per_node = []
    for node in nodes:
        m = evaluate(node)
        entry = {"node_id": node.node_id, "S": node.cfg.S, **m.to_dict()}
        if include_baseline:
            entry["persistence"] = persistence_baseline(node.views["test"]).to_dict()
        per_node.append(entry)
    avg = {
        "mse": float(np.mean([e["mse"] for e in per_node])),
        "mae": float(np.mean([e["mae"] for e in per_node])),
    }
    return {"nodes": per_node, "average": avg}


# ---------------------------------------------------------------------------
# experiment modes
# ---------------------------------------------------------------------------

def _train_federated(config: ExperimentConfig, seed: int) -> tuple:
    nodes, global_shared = _prepare(config, seed)
    server = make_server_optimizer(config.optimizer.server_kind, config.optimizer.server_lr)
    records, _ = run_federation(
        nodes, global_shared, config.rounds, config.optimizer.epochs, server
    )
    return nodes, records


def _train_central(config: ExperimentConfig, seed: int) -> tuple:
    """Single-node training with the same total epoch budget as a fed run."""
    cfg = ExperimentConfig.from_dict({**config.to_dict(), "mode": "central"})
    cfg.network.n_nodes = 1
    cfg.network.strides = config.network.strides[:1]
    nodes, _ = _prepare(cfg, seed)
    node = nodes[0]
    records = []
    for r in range(config.rounds):
        t0 = time.perf_counter()
        loss = node.train_epochs(config.optimizer.epochs)
        records.append(
            RoundRecord(
                round_index=r,
                node_losses={node.node_id: loss},
                update_norms={},
                duration_s=time.perf_counter() - t0,
            )
        )
    return nodes, records


def _round_rows(records) -> list:
    """Flatten round records into CSV rows (see README for the column set)."""
    rows = []
    for rec in records:
        for node_id, loss in sorted(rec.node_losses.items()):
            rows.append(
                {
                    "round": rec.round_index,
                    "kind": "node",
                    "node_id": node_id,
                    "train_loss": loss,
                    "detail": "",
                    "duration_s": "",
                }
            )
        norm_text = ";".join(f"{k}={v:.6e}" for k, v in rec.update_norms.items())
        rows.append(
            {
                "round": rec.round_index,
                "kind": "server",
                "node_id": "",
                "train_loss": "",
                "detail": norm_text,
                "duration_s": rec.duration_s,
            }
        )
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
    report = {}
    for name, f in checks.items():
        result = grad_check(f, model.parameters(), h=1e-5)
        report[name] = {
            "max_rel_error": result.max_rel_error,
            "worst_param": result.worst_param,
        }
    report["tolerance"] = 1e-4
    report["pass"] = all(v["max_rel_error"] < 1e-4 for v in (report["m2u"], report["m2m"], report["u2u"]))
    return report


def ablate_granularity(config: ExperimentConfig) -> dict:
    """Mixed-granularity federation vs fine-only and coarse-only solo runs.

    The mix setting pairs a fine node with a stride-k coarse node whose
    T, S and PL are divided by k so patches span identical physical time.
    Each setting runs over n_seeds seeds; medians are reported.
    """
    k = config.ablation_stride
    base = config.to_dict()
    settings = {
        "mix": {"n_nodes": 2, "strides": [1, k]},
        "fine": {"n_nodes": 1, "strides": [1]},
        "coarse": {"n_nodes": 1, "strides": [k]},
    }
    out = {"stride": k, "settings": {}}
    for name, net_patch in settings.items():
        per_seed = []
        for s in range(config.n_seeds):
            seed = config.seed + s
            cfg = ExperimentConfig.from_dict(
                {
                    **base,
                    "mode": "federated",
                    "network": {**base["network"], **net_patch},
                }
            )
            if name == "mix":
                nodes, _ = _train_federated(cfg, seed)
            else:
                nodes, _ = _train_central(cfg, seed)
            entry = {"seed": seed}
            for node in nodes:
                label = "fine" if node.cfg.stride == 1 else "coarse"
                entry[label] = evaluate(node).to_dict()
            per_seed.append(entry)
        medians = {}
        for label in ("fine", "coarse"):
            vals = [e[label]["mse"] for e in per_seed if label in e]
            if vals:
                medians[label] = {
                    "mse": float(np.median(vals)),
                    "mae": float(np.median([e[label]["mae"] for e in per_seed if label in e])),
                }
        out["settings"][name] = {"seeds": per_seed, "median": medians}
    return out


def ablate_ve(config: ExperimentConfig) -> dict:
    """Paired runs with and without the variable-embedding table addition.

    Identical seeds and data per pair; optional sweep over auxiliary
    subset sizes. Zero table init makes the pair identical at step 0.
    """
    base = config.to_dict()
    sizes = config.subset_sizes or [config.network.subset_size]
    out = {"subset_sizes": [], "sweeps": {}}
    for size in sizes:
        per_seed = []
        for s in range(config.n_seeds):
            seed = config.seed + s
            pair = {}
            for label, use_ve in (("ve", True), ("nove", False)):
                cfg = ExperimentConfig.from_dict(
                    {
                        **base,
                        "mode": "federated",
                        "use_ve": use_ve,
                        "network": {**base["network"], "subset_size": size},
                    }
                )
                nodes, _ = _train_federated(cfg, seed)
                report = _node_report(nodes, include_baseline=False)
                pair[label] = report["average"]
            per_seed.append({"seed": seed, **pair})
        median = {
            label: {
                "mse": float(np.median([e[label]["mse"] for e in per_seed])),
                "mae": float(np.median([e[label]["mae"] for e in per_seed])),
            }
            for label in ("ve", "nove")
        }
        key = str(size)
        out["subset_sizes"].append(size)
        out["sweeps"][key] = {"seeds": per_seed, "median": median}
    return out


# ---------------------------------------------------------------------------
# top-level runner and artifact files
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    metrics: dict
    round_rows: list
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
    header = ["round", "kind", "node_id", "train_loss", "detail", "duration_s"]
    with open(out / "rounds.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in round_rows:
            fh.write(",".join(str(row[h]) for h in header) + "\n")


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch one experiment and write its three artifact files.

    The metrics JSON carries only replay-deterministic content; wall
    clock goes to the round log.
    """
    config.validate()
    t0 = time.perf_counter()
    round_rows: list = []
    metrics: dict = {
        "build": f"pixtime-{__version__}",
        "mode": config.mode,
        "seed": config.seed,
    }

    if config.mode == "gradcheck":
        metrics["gradcheck"] = gradcheck_experiment(config)
    elif config.mode == "central":
        nodes, records = _train_central(config, config.seed)
        round_rows = _round_rows(records)
        metrics.update(_node_report(nodes))
    elif config.mode == "federated":
        nodes, records = _train_federated(config, config.seed)
        round_rows = _round_rows(records)
        metrics.update(_node_report(nodes))
    elif config.mode == "evaluate":
        nodes, _ = _prepare(config, config.seed)
        metrics.update(_node_report(nodes))
    elif config.mode == "ablate-granularity":
        metrics["granularity"] = ablate_granularity(config)
    elif config.mode == "ablate-ve":
        metrics["ve"] = ablate_ve(config)

    write_outputs(config.out_dir, config, metrics, round_rows)
    return ExperimentResult(
        metrics=metrics,
        round_rows=round_rows,
        out_dir=Path(config.out_dir),
        duration_s=time.perf_counter() - t0,
    )
