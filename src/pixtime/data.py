"""Dataset ingestion, standardization, resampling and window bookkeeping.

Covers CSV loading, z-scoring from train-split statistics, stride
downsampling for coarse-granularity nodes, sliding-window enumeration,
strided per-node ownership of training windows, seeded auxiliary-subset
assignment, and a synthetic generator whose target is predictable from
its auxiliaries by construction.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError
from .model import NodeShapeConfig

STD_FLOOR = 1e-8


@dataclass
class RawDataset:
    """A dense (time x variables) matrix with one category per column."""

    column_names: list
    values: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        for name, frac in (("train", self.train), ("val", self.val), ("test", self.test)):
            if frac <= 0:
                raise ConfigError(f"split fraction {name}={frac} must be positive")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError(
                f"split fractions must sum to 1, got {self.train + self.val + self.test}"
            )

    def boundaries(self, n_rows: int) -> tuple:
        """Row indices (train_end, val_end); test runs to the end."""
        train_end = int(n_rows * self.train)
        val_end = train_end + int(n_rows * self.val)
        return train_end, val_end


def load_csv(path) -> RawDataset:
    """Read a comma-separated dataset with a header row.

    A leading "date" column is dropped. Every remaining cell must parse
    as a finite real number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        has_timestamp = bool(header) and header[0].strip().lower() == "date"
        names = [h.strip() for h in (header[1:] if has_timestamp else header)]
        if len(set(names)) != len(names):
            raise FormatError(f"{path}: duplicate column names in header")
        width = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise FormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            cells = row[1:] if has_timestamp else row
            parsed = []
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):
                    kind = "non-numeric" if value is None else "non-finite"
                    raise ParseError(
                        f"{path}: {kind} cell at row {lineno}, column "
                        f"{names[col]!r}: {cell!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return RawDataset(column_names=names, values=values)


def write_csv(dataset: RawDataset, path) -> None:
    """Write a dataset in the same format load_csv reads (bit round-trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.column_names)
        for row in dataset.values:
            writer.writerow([repr(float(v)) for v in row])


def standardize(data: RawDataset, split: SplitSpec) -> tuple:
    """Per-variable z-score using train-split statistics only.

    Returns (standardized dataset, means, stds); stds are floored at
    1e-8 so constant columns map to zeros.
    """
    n = data.values.shape[0]
    train_end, _ = split.boundaries(n)
    if train_end < 1:
        raise DataError(f"train split is empty for {n} rows")
    train = data.values[:train_end]
    means = train.mean(axis=0)
    stds = np.maximum(train.std(axis=0), STD_FLOOR)
    standardized = (data.values - means) / stds
    return RawDataset(column_names=list(data.column_names), values=standardized), means, stds


def downsample(values: np.ndarray, k: int) -> np.ndarray:
    """Coarsen the time axis by factor k (rows 0, k, 2k, ...)."""
    if k < 1:
        raise ConfigError(f"downsample stride must be >= 1, got {k}")
    return values[::k]


def make_windows(series, T: int, S: int) -> np.ndarray:
    """Valid window start indices for look-back T and horizon S.

    The sample at start t covers input rows [t, t+T) and target rows
    [t+T, t+T+S).
    """
    n = series if isinstance(series, (int, np.integer)) else np.asarray(series).shape[0]
    if n < T + S:
        raise DataError(
            f"series of length {n} too short for look-back {T} + horizon {S}"
        )
    return np.arange(n - T - S + 1)


def partition_windows(n_windows: int, n_nodes: int, node_id: int) -> np.ndarray:
    """Strided ownership: node i owns {i, i + n_nodes, i + 2 n_nodes, ...}."""
    if not 0 <= node_id < n_nodes:
        raise ConfigError(f"node_id {node_id} outside [0, {n_nodes})")
    return np.arange(node_id, n_windows, n_nodes)


def assign_variable_subsets(
    all_var_ids, target_id: int, n_nodes: int, subset_size: int, seed: int
) -> list:
    """Seeded per-node draws of auxiliary ids (target excluded, no repeats)."""
    pool = [int(v) for v in all_var_ids if int(v) != int(target_id)]
    if subset_size > len(pool):
        raise ConfigError(
            f"subset size {subset_size} exceeds the {len(pool)} available auxiliaries"
        )
    assignments = []
    for node_id in range(n_nodes):
        rng = np.random.default_rng([seed, node_id])
        picks = rng.choice(pool, size=subset_size, replace=False)
        assignments.append([int(v) for v in picks])
    return assignments


def generate_synthetic(
    n_vars: int,
    length: int,
    seed: int,
    noise_sigma: float = 0.1,
    seasonal_weight: float = 0.5,
    couplings=None,
    period_range: tuple = (24.0, 96.0),
) -> RawDataset:
    """Seasonal multivariate dataset whose target column is predictable.

    Each auxiliary is a sine with a seeded period and phase plus Gaussian
    noise. The target is a normalized weighted sum of lagged auxiliaries
    (a seeded subset by default, or explicit `couplings` of (aux_index,
    weight, lag) triples) plus its own seasonal term and noise. Column 0
    is the target.
    """
    if n_vars < 2:
        raise ConfigError(f"need at least 2 variables, got {n_vars}")
    if length < 1000:
        raise ConfigError(f"need at least 1000 rows, got {length}")
    rng = np.random.default_rng(seed)
    n_aux = n_vars - 1

    periods = rng.uniform(period_range[0], period_range[1], size=n_aux)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_aux)
    if couplings is None:
        n_coupled = max(1, n_aux // 2)
        chosen = rng.choice(n_aux, size=n_coupled, replace=False)
        weights = rng.uniform(0.5, 1.5, size=n_coupled)
        lags = rng.integers(1, 25, size=n_coupled)
        couplings = list(zip((int(c) for c in chosen), weights, (int(l) for l in lags)))
    else:
        couplings = [(int(a), float(w), int(l)) for a, w, l in couplings]
    target_period = rng.uniform(period_range[0], period_range[1])
    target_phase = rng.uniform(0.0, 2.0 * np.pi)

    max_lag = max((lag for _, _, lag in couplings), default=0)
    t_ext = np.arange(-max_lag, length, dtype=np.float64)
    aux = np.sin(2.0 * np.pi * t_ext[:, None] / periods + phases)
    if noise_sigma > 0:
        aux = aux + noise_sigma * rng.standard_normal(aux.shape)

    t = np.arange(length, dtype=np.float64)
    mix = np.zeros(length)
    for aux_index, weight, lag in couplings:
        mix += weight * aux[max_lag - lag : max_lag - lag + length, aux_index]
    norm = sum(abs(w) for _, w, _ in couplings)
    target = mix / max(norm, 1e-12)
    target += seasonal_weight * np.sin(2.0 * np.pi * t / target_period + target_phase)
    if noise_sigma > 0:
        target += noise_sigma * rng.standard_normal(length)

    values = np.column_stack([target, aux[max_lag:]])
    names = ["target"] + [f"aux{k:02d}" for k in range(n_aux)]
    return RawDataset(column_names=names, values=values)


@dataclass
class NodeDataView:
    """One node's immutable slice of the experiment data for one split."""

    node_id: int
    series: np.ndarray
    starts: np.ndarray
    split: str
    cfg: NodeShapeConfig


def build_node_views(standardized: np.ndarray, cfg: NodeShapeConfig, split: SplitSpec,
                     partition_count: int = 1, partition_rank: int = 0) -> dict:
    """Construct train/val/test views for one node.

    The node sees the full standardized matrix at its own granularity
    (every `cfg.stride`-th row). Training and validation windows are
    owned by strided partitioning among the `partition_count` nodes that
    share this granularity (rank `partition_rank`); every node evaluates
    the full test split.
    """
    series = downsample(standardized, cfg.stride)
    n = series.shape[0]
    train_end, val_end = split.boundaries(n)

    views = {}
    train_starts = make_windows(train_end, cfg.T, cfg.S)
    owned = train_starts[partition_windows(len(train_starts), partition_count, partition_rank)]
    views["train"] = NodeDataView(cfg.node_id, series, owned, "train", cfg)

    val_len = val_end - train_end
    if val_len >= cfg.T + cfg.S:
        val_starts = make_windows(val_len, cfg.T, cfg.S) + train_end
        owned_val = val_starts[partition_windows(len(val_starts), partition_count, partition_rank)]
    else:
        owned_val = np.array([], dtype=np.intp)
    views["val"] = NodeDataView(cfg.node_id, series, owned_val, "val", cfg)

    test_len = n - val_end
    if test_len >= cfg.T + cfg.S:
        test_starts = make_windows(test_len, cfg.T, cfg.S) + val_end
    else:
        test_starts = np.array([], dtype=np.intp)
    views["test"] = NodeDataView(cfg.node_id, series, test_starts, "test", cfg)
    return views


def gather_batch(view: NodeDataView, starts) -> tuple:
    """Assemble (x, Z, y) arrays for a batch of window starts.

    x: (B, T) target look-back; Z: (B, T, C) auxiliary columns;
    y: (B, S) target horizon.
    """
    cfg = view.cfg
    starts = np.asarray(starts, dtype=np.intp)
    in_rows = starts[:, None] + np.arange(cfg.T)
    out_rows = starts[:, None] + cfg.T + np.arange(cfg.S)
    x = view.series[in_rows, cfg.target_id]
    Z = view.series[in_rows[:, :, None], np.asarray(cfg.var_ids, dtype=np.intp)]
    y = view.series[out_rows, cfg.target_id]
    return x, Z, y

