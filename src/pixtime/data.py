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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, FormatError, ParseError
from .model import NodeShapeConfig

STD_FLOOR = 1e-8
# the range the synthetic generator draws each seasonal period from, in rows
PERIOD_RANGE = (24.0, 96.0)


@dataclass
class RawDataset:
    """A dense (time x variables) matrix with one category per column."""

    column_names: list
    values: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; the config reader checks each is positive."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"dataset.split.train + val + test = {total}, not 1")

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
    standardized = data.values - means
    standardized /= stds
    return RawDataset(column_names=list(data.column_names), values=standardized), means, stds


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


# the keys of a synthetic spec, with the least value of each
SYNTHETIC_MINIMA = {"n_vars": 2, "length": 1000, "seed": 0}


def generate_synthetic(
    n_vars: int,
    length: int,
    seed: int,
    noise_sigma: float = 0.1,
    seasonal_weight: float = 0.5,
    couplings=None,
) -> RawDataset:
    """Seasonal multivariate dataset whose target column is predictable.

    Each auxiliary is a sine with a seeded period and phase plus Gaussian
    noise. The target is a normalized weighted sum of lagged auxiliaries
    (a seeded subset by default, or explicit `couplings` of (aux_index,
    weight, lag) triples) plus its own seasonal term and noise. Column 0
    is the target.
    """
    for name, value in (("n_vars", n_vars), ("length", length)):
        if value < SYNTHETIC_MINIMA[name]:
            raise ConfigError(f"{name}={value} must be >= {SYNTHETIC_MINIMA[name]}")
    rng = np.random.default_rng(seed)
    n_aux = n_vars - 1

    periods = rng.uniform(*PERIOD_RANGE, size=n_aux)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_aux)
    if couplings is None:
        n_coupled = max(1, n_aux // 2)
        chosen = rng.choice(n_aux, size=n_coupled, replace=False)
        weights = rng.uniform(0.5, 1.5, size=n_coupled)
        lags = rng.integers(1, 25, size=n_coupled)
        couplings = list(zip((int(c) for c in chosen), weights, (int(l) for l in lags)))
    else:
        couplings = [(int(a), float(w), int(l)) for a, w, l in couplings]
    target_period = rng.uniform(*PERIOD_RANGE)
    target_phase = rng.uniform(0.0, 2.0 * np.pi)

    max_lag = max((lag for _, _, lag in couplings), default=0)
    try:
        t_ext = np.arange(-max_lag, length, dtype=np.float64)
        # formed variable-major, so each broadcast runs along time, not along n_aux
        aux = np.sin(2.0 * np.pi * t_ext / periods[:, None] + phases[:, None]).T
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
    except MemoryError as exc:  # numpy refuses a size it cannot allocate
        raise ConfigError(f"dataset.synthetic.length={length} with n_vars={n_vars} "
                          f"is too large: {exc}") from None
    names = ["target"] + [f"aux{k:02d}" for k in range(n_aux)]
    return RawDataset(column_names=names, values=values)


@dataclass
class NodeDataView:
    """One node's immutable slice of the experiment data for one split."""

    series: np.ndarray
    starts: np.ndarray
    split: str
    cfg: NodeShapeConfig


def build_node_views(standardized: np.ndarray, cfg: NodeShapeConfig, split: SplitSpec,
                     partition_count: int = 1, partition_rank: int = 0) -> dict:
    """Construct train/val/test views for one node.

    The node sees the full standardized matrix at its own granularity
    (every `cfg.stride`-th row, as a view). The window at start t reads
    input rows [t, t + T) and target rows [t + T, t + T + S) of one split.
    Training and validation windows are owned by strided partitioning
    among the `partition_count` nodes that share this granularity: rank r
    owns the split's windows r, r + count, r + 2 count, ...; every node
    evaluates the full test split.
    """
    series = standardized[:: cfg.stride]
    n = series.shape[0]
    train_end, val_end = split.boundaries(n)
    if train_end < cfg.T + cfg.S:  # val and test may be too short for any window
        raise DataError(f"series of length {train_end} too short for look-back {cfg.T} "
                        f"+ horizon {cfg.S}")

    views = {}
    for name, lo, hi in (("train", 0, train_end), ("val", train_end, val_end),
                         ("test", val_end, n)):
        starts = np.arange(lo, lo + max(hi - lo - cfg.T - cfg.S + 1, 0))
        if name != "test":
            starts = starts[partition_rank::partition_count]
        views[name] = NodeDataView(series, starts, name, cfg)
    return views


def gather_batch(view: NodeDataView, starts) -> tuple:
    """Assemble (x, Z, y) arrays for a batch of window starts.

    x: (B, T) target look-back; Z: (B, T, C) auxiliary columns;
    y: (B, S) target horizon. The batch is read through a read-only
    strided view of `view.series` holding one (columns, T + S) window per
    start, so only the batch itself is copied. Z is the transposed view of
    a C-contiguous (B, C, T) block, the layout the variable embedding
    projects. A start past the last window raises IndexError.
    """
    cfg = view.cfg
    starts = np.asarray(starts, dtype=np.intp)
    windows = sliding_window_view(view.series, cfg.T + cfg.S, axis=0)
    x = windows[starts, cfg.target_id, : cfg.T]
    Z = windows[starts[:, None], np.asarray(cfg.var_ids, dtype=np.intp), : cfg.T]
    y = windows[starts, cfg.target_id, cfg.T :]
    return x, Z.swapaxes(-1, -2), y
