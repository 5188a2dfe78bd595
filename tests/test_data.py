"""CSV ingestion, standardization, resampling, windows, subsets, synthetic."""

import numpy as np
import pytest

from pixtime import (
    RawDataset,
    SplitSpec,
    assign_variable_subsets,
    generate_synthetic,
    load_csv,
    standardize,
    write_csv,
)
from pixtime.data import build_node_views, gather_batch
from pixtime.errors import ConfigError, DataError, FormatError, ParseError
from pixtime.model import NodeShapeConfig


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_csv_with_date_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,4.0\n")
    ds = load_csv(path)
    assert ds.column_names == ["a", "b"]
    assert ds.values.shape == (2, 2)
    assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_csv_single_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a\n1\n2\n3\n")
    ds = load_csv(path)
    assert ds.column_names == ["a"]
    assert ds.values.shape == (3, 1)


def test_load_csv_roundtrip_bit_exact(tmp_path):
    original = generate_synthetic(4, 1000, seed=5)
    path = tmp_path / "r.csv"
    write_csv(original, path)
    loaded = load_csv(path)
    assert loaded.column_names == original.column_names
    assert np.array_equal(loaded.values, original.values)


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,oops\n")
    with pytest.raises(ParseError, match="row 2.*'b'"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_cell(tmp_path, cell):
    path = tmp_path / "gap.csv"
    path.write_text(f"date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,3.0,{cell}\n")
    with pytest.raises(ParseError, match=r"gap\.csv: non-finite cell at row 3, column 'b'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="row 3"):
        load_csv(path)


def test_load_csv_duplicate_columns(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1.0,2.0\n")
    with pytest.raises(FormatError):
        load_csv(path)


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

def _dataset(values):
    values = np.asarray(values, dtype=np.float64)
    return RawDataset([f"c{i}" for i in range(values.shape[1])], values)


def test_standardize_simple_train_stats():
    # 4 rows, train fraction 0.5 -> train rows [0, 2) = [0, 2]
    ds = _dataset([[0.0], [2.0], [10.0], [20.0]])
    out, means, stds = standardize(ds, SplitSpec(0.5, 0.25, 0.25))
    assert means.tolist() == [1.0] and stds.tolist() == [1.0]
    assert out.values[:2, 0].tolist() == [-1.0, 1.0]


def test_standardize_constant_column_floored():
    ds = _dataset([[5.0], [5.0], [5.0], [5.0]])
    out, _, stds = standardize(ds, SplitSpec(0.5, 0.25, 0.25))
    assert stds[0] == 1e-8
    assert np.array_equal(out.values, np.zeros((4, 1)))


def test_standardize_roundtrip_recovers_values():
    rng = np.random.default_rng(0)
    ds = _dataset(rng.standard_normal((50, 3)) * 7 + 2)
    out, means, stds = standardize(ds, SplitSpec())
    recovered = out.values * stds + means
    assert np.max(np.abs(recovered - ds.values)) < 1e-12


def test_standardize_stats_ignore_test_rows():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((100, 2))
    ds1 = _dataset(base)
    perturbed = base.copy()
    perturbed[80:] += 100.0  # test region only (train 0.7, val 0.1)
    ds2 = _dataset(perturbed)
    _, m1, s1 = standardize(ds1, SplitSpec())
    _, m2, s2 = standardize(ds2, SplitSpec())
    assert np.array_equal(m1, m2) and np.array_equal(s1, s2)


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.2, 0.2)


# ---------------------------------------------------------------------------
# build_node_views: downsampling, window enumeration and window ownership
# ---------------------------------------------------------------------------

ALL_TRAIN = SplitSpec(1.0, 0.0, 0.0)


def _train_view(values, T=1, S=1, stride=1, count=1, rank=0):
    """The train view of a node at `stride` whose split holds every row."""
    cfg = NodeShapeConfig(node_id=rank, T=T, S=S, PL=1, var_ids=[], target_id=0,
                          stride=stride)
    return build_node_views(values, cfg, ALL_TRAIN, count, rank)["train"]


def test_downsample_stride_example():
    out = _train_view(np.arange(8.0).reshape(-1, 1), stride=4).series
    assert out.ravel().tolist() == [0.0, 4.0]


def test_downsample_identity():
    x = np.arange(10.0).reshape(-1, 1)
    series = _train_view(x).series
    assert np.array_equal(series, x) and np.shares_memory(series, x)


@pytest.mark.parametrize("seed", range(10))
def test_downsample_length_matches_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 12))
    n = int(rng.integers(k + 1, 200))  # at least two rows at stride k
    x = rng.standard_normal((n, 2))
    series = _train_view(x, stride=k).series
    # every stride-th row, read as a view of the standardized matrix
    assert np.array_equal(series, np.array([x[i] for i in range(n) if i % k == 0]))
    assert np.shares_memory(series, x)


def test_downsample_composes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((240, 3))
    a, b = 3, 4
    coarse = _train_view(_train_view(x, stride=a).series, stride=b).series
    assert np.array_equal(_train_view(x, stride=a * b).series, coarse)


def test_make_windows_count():
    assert len(_train_view(np.zeros((10, 1)), T=4, S=2).starts) == 5


def test_make_windows_boundary_single():
    assert _train_view(np.zeros((6, 1)), T=4, S=2).starts.tolist() == [0]


@pytest.mark.parametrize("seed", range(10))
def test_make_windows_matches_scan_oracle(seed):
    """Each split's starts are the scan of its rows for whole windows, dealt
    round-robin to the ranks (all of the test split to every rank)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 200))
    T, S, stride = int(rng.integers(1, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
    train = float(rng.uniform(0.5, 0.8))
    val = float(rng.uniform(0.05, 0.25))
    split = SplitSpec(train, val, 1.0 - train - val)
    count = int(rng.integers(1, 4))
    rows = len(range(0, n, stride))
    train_end, val_end = split.boundaries(rows)
    bounds = {"train": (0, train_end), "val": (train_end, val_end), "test": (val_end, rows)}
    for rank in range(count):
        cfg = NodeShapeConfig(node_id=rank, T=T, S=S, PL=1, var_ids=[], target_id=0,
                              stride=stride)
        views = build_node_views(np.zeros((n, 1)), cfg, split, count, rank)
        for name, (lo, hi) in bounds.items():
            valid = [t for t in range(lo, hi) if t + T + S <= hi]
            owned = valid if name == "test" else [
                t for i, t in enumerate(valid) if i % count == rank]
            assert views[name].starts.tolist() == owned, (name, rank)
            assert views[name].starts.dtype == np.intp


def test_make_windows_too_short():
    # 10 rows at train 0.5 leave 5 train rows against T + S = 6
    with pytest.raises(DataError, match=r"^series of length 5 too short for look-back 4 "
                                        r"\+ horizon 2$"):
        build_node_views(np.zeros((10, 1)),
                         NodeShapeConfig(node_id=0, T=4, S=2, PL=1, var_ids=[], target_id=0),
                         SplitSpec(0.5, 0.25, 0.25))


def test_partition_windows_example():
    assert _train_view(np.zeros((11, 1)), count=4, rank=1).starts.tolist() == [1, 5, 9]


def test_partition_windows_single_node_identity():
    assert _train_view(np.zeros((8, 1))).starts.tolist() == list(range(7))


@pytest.mark.parametrize("seed", range(20))
def test_partition_windows_set_algebra(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    nodes = int(rng.integers(1, 9))
    # n windows of one row each (T = S = 1) in n + 1 rows
    owned = [set(_train_view(np.zeros((n + 1, 1)), count=nodes, rank=i).starts.tolist())
             for i in range(nodes)]
    union = set()
    for s in owned:
        assert union.isdisjoint(s)
        union |= s
    assert union == set(range(n))


# ---------------------------------------------------------------------------
# assign_variable_subsets
# ---------------------------------------------------------------------------

def test_subsets_exhaustive_when_size_is_all():
    per_node = assign_variable_subsets(list(range(5)), 2, 3, 4, seed=0)
    for subset in per_node:
        assert sorted(subset) == [0, 1, 3, 4]


def test_subsets_deterministic_per_seed():
    a = assign_variable_subsets(list(range(9)), 0, 4, 3, seed=42)
    b = assign_variable_subsets(list(range(9)), 0, 4, 3, seed=42)
    assert a == b


@pytest.mark.parametrize("seed", range(100))
def test_subsets_never_contain_target_or_duplicates(seed):
    per_node = assign_variable_subsets(list(range(8)), 3, 4, 4, seed=seed)
    for subset in per_node:
        assert 3 not in subset
        assert len(set(subset)) == len(subset) == 4


def test_subsets_reject_oversize():
    with pytest.raises(ConfigError):
        assign_variable_subsets(list(range(4)), 0, 2, 4, seed=0)


# ---------------------------------------------------------------------------
# generate_synthetic
# ---------------------------------------------------------------------------

def test_synthetic_deterministic():
    a = generate_synthetic(5, 1200, seed=9)
    b = generate_synthetic(5, 1200, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.column_names == b.column_names


def test_synthetic_shape():
    ds = generate_synthetic(8, 4000, seed=0)
    assert ds.values.shape == (4000, 8)
    assert len(ds.column_names) == 8
    assert ds.column_names[0] == "target"


def test_synthetic_noiseless_single_coupling_correlates_at_lag():
    lag = 5
    ds = generate_synthetic(
        3, 2000, seed=1, noise_sigma=0.0, seasonal_weight=0.0,
        couplings=[(0, 1.0, lag)],
    )
    target = ds.values[:, 0]
    aux0 = ds.values[:, 1]
    r = np.corrcoef(target[lag:], aux0[:-lag])[0, 1]
    assert r > 0.99


def test_synthetic_rejects_tiny_specs():
    with pytest.raises(ConfigError):
        generate_synthetic(1, 2000, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(4, 10, seed=0)


# ---------------------------------------------------------------------------
# node views
# ---------------------------------------------------------------------------

def _views_for(n_nodes, node_id, stride=1, n_rows=400):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((n_rows, 4))
    cfg = NodeShapeConfig(
        node_id=node_id, T=24 // stride, S=8 // stride, PL=4 // stride,
        var_ids=[1, 2], target_id=0, stride=stride,
    )
    views = build_node_views(
        data, cfg, SplitSpec(),
        partition_count=n_nodes, partition_rank=node_id,
    )
    return views, data


def test_node_views_train_ownership_is_strided():
    views, _ = _views_for(n_nodes=3, node_id=1)
    starts = views["train"].starts
    assert starts.tolist() == list(range(1, 400 * 7 // 10 - 24 - 8 + 1, 3))


def test_node_views_test_split_is_full_copy():
    a, _ = _views_for(n_nodes=3, node_id=0)
    b, _ = _views_for(n_nodes=3, node_id=2)
    assert np.array_equal(a["test"].starts, b["test"].starts)


def test_node_views_reject_a_train_split_shorter_than_one_window():
    # 100 rows at train 0.3: 30 train rows against T + S = 32, while val (20)
    # and test (50) are long enough for none and some windows respectively
    cfg = NodeShapeConfig(node_id=0, T=24, S=8, PL=4, var_ids=[1, 2], target_id=0)
    data = np.random.default_rng(4).standard_normal((100, 4))
    with pytest.raises(DataError, match="30.*look-back 24.*horizon 8"):
        build_node_views(data, cfg, SplitSpec(0.3, 0.2, 0.5))


def test_gather_batch_windows_are_contiguous_non_overlapping():
    views, data = _views_for(n_nodes=2, node_id=0)
    starts = views["train"].starts[:3]
    x, Z, y = gather_batch(views["train"], starts)
    assert x.shape == (3, 24) and Z.shape == (3, 24, 2) and y.shape == (3, 8)
    for b, t in enumerate(starts):
        assert np.array_equal(x[b], data[t : t + 24, 0])
        assert np.array_equal(Z[b], data[t : t + 24, [1, 2]])
        assert np.array_equal(y[b], data[t + 24 : t + 32, 0])


def _reference_gather(view, starts):
    """The per-element fancy-index gather that gather_batch replaced, kept as its oracle."""
    cfg = view.cfg
    starts = np.asarray(starts, dtype=np.intp)
    in_rows = starts[:, None] + np.arange(cfg.T)
    out_rows = starts[:, None] + cfg.T + np.arange(cfg.S)
    x = view.series[in_rows, cfg.target_id]
    Z = view.series[in_rows[:, :, None], np.asarray(cfg.var_ids, dtype=np.intp)]
    y = view.series[out_rows, cfg.target_id]
    return x, Z, y


def _gather_views(stride):
    """A node's views on 7 columns, with unsorted auxiliaries and a target that is not column 0."""
    data = np.random.default_rng(stride).standard_normal((600, 7))
    cfg = NodeShapeConfig(node_id=0, T=48 // stride, S=12 // stride, PL=12 // stride,
                          var_ids=[5, 1, 6, 3], target_id=2, stride=stride)
    return build_node_views(data, cfg, SplitSpec())


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_gather_batch_equals_the_per_element_gather(stride, split):
    view = _gather_views(stride)[split]
    cfg = view.cfg
    # a coarse node's series is a strided view of the standardized matrix
    assert view.series.flags.c_contiguous == (stride == 1)
    last = view.series.shape[0] - cfg.T - cfg.S
    rng = np.random.default_rng(stride)
    batches = [rng.choice(view.starts, size=min(9, len(view.starts))),
               view.starts[:1], view.starts[-1:], [0], [last], [last, 0, last],
               rng.integers(0, last + 1, size=40), []]
    for starts in batches:
        got, want = gather_batch(view, starts), _reference_gather(view, starts)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), starts


@pytest.mark.parametrize("stride", [1, 3])
def test_gather_batch_returns_fresh_arrays_and_z_reads_as_a_contiguous_block(stride):
    view = _gather_views(stride)["train"]
    before = view.series.copy()
    x, Z, y = gather_batch(view, view.starts[:5])
    # the variable embedding projects (B, C, T) rows with no copy
    assert np.swapaxes(Z, -1, -2).flags.c_contiguous
    for a in (x, Z, y):
        assert a.flags.writeable
        a[...] = np.nan
    assert np.array_equal(view.series, before)


@pytest.mark.parametrize("stride", [1, 3])
def test_gather_batch_rejects_a_start_past_the_last_window(stride):
    view = _gather_views(stride)["test"]
    last = view.series.shape[0] - view.cfg.T - view.cfg.S
    gather_batch(view, [last])
    with pytest.raises(IndexError):
        gather_batch(view, [0, last + 1])


def test_granularity_pairing_preserves_physical_patch_span():
    fine_views, _ = _views_for(n_nodes=2, node_id=0, stride=1)
    coarse_views, _ = _views_for(n_nodes=2, node_id=1, stride=4)
    fine, coarse = fine_views["train"].cfg, coarse_views["train"].cfg
    assert fine.PL * fine.stride == coarse.PL * coarse.stride
    assert fine.T * fine.stride == coarse.T * coarse.stride
    assert fine.S * fine.stride == coarse.S * coarse.stride
