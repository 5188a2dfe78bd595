"""CSV ingestion, standardization, resampling, windows, subsets, synthetic."""

import numpy as np
import pytest

from pixtime import (
    RawDataset,
    SplitSpec,
    assign_variable_subsets,
    downsample,
    generate_synthetic,
    load_csv,
    make_windows,
    partition_windows,
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
# downsample
# ---------------------------------------------------------------------------

def test_downsample_stride_example():
    out = downsample(np.arange(8.0).reshape(-1, 1), 4)
    assert out.ravel().tolist() == [0.0, 4.0]


def test_downsample_identity():
    x = np.arange(10.0).reshape(-1, 1)
    assert np.array_equal(downsample(x, 1), x)


@pytest.mark.parametrize("seed", range(10))
def test_downsample_length_matches_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    k = int(rng.integers(1, 12))
    x = rng.standard_normal((n, 2))
    expected = len([i for i in range(n) if i % k == 0])
    assert downsample(x, k).shape[0] == expected


def test_downsample_composes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((240, 3))
    a, b = 3, 4
    assert np.array_equal(downsample(x, a * b), downsample(downsample(x, a), b))


def test_downsample_rejects_bad_stride():
    with pytest.raises(ConfigError):
        downsample(np.zeros((4, 1)), 0)


# ---------------------------------------------------------------------------
# make_windows / partition_windows
# ---------------------------------------------------------------------------

def test_make_windows_count():
    assert len(make_windows(np.zeros(10), 4, 2)) == 5


def test_make_windows_boundary_single():
    starts = make_windows(np.zeros(6), 4, 2)
    assert starts.tolist() == [0]


@pytest.mark.parametrize("seed", range(10))
def test_make_windows_matches_scan_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 100))
    T = int(rng.integers(1, 6))
    S = int(rng.integers(1, 5))
    valid = [t for t in range(n) if t + T + S <= n]
    assert make_windows(np.zeros(n), T, S).tolist() == valid


def test_make_windows_too_short():
    with pytest.raises(DataError, match="5.*look-back 4.*horizon 2"):
        make_windows(np.zeros(5), 4, 2)


def test_partition_windows_example():
    assert partition_windows(10, 4, 1).tolist() == [1, 5, 9]


def test_partition_windows_single_node_identity():
    assert partition_windows(7, 1, 0).tolist() == list(range(7))


@pytest.mark.parametrize("seed", range(20))
def test_partition_windows_set_algebra(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    nodes = int(rng.integers(1, 9))
    owned = [set(partition_windows(n, nodes, i).tolist()) for i in range(nodes)]
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


def test_gather_batch_windows_are_contiguous_non_overlapping():
    views, data = _views_for(n_nodes=2, node_id=0)
    starts = views["train"].starts[:3]
    x, Z, y = gather_batch(views["train"], starts)
    assert x.shape == (3, 24) and Z.shape == (3, 24, 2) and y.shape == (3, 8)
    for b, t in enumerate(starts):
        assert np.array_equal(x[b], data[t : t + 24, 0])
        assert np.array_equal(Z[b], data[t : t + 24, [1, 2]])
        assert np.array_equal(y[b], data[t + 24 : t + 32, 0])


def test_granularity_pairing_preserves_physical_patch_span():
    fine_views, _ = _views_for(n_nodes=2, node_id=0, stride=1)
    coarse_views, _ = _views_for(n_nodes=2, node_id=1, stride=4)
    fine, coarse = fine_views["train"].cfg, coarse_views["train"].cfg
    assert fine.PL * fine.stride == coarse.PL * coarse.stride
    assert fine.T * fine.stride == coarse.T * coarse.stride
    assert fine.S * fine.stride == coarse.S * coarse.stride
