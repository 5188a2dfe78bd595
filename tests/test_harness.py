"""Config validation, metrics, experiment artifacts, CLI behavior."""

import copy
import csv
import json
import re
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import get_args
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pixtime import ExperimentConfig, evaluate, harness, persistence_baseline, run_experiment
from pixtime.cli import main as cli_main
from pixtime.data import SYNTHETIC_MINIMA, NodeDataView, RawDataset, SplitSpec, build_node_views
from pixtime.errors import ConfigError, EvaluationError
from pixtime.federation import FederatedNode
from pixtime.harness import (
    DatasetConfig,
    Metrics,
    NetworkConfig,
    OptimizerConfig,
    _prepare,
)
from pixtime.model import ModelDims, NodeShapeConfig


def small_config(tmp_path, mode="federated", **overrides):
    raw = {
        "mode": mode,
        "dataset": {"synthetic": {"n_vars": 4, "length": 1000}},
        "D": 8, "L": 1, "H": 2, "d_ff": 16,
        "network": {"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4},
        "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1},
        "rounds": 2,
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

INVALID_PATCHES = [
    {"D": 10, "H": 4},                                     # head divisibility
    {"network": {"n_nodes": 2, "strides": [1, 1], "T": 25, "S": 8, "PL": 4}},
    {"network": {"n_nodes": 2, "strides": [1, 3], "T": 24, "S": 8, "PL": 4}},
    {"network": {"n_nodes": 2, "strides": [1], "T": 24, "S": 8, "PL": 4}},
    {"network": {"n_nodes": 0, "strides": [], "T": 24, "S": 8, "PL": 4}},
    {"rounds": -1},
    {"optimizer": {"epochs": -2}},
    {"optimizer": {"batch_size": 0}},
    {"mode": "never-heard-of-it"},
    {"dataset": {}},
    {"L": 0},
    {"optimizer": {"lr": -1}},
    {"optimizer": {"lr": 0.0}},
    {"optimizer": {"lr": float("nan")}},
    {"optimizer": {"lr": float("inf")}},
    {"optimizer": {"lr": 1e-3, "server_kind": "adam", "server_lr": 0.0}},
    {"optimizer": {"lr": 1e-3, "server_lr": float("nan")}},
    {"n_seeds": 0},
    {"dataset": {"synthetic": {"n_vars": 4, "length": 1000, "bogus": 1}}},
    {"dataset": {"synthetic": {"length": 1000}}},
    {"use_pos_embed": True},                               # removed keys
    {"optimizer": {"shuffle": False}},
    {"optimizer": {"reset_client_opt": True}},
    {"dataset": {"synthetic": {"n_vars": 4, "length": 1000},
                 "split": {"train": float("nan"), "val": 0.1, "test": 0.2}}},
]


@pytest.mark.parametrize("patch", INVALID_PATCHES)
def test_invalid_configs_rejected_before_any_training(tmp_path, patch):
    raw = {
        "mode": "federated",
        "dataset": {"synthetic": {"n_vars": 4, "length": 1000}},
        "D": 8, "L": 1, "H": 2, "d_ff": 16,
        "network": {"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4},
        "optimizer": {"lr": 1e-3},
        "rounds": 2, "seed": 0, "out_dir": str(tmp_path / "out"),
    }
    raw.update(patch)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="walrus"):
        small_config(tmp_path, walrus=1)


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="optimizer"):
        small_config(tmp_path, optimizer={"lr": 1e-3, "momentum": 0.9})


VALID_RAW = {
    "mode": "federated",
    "dataset": {"csv": None, "synthetic": {"n_vars": 4, "length": 1000, "seed": 0},
                "split": {"train": 0.7, "val": 0.1, "test": 0.2}},
    "D": 8, "L": 1, "H": 2, "d_ff": 16,
    "network": {"n_nodes": 2, "strides": [1, 1], "subset_size": None,
                "T": 24, "S": 8, "PL": 4, "target_id": 0},
    "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1,
                  "server_kind": "sgd", "server_lr": None},
    "rounds": 2, "seed": 0, "out_dir": "out", "use_ve": True,
    "n_seeds": 1, "ablation_stride": 2, "subset_sizes": [],
}
# the path in a raw config of every field of the config dataclasses, and of
# every key of the synthetic block
CONFIG_BLOCKS = [
    ((), ExperimentConfig), (("dataset",), DatasetConfig), (("dataset", "split"), SplitSpec),
    (("network",), NetworkConfig), (("optimizer",), OptimizerConfig),
]
LEAF_PATHS = [path + (f.name,) for path, cls in CONFIG_BLOCKS for f in fields(cls)]
LEAF_PATHS += [("dataset", "synthetic", key) for key in SYNTHETIC_MINIMA]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _has_declared_type(value, declared) -> bool:
    kinds = get_args(declared) or (declared,)
    if isinstance(value, bool):
        return bool in kinds
    return isinstance(value, kinds) or (float in kinds and isinstance(value, int))


def _assert_declared_types(block) -> None:
    for f in fields(block):
        value = getattr(block, f.name)
        assert _has_declared_type(value, f.type), (f.name, value)
        if is_dataclass(value):
            _assert_declared_types(value)


def _leaf_block(raw: dict, path: tuple) -> dict:
    for key in path[:-1]:
        raw = raw[key]
    return raw


def test_property_base_config_is_valid_and_sets_every_leaf():
    _assert_declared_types(ExperimentConfig.from_dict(VALID_RAW))
    for path in LEAF_PATHS:
        assert path[-1] in _leaf_block(VALID_RAW, path), path


@settings(deadline=None, max_examples=400)
@given(path=st.sampled_from(LEAF_PATHS), value=JSON_VALUES)
def test_any_json_value_in_any_field_is_rejected_or_typed(path, value):
    """One field set to any value json.load can return: a ConfigError that
    names the field, or a config whose every field has its declared type;
    never another error."""
    raw = copy.deepcopy(VALID_RAW)
    _leaf_block(raw, path)[path[-1]] = value
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        assert path[-1] in str(exc), (path, value, str(exc))
        return
    _assert_declared_types(config)


# the least value of every integer a config holds, as the README's
# "Configuration" notes document it; a list field stands for its elements
DOCUMENTED_MINIMA = {
    "D": 1, "L": 1, "H": 1, "d_ff": 1, "rounds": 0, "seed": 0, "n_seeds": 1,
    "ablation_stride": 1, "subset_sizes[0]": 1,
    "network.n_nodes": 1, "network.strides[0]": 1, "network.subset_size": 1,
    "network.T": 1, "network.S": 1, "network.PL": 1, "network.target_id": 0,
    "optimizer.batch_size": 1, "optimizer.epochs": 1,
    "dataset.synthetic.n_vars": 2, "dataset.synthetic.length": 1000, "dataset.synthetic.seed": 0,
}


def _raw_with(dotted: str, value) -> dict:
    """VALID_RAW with the value at `dotted` set; `name[0]` is a list's first element."""
    raw = copy.deepcopy(VALID_RAW)
    *blocks, leaf = dotted.split(".")
    block = raw
    for key in blocks:
        block = block[key]
    if leaf.endswith("[0]"):
        leaf = leaf[:-3]
        block[leaf] = [value] + block[leaf][1:]
    else:
        block[leaf] = value
    return raw


def test_the_minima_table_covers_every_integer_leaf():
    declared = {path + (f.name,): f.type for path, cls in CONFIG_BLOCKS for f in fields(cls)}
    integers = set()
    for path in LEAF_PATHS:
        kind = declared.get(path, int)  # a synthetic key holds an integer
        kinds = get_args(kind) or (kind,)
        if list in kinds:  # every list field holds integers
            integers.add(".".join(path) + "[0]")
        elif int in kinds:
            integers.add(".".join(path))
    assert integers == set(DOCUMENTED_MINIMA)


@pytest.mark.parametrize("path, low", DOCUMENTED_MINIMA.items())
def test_every_integer_rejects_one_below_its_documented_minimum(path, low):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}={low - 1} must be >= {low}$"):
        ExperimentConfig.from_dict(_raw_with(path, low - 1))
    try:  # the minimum itself is not out of bounds (another rule may still reject it)
        ExperimentConfig.from_dict(_raw_with(path, low))
    except ConfigError as exc:
        assert not str(exc).startswith(f"{path}={low} must be >="), str(exc)


@pytest.mark.parametrize("path", [
    "optimizer.lr", "optimizer.server_lr",
    "dataset.split.train", "dataset.split.val", "dataset.split.test",
])
@pytest.mark.parametrize("value", [0, -1, 0.0, float("nan"), float("inf"),
                                   pytest.param(10**400, id="10**400")])
def test_every_number_must_be_positive_and_finite(path, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}=.* must be positive and finite$"):
        ExperimentConfig.from_dict(_raw_with(path, value))


def _four_column_csv(tmp_path):
    rows = ["a,b,c,d"] + [",".join(repr(float(v)) for v in r)
                          for r in np.random.default_rng(0).standard_normal((1000, 4))]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    return csv_path


def test_oversized_subset_rejected_at_build(tmp_path):
    # a csv's width is known only once it is read, so the check runs when it is
    csv_path = _four_column_csv(tmp_path)
    config = small_config(
        tmp_path,
        dataset={"csv": str(csv_path)},
        network={"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4,
                 "subset_size": 9},
    )
    message = f"network.subset_size=9 must be < the 4 columns of dataset.csv={csv_path}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _prepare(config, 0)


def test_ablate_ve_rejects_an_oversized_sweep_size_before_any_training(tmp_path, monkeypatch):
    csv_path = _four_column_csv(tmp_path)
    config = small_config(
        tmp_path, mode="ablate-ve", rounds=1, n_seeds=1, subset_sizes=[2, 5],
        dataset={"csv": str(csv_path)},
    )

    def train(*args):
        raise AssertionError("the size-2 sweep trained before size 5 was checked")

    monkeypatch.setattr(harness, "run_federation", train)
    message = f"subset_sizes[1]=5 must be < the 4 columns of dataset.csv={csv_path}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        harness.ablate_ve(config)


# ---------------------------------------------------------------------------
# evaluate / persistence_baseline
# ---------------------------------------------------------------------------

def _constant_view(values, T=4, S=2):
    series = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    cfg = NodeShapeConfig(node_id=0, T=T, S=S, PL=2, var_ids=[0], target_id=0)
    starts = np.arange(series.shape[0] - T - S + 1)
    return NodeDataView(series, starts, "test", cfg)


def test_persistence_on_constant_series_is_zero():
    view = _constant_view(np.full(12, 3.0))
    m = persistence_baseline(view)
    assert m.mse == 0.0 and m.mae == 0.0


def test_persistence_on_unit_ramp():
    # slope-1 ramp, S=2: repeated last value errs by 1 then 2 per window
    view = _constant_view(np.arange(12.0))
    m = persistence_baseline(view)
    assert m.mse == pytest.approx(2.5, abs=1e-12)
    assert m.mae == pytest.approx(1.5, abs=1e-12)
    assert m.per_step_mse == pytest.approx([1.0, 4.0], abs=1e-12)


def test_persistence_gathers_the_target_and_no_auxiliary(monkeypatch):
    gathered, gather_batch = [], harness.gather_batch

    def recorded_gather_batch(view, starts):
        batch = gather_batch(view, starts)
        gathered.append(tuple(a.shape for a in batch))
        return batch

    monkeypatch.setattr(harness, "gather_batch", recorded_gather_batch)
    view = _constant_view(np.arange(12.0))
    assert persistence_baseline(view).per_step_mse == pytest.approx([1.0, 4.0], abs=1e-12)
    assert gathered == [((7, 4), (7, 4, 0), (7, 2))]
    assert view.cfg.var_ids == [0]


def test_persistence_matches_loop_oracle():
    rng = np.random.default_rng(0)
    view = _constant_view(rng.standard_normal(40))
    m = persistence_baseline(view)
    sq, ab, count = 0.0, 0.0, 0
    for t in view.starts:
        last = view.series[t + 3, 0]
        for s in range(2):
            err = last - view.series[t + 4 + s, 0]
            sq += err * err
            ab += abs(err)
            count += 1
    assert m.mse == pytest.approx(sq / count, abs=1e-12)
    assert m.mae == pytest.approx(ab / count, abs=1e-12)


def test_evaluate_matches_two_pass_loop_oracle(tmp_path):
    config = small_config(tmp_path)
    nodes, _ = _prepare(config, 0)
    node = nodes[0]
    m = evaluate(node)
    view = node.views["test"]
    from pixtime.autodiff import no_grad
    from pixtime.data import gather_batch

    sq, ab, count = 0.0, 0.0, 0
    with no_grad():
        for t in view.starts:
            x, Z, y = gather_batch(view, [t])
            pred = node.model.forward(x, Z).data
            for s in range(view.cfg.S):
                err = pred[0, s] - y[0, s]
                sq += err * err
                ab += abs(err)
                count += 1
    assert m.mse == pytest.approx(sq / count, rel=1e-12)
    assert m.mae == pytest.approx(ab / count, rel=1e-12)


def test_evaluate_empty_split_raises():
    view = _constant_view(np.full(12, 3.0))
    view.starts = np.array([], dtype=np.intp)

    class FakeNode:
        views = {"test": view}

    with pytest.raises(EvaluationError):
        persistence_baseline(view)
    with pytest.raises(EvaluationError):
        evaluate(FakeNode(), view)
    with pytest.raises(EvaluationError):
        evaluate(FakeNode())


def test_perfect_predictions_give_zero_metrics(tmp_path):
    # model bias set to reproduce a constant series exactly
    config = small_config(tmp_path)
    nodes, _ = _prepare(config, 0)
    node = nodes[0]
    view = node.views["test"]
    constant = NodeDataView(np.zeros_like(view.series), view.starts, "test", view.cfg)
    for p in node.model.params.values():
        p.data[...] = 0.0
    m = evaluate(node, constant)
    assert m.mse == 0.0 and m.mae == 0.0


# ---------------------------------------------------------------------------
# run_experiment artifacts
# ---------------------------------------------------------------------------

def test_run_experiment_writes_exactly_three_files(tmp_path):
    config = small_config(tmp_path)
    result = run_experiment(config)
    files = sorted(p.name for p in result.out_dir.iterdir())
    assert files == ["config.json", "metrics.json", "rounds.csv"]


def test_run_experiment_metrics_are_byte_identical_across_reruns(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    run_experiment(config)
    config2 = small_config(tmp_path, out_dir=str(tmp_path / "b"))
    run_experiment(config2)
    a = (tmp_path / "a" / "metrics.json").read_bytes()
    b = (tmp_path / "b" / "metrics.json").read_bytes()
    assert a == b


def test_a_run_without_the_table_addition_builds_sends_and_logs_no_table(tmp_path):
    config = small_config(tmp_path, use_ve=False)
    nodes, global_shared = _prepare(config, 0)
    assert "ve_table" not in global_shared
    assert all("ve_table" not in node.model.params for node in nodes)
    run_experiment(config)
    rounds = (tmp_path / "out" / "rounds.csv").read_text()
    assert "target_decoder" in rounds and "ve_table" not in rounds


def _window_sets(nodes, split):
    return [set(node.views[split].starts.tolist()) for node in nodes]


@settings(deadline=None, max_examples=60)
@given(strides=st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=6),
       length=st.integers(200, 700),
       train=st.floats(0.3, 0.8), val=st.floats(0.01, 0.15))
@example(strides=[1, 4, 1, 4, 4], length=400, train=0.7, val=0.1)
@example(strides=[2], length=200, train=0.8, val=0.15)  # 5 test rows, 6-row windows
def test_build_nodes_splits_each_granularitys_windows_among_its_nodes(strides, length,
                                                                      train, val):
    T, S = 8, 4
    raw = {"dataset": {"synthetic": {"n_vars": 3, "length": 1000},
                       "split": {"train": train, "val": val, "test": 1.0 - train - val}},
           "D": 4, "L": 1, "H": 1, "d_ff": 4,
           "network": {"n_nodes": len(strides), "strides": strides, "T": T, "S": S, "PL": 4}}
    config = ExperimentConfig.from_dict(raw)
    series = np.random.default_rng(0).standard_normal((length, 3))
    expected = {}
    for k in set(strides):
        n = len(range(0, length, k))
        train_end, val_end = config.dataset.split.boundaries(n)
        window = (T + S) // k  # the rows of one window at this granularity
        expected[k] = {"train": set(range(train_end - window + 1)),
                       "val": set(range(train_end, val_end - window + 1)),
                       "test": set(range(val_end, n - window + 1))}
    if not all(e["test"] for e in expected.values()):
        # every mode scores the test split, so a node without a test window is a config error
        with pytest.raises(ConfigError, match=r"^dataset\.split\.test=.* holds no window"):
            harness.build_nodes(config, series, ModelDims(4, 1, 1, 4, 3), seed=0)
        return
    nodes = harness.build_nodes(config, series, ModelDims(4, 1, 1, 4, 3), seed=0)
    for k, windows in expected.items():
        group = [node for node, stride in zip(nodes, strides) if stride == k]
        for split in ("train", "val"):
            owned = _window_sets(group, split)
            assert sum(map(len, owned)) == len(set().union(*owned)), (k, split)  # disjoint
            assert set().union(*owned) == windows[split], (k, split)
        assert all(s == windows["test"] for s in _window_sets(group, "test")), k


def test_run_experiment_averaged_metrics_are_mean_of_nodes(tmp_path):
    result = run_experiment(small_config(tmp_path))
    report = result.metrics
    nodes = report["nodes"]
    assert report["average"]["mse"] == pytest.approx(
        np.mean([n["mse"] for n in nodes]), abs=1e-12
    )
    assert report["average"]["mae"] == pytest.approx(
        np.mean([n["mae"] for n in nodes]), abs=1e-12
    )
    for n in nodes:
        assert np.isfinite(n["mse"]) and np.isfinite(n["mae"])


def test_zero_round_federated_run_evaluates_untrained_models(tmp_path):
    result = run_experiment(small_config(tmp_path, rounds=0))
    for n in result.metrics["nodes"]:
        assert np.isfinite(n["mse"])
    rows = (result.out_dir / "rounds.csv").read_text().splitlines()
    assert rows[0].startswith("round,")
    assert len(rows) == 1  # header only


def test_evaluate_mode_is_a_zero_round_federated_run(tmp_path):
    # the evaluate config keeps rounds: 2, which evaluate mode does not run
    evaluated = run_experiment(small_config(tmp_path, mode="evaluate", out_dir=str(tmp_path / "e")))
    federated = run_experiment(small_config(tmp_path, rounds=0, out_dir=str(tmp_path / "f")))
    metrics = []
    for result in (evaluated, federated):
        assert (result.out_dir / "rounds.csv").read_text() == ",".join(harness.ROUND_COLUMNS) + "\n"
        metrics.append(json.loads((result.out_dir / "metrics.json").read_text()))
    assert (metrics[0].pop("mode"), metrics[1].pop("mode")) == ("evaluate", "federated")
    assert metrics[0] == metrics[1]


def test_config_echo_round_trips(tmp_path):
    config = small_config(tmp_path)
    result = run_experiment(config)
    echoed = json.loads((result.out_dir / "config.json").read_text())
    rebuilt = ExperimentConfig.from_dict(echoed)
    assert rebuilt == config


def test_central_mode_trains_single_node(tmp_path):
    result = run_experiment(small_config(tmp_path, mode="central", rounds=1, L=2))
    assert len(result.metrics["nodes"]) == 1
    rows = (result.out_dir / "rounds.csv").read_text().splitlines()
    assert len(rows) == 3  # header + the round's node row and server row
    node_row, server_row = (row.split(",") for row in rows[1:])
    assert node_row[:3] == ["0", "node", "0"] and node_row[4:] == ["", ""]
    assert server_row[:4] == ["0", "server", "", ""]
    # a one-node federation: the server row holds the shared-update norms
    norms = dict(pair.split("=") for pair in server_row[4].split(";"))
    assert norms and all(float(v) > 0 for v in norms.values())
    assert float(server_row[5]) > 0


def _standalone_errors(config, stride):
    """Test errors of one node of `stride` trained alone: no server, no federation."""
    raw = config.to_dict()
    raw["network"].update(n_nodes=1, strides=[stride])
    (node,), _ = _prepare(ExperimentConfig.from_dict(raw), config.seed)
    for _ in range(config.rounds):
        node.train_epochs(config.optimizer.epochs)
    return evaluate(node).to_dict()


def _assert_errors_match(got, want):
    for stat in ("mse", "mae", "per_step_mse"):
        np.testing.assert_allclose(got[stat], want[stat], rtol=1e-12, atol=0)


# a one-node FedAvg is standalone training only with the identity server step,
# so central and solo runs must not take the config's server optimizer
SERVERS = [{"server_kind": "adam"}, {"server_kind": "adam", "server_lr": 0.5},
           {"server_kind": "sgd", "server_lr": 0.5}]


@pytest.mark.parametrize("server", SERVERS)
def test_central_mode_is_standalone_training_whatever_the_server(tmp_path, server):
    config = small_config(
        tmp_path, mode="central",
        optimizer={"lr": 1e-3, "batch_size": 32, "epochs": 1, **server},
    )
    node = run_experiment(config).metrics["nodes"][0]
    _assert_errors_match(node, _standalone_errors(config, 1))


@pytest.mark.parametrize("server", SERVERS)
def test_solo_granularity_settings_are_standalone_training_whatever_the_server(
    tmp_path, server
):
    config = small_config(
        tmp_path, mode="ablate-granularity", rounds=1, n_seeds=1, ablation_stride=2,
        network={"n_nodes": 2, "strides": [1, 2], "T": 24, "S": 8, "PL": 4},
        optimizer={"lr": 1e-3, "batch_size": 32, "epochs": 1, **server},
    )
    settings = run_experiment(config).metrics["granularity"]["settings"]
    for name, stride in (("fine", 1), ("coarse", 2)):
        _assert_errors_match(settings[name]["seeds"][0][name], _standalone_errors(config, stride))


def test_ablate_granularity_report_has_exactly_three_settings(tmp_path):
    config = small_config(
        tmp_path, mode="ablate-granularity", rounds=1, n_seeds=1, ablation_stride=2,
        network={"n_nodes": 2, "strides": [1, 2], "T": 24, "S": 8, "PL": 4},
    )
    result = run_experiment(config)
    block = result.metrics["granularity"]["settings"]
    assert sorted(block) == ["coarse", "fine", "mix"]
    for setting in block.values():
        for stats in setting["median"].values():
            assert {"mse", "mae"} <= set(stats)


def test_ablate_ve_report_pairs_variants(tmp_path):
    config = small_config(
        tmp_path, mode="ablate-ve", rounds=1, n_seeds=1, subset_sizes=[2],
        network={"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4,
                 "subset_size": 2},
    )
    result = run_experiment(config)
    sweep = result.metrics["ve"]["sweeps"]["2"]
    assert set(sweep["median"]) == {"ve", "nove"}
    assert len(sweep["seeds"]) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_config(tmp_path, **overrides):
    raw = {
        "dataset": {"synthetic": {"n_vars": 4, "length": 1000}},
        "D": 8, "L": 1, "H": 2, "d_ff": 16,
        "network": {"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4},
        "optimizer": {"lr": 1e-3, "epochs": 1},
        "rounds": 1,
        "seed": 0,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_train_fed_exits_zero(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert cli_main(["train-fed", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "average" in out


def test_train_fed_logs_a_nonzero_update_norm_for_every_shared_parameter(tmp_path):
    path = _write_config(tmp_path, L=2, rounds=2)
    assert cli_main(["train-fed", "--config", str(path)]) == 0
    with open(tmp_path / "out" / "rounds.csv", newline="") as f:
        server_rows = [row for row in csv.DictReader(f) if row["kind"] == "server"]
    assert len(server_rows) == 2
    for row in server_rows:
        norms = dict(pair.split("=") for pair in row["detail"].split(";"))
        zero = sorted(name for name, value in norms.items() if float(value) == 0.0)
        assert norms and not zero, (row["round"], zero)


def test_cli_rejects_invalid_config_with_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, D=10, H=4)
    assert cli_main(["train-fed", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def _network(**fields):
    return {"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4, **fields}


def _synthetic(**fields):
    return {"dataset": {"synthetic": {"n_vars": 4, "length": 1000, **fields}}}


@pytest.mark.parametrize("overrides", [
    {"dataset": {"synthetic": {"n_vars": 4, "length": 1000, "bogus": 1}}},
    {"optimizer": {"lr": -1, "epochs": 1}},
    {"n_seeds": 0},
    {"network": _network(PL=0)},
    {"H": 0},
    {"D": 0},
    {"network": _network(subset_size=-1)},
    {"network": _network(subset_size=0)},
    {"network": _network(subset_size=True)},
    {"network": _network(target_id=-1)},
    {"optimizer": {"lr": 1e-3, "batch_size": 1.5}},
    {"rounds": 1.5},
    {"L": 1.5},
    {"optimizer": {"lr": 1e-3, "epochs": 1.5}},
    {"seed": -1},
    {"d_ff": 0},
    {"ablation_stride": 0},
    {"network": _network(strides=1)},
    {"optimizer": {"lr": 1e-3, "server_kind": "bogus"}},
    {"use_pos_embed": True},
    {"optimizer": {"lr": 1e-3, "shuffle": False}},
    {"optimizer": {"lr": 1e-3, "reset_client_opt": True}},
    _synthetic(n_vars="x"),
    _synthetic(n_vars=True),
    _synthetic(n_vars=1),
    _synthetic(length=4000.5),
    _synthetic(length=999),
    _synthetic(seed=-1),
    _synthetic(couplings=3),
    _synthetic(noise_sigma="a"),
    _synthetic(period_range=[0, 0]),
    {"network": _network(target_id=4)},
    {"network": _network(subset_size=4)},
    {"subset_sizes": [2, 4]},
    {"out_dir": 5},
    {"dataset": {"csv": 0}},
    {"dataset": {"csv": 5}},
    {"dataset": 5},
    {"use_ve": "no"},
    {"optimizer": {"lr": True, "epochs": 1}},
    {"optimizer": {"lr": 1e-3, "epochs": 1, "server_lr": True}},
    {"optimizer": {"lr": 1e-3, "epochs": 0}},
    {"dataset": {"synthetic": {"n_vars": 4, "length": 1000},
                 "split": {"train": "a", "val": 0.1, "test": 0.2}}},
])
def test_cli_rejects_bad_values_with_exit_2_before_any_io(tmp_path, capsys, monkeypatch,
                                                          overrides):
    def no_io(config):
        raise AssertionError("the dataset was loaded before the config was rejected")

    monkeypatch.setattr("pixtime.harness.load_dataset", no_io)
    path = _write_config(tmp_path, **overrides)
    assert cli_main(["train-fed", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[1]", "null", '"federated"'])
def test_cli_rejects_a_config_that_is_not_an_object_with_exit_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli_main(["train-fed", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{", '{"D": }'])
def test_cli_rejects_malformed_json_with_exit_2_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli_main(["train-fed", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


# config files json cannot decode: bytes that are not UTF-8, nesting deeper
# than the decoder's recursion limit, an integer longer than int() converts
UNDECODABLE_CONFIGS = [b'{"D": \xff}', b"[" * 100_000, b'{"D": ' + b"1" * 5000 + b"}"]


@pytest.mark.parametrize("command", ["train-fed", "gen-synthetic"])
@pytest.mark.parametrize("content", UNDECODABLE_CONFIGS, ids=["utf8", "nesting", "digits"])
def test_cli_rejects_an_undecodable_config_with_exit_2_naming_the_file(tmp_path, capsys,
                                                                       command, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    out = tmp_path / "out.csv"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: not valid JSON")
    assert not out.exists()


def _with_leaf(path, value):
    raw = copy.deepcopy(VALID_RAW)
    _leaf_block(raw, path)[path[-1]] = value
    return raw


# a config file's bytes: arbitrary bytes, any JSON value, a valid config with
# one leaf set to any JSON value, or a synthetic block of any values; the
# small integers let some files pass the config check
LEAF_VALUES = JSON_VALUES | st.integers(0, 2000)
CONFIG_FILES = st.one_of(
    st.binary(max_size=64),
    st.one_of(
        JSON_VALUES,
        st.builds(_with_leaf, st.sampled_from(LEAF_PATHS), LEAF_VALUES),
        st.dictionaries(st.sampled_from(sorted(SYNTHETIC_MINIMA)), LEAF_VALUES),
    ).map(lambda value: json.dumps(value).encode()),
)


@pytest.mark.parametrize("command", ["train-fed", "gen-synthetic"])
@settings(deadline=None, max_examples=300)
@example(content=UNDECODABLE_CONFIGS[0])
@example(content=UNDECODABLE_CONFIGS[1])
@given(content=CONFIG_FILES)
def test_cli_exits_0_1_or_2_on_any_config_file(command, content):
    """With the run itself stubbed out, `cli.main` on any config file returns
    an exit code and never raises."""
    run = SimpleNamespace(metrics={}, out_dir="out", duration_s=0.0)
    dataset = RawDataset(["target", "aux00"], np.zeros((2, 2)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("pixtime.cli.run_experiment", return_value=run), \
            mock.patch("pixtime.cli.generate_synthetic", return_value=dataset):
        path = Path(tmp) / "config.json"
        path.write_bytes(content)
        code = cli_main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("value", ["a", None, [0.7], True])
def test_a_split_fraction_of_the_wrong_type_is_named_by_its_field(value):
    raw = {"dataset": {"synthetic": {"n_vars": 4, "length": 1000},
                       "split": {"train": value, "val": 0.1, "test": 0.2}}}
    with pytest.raises(ConfigError, match=r"^dataset\.split\.train=.* must be a number$"):
        ExperimentConfig.from_dict(raw)


def test_cli_diverging_run_exits_1_naming_node_and_step_and_writes_nothing(tmp_path, capsys):
    # lr 1e300 makes the first Adam step overflow the weights, so the
    # second forward pass of node 0 is the first to produce non-finite values
    path = _write_config(tmp_path, L=2, network={"n_nodes": 2, "strides": [1, 1], "T": 16,
                                                   "S": 4, "PL": 4},
                         optimizer={"lr": 1e300, "epochs": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error line is the only report
        assert cli_main(["train-fed", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert ("error: node 0 diverged at step 1: multi_head_attention produced "
            "non-finite values from finite inputs") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-fed", "train-central", "evaluate",
                                     "ablate-granularity", "ablate-ve"])
def test_cli_a_test_split_without_a_window_exits_2_before_training(tmp_path, capsys,
                                                                   monkeypatch, command):
    def train_epochs(self, epochs):
        pytest.fail("a node trained on a config whose test split holds no window")

    monkeypatch.setattr(FederatedNode, "train_epochs", train_epochs)
    # 1000 rows leave 50 test rows; one window spans T + S = 80
    path = _write_config(tmp_path, rounds=3,
                         dataset={"synthetic": {"n_vars": 4, "length": 1000},
                                  "split": {"train": 0.85, "val": 0.1, "test": 0.05}},
                         network={"n_nodes": 2, "strides": [1, 1], "T": 64, "S": 16, "PL": 16})
    assert cli_main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("config error: dataset.split.test=0.05 holds no window for node 0 at stride 1: "
            "one spans network.T + network.S = 80 rows") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-fed", "train-central", "evaluate",
                                     "ablate-granularity", "ablate-ve"])
def test_cli_a_csv_of_the_target_alone_exits_2_naming_it_before_any_model(tmp_path, capsys,
                                                                          monkeypatch, command):
    def build_nodes(*args):
        pytest.fail("nodes were built for a dataset with no auxiliary")

    monkeypatch.setattr(harness, "build_nodes", build_nodes)
    csv_path = tmp_path / "data.csv"
    values = np.random.default_rng(0).standard_normal(1000)
    csv_path.write_text("target\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    path = _write_config(tmp_path, n_seeds=1, dataset={"csv": str(csv_path)})
    assert cli_main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: the 1 columns of dataset.csv={csv_path} hold no auxiliary: "
            "a dataset needs >= 2 columns") in err
    assert not (tmp_path / "out").exists()


def test_cli_ablation_stride_that_does_not_divide_the_windows_is_named(tmp_path, capsys):
    path = _write_config(tmp_path, ablation_stride=3,
                         network={"n_nodes": 1, "strides": [1], "T": 16, "S": 4, "PL": 4})
    assert cli_main(["ablate-granularity", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert ("config error: ablation_stride=3 does not divide network.T=16; "
            "granularity pairing needs integral window lengths") in err
    assert not (tmp_path / "out").exists()
    # the other modes never read the ablation stride
    raw = json.loads(path.read_text())
    for mode in ("federated", "central", "evaluate", "ablate-ve"):
        ExperimentConfig.from_dict({**raw, "mode": mode})


def test_cli_non_finite_csv_cell_names_file_row_and_column(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = ["a,b,c,d"] + [",".join(repr(float(v)) for v in r)
                          for r in rng.standard_normal((1000, 4))]
    rows[7] = "0.5,nan,0.5,0.5"
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    path = _write_config(tmp_path, dataset={"csv": str(csv_path)})
    assert cli_main(["train-fed", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "data.csv: non-finite cell at row 8, column 'b'" in err


def test_cli_seed_and_out_overrides(tmp_path):
    path = _write_config(tmp_path)
    out = tmp_path / "elsewhere"
    assert cli_main(["evaluate", "--config", str(path), "--seed", "7",
                     "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 7


def test_cli_gen_synthetic_round_trips(tmp_path):
    out = tmp_path / "gen" / "data.csv"
    assert cli_main(["gen-synthetic", "--out", str(out), "--n-vars", "4",
                     "--length", "1200", "--seed", "3"]) == 0
    from pixtime import generate_synthetic, load_csv

    loaded = load_csv(out)
    reference = generate_synthetic(4, 1200, seed=3)
    assert np.array_equal(loaded.values, reference.values)


@pytest.mark.parametrize("block", [
    {"bogus": 1},
    {"n_vars": "x"},
    {"length": 4000.5},
    {"seed": -1},
    {"noise_sigma": 0.1},
    [4, 1000],
])
def test_cli_gen_synthetic_rejects_bad_config_with_exit_2(tmp_path, capsys, block):
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps(block))
    out = tmp_path / "data.csv"
    assert cli_main(["gen-synthetic", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-synthetic", "train-fed"])
def test_cli_synthetic_spec_too_large_to_allocate_exits_2_and_writes_nothing(
        tmp_path, capsys, command):
    # 10**15 rows are 7 PiB per column: numpy refuses them without touching memory
    length = 10**15
    if command == "gen-synthetic":
        argv = ["gen-synthetic", "--out", str(tmp_path / "out" / "data.csv"),
                "--length", str(length)]
    else:
        path = _write_config(tmp_path, dataset={"synthetic": {"n_vars": 4, "length": length}})
        argv = ["train-fed", "--config", str(path)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: dataset.synthetic.length={length} with n_vars=")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_gen_synthetic_config_overrides_flags(tmp_path):
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps({"n_vars": 3, "seed": 5}))
    out = tmp_path / "data.csv"
    assert cli_main(["gen-synthetic", "--config", str(path), "--out", str(out),
                     "--length", "1000"]) == 0
    from pixtime import generate_synthetic, load_csv

    assert np.array_equal(load_csv(out).values, generate_synthetic(3, 1000, seed=5).values)


def test_cli_missing_config_file_is_runtime_error(tmp_path, capsys):
    assert cli_main(["train-fed", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_readme_config_block_matches_the_config_dataclasses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    raw = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    raw["out_dir"] = str(tmp_path / "out")
    ExperimentConfig.from_dict(raw)
    levels = [
        (raw, ExperimentConfig),
        (raw["network"], NetworkConfig),
        (raw["optimizer"], OptimizerConfig),
        (raw["dataset"], DatasetConfig),
        (raw["dataset"]["split"], SplitSpec),
    ]
    for block, cls in levels:
        assert set(block) == set(cls.__dataclass_fields__), cls.__name__
