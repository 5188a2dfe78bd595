"""Config validation, metrics, experiment artifacts, CLI behavior."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pixtime import ExperimentConfig, evaluate, persistence_baseline, run_experiment
from pixtime.cli import main as cli_main
from pixtime.data import NodeDataView, SplitSpec, build_node_views
from pixtime.errors import ConfigError, EvaluationError
from pixtime.harness import DatasetConfig, Metrics, NetworkConfig, OptimizerConfig, _prepare
from pixtime.model import NodeShapeConfig


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


def test_oversized_subset_rejected_at_build(tmp_path):
    # a csv's width is known only once it is read, so the check runs at build
    rows = ["a,b,c,d"] + [",".join(repr(float(v)) for v in r)
                          for r in np.random.default_rng(0).standard_normal((1000, 4))]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    config = small_config(
        tmp_path,
        dataset={"csv": str(csv_path)},
        network={"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4,
                 "subset_size": 9},
    )
    with pytest.raises(ConfigError):
        _prepare(config, 0)


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


def test_gradcheck_mode_reports_small_error(tmp_path):
    result = run_experiment(small_config(tmp_path, mode="gradcheck"))
    block = result.metrics["gradcheck"]
    assert block["pass"] is True
    for wf in ("m2u", "m2m", "u2u"):
        assert block[wf]["max_rel_error"] < 1e-4


def test_config_echo_round_trips(tmp_path):
    config = small_config(tmp_path)
    result = run_experiment(config)
    echoed = json.loads((result.out_dir / "config.json").read_text())
    rebuilt = ExperimentConfig.from_dict(echoed)
    assert rebuilt == config


def test_central_mode_trains_single_node(tmp_path):
    result = run_experiment(small_config(tmp_path, mode="central", rounds=1))
    assert len(result.metrics["nodes"]) == 1
    rows = (result.out_dir / "rounds.csv").read_text().splitlines()
    assert len(rows) == 3  # header + the round's node row and server row
    node_row, server_row = (row.split(",") for row in rows[1:])
    assert node_row[:3] == ["0", "node", "0"] and node_row[4:] == ["", ""]
    assert server_row[:5] == ["0", "server", "", "", ""]
    assert float(server_row[5]) > 0


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
