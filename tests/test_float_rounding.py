"""Results still match a checked-in record, up to float rounding.

`float_rounding.json` holds the `metrics.json` content of every training
mode (`federated` with either server optimizer, `central`, `ablate-ve`,
`ablate-granularity`) on one small config, and the m2m and u2u forecasts
of a fixed-seed model on fixed inputs, which `metrics.json` does not
cover. Structure, ints and strings must match exactly and every float to
a relative 1e-10. Reordering a float sum moves these numbers by about
1e-15; a change to the math, such as a layer-norm or Adam epsilon, moves
them by 1e-5 or more.

A change that alters the arithmetic on purpose regenerates the record,
and says what changed and why:

    PYTHONPATH=src python tests/test_float_rounding.py
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pixtime import ExperimentConfig, ModelDims, NodeShapeConfig, PiXTime, run_experiment
from pixtime.autodiff import no_grad

FIXTURE = Path(__file__).with_name("float_rounding.json")
RTOL = 1e-10

CONFIG = {
    "dataset": {"synthetic": {"n_vars": 5, "length": 1200}},
    "D": 16, "L": 2, "H": 2, "d_ff": 32,
    "network": {"n_nodes": 2, "strides": [1, 2], "T": 32, "S": 8, "PL": 8},
    "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1, "server_kind": "adam"},
    "rounds": 3,
    "seed": 0,
    "n_seeds": 1,
}
# case name -> (mode, server optimizer)
RUNS = {
    "federated-adam": ("federated", "adam"),
    "federated-sgd": ("federated", "sgd"),
    "central": ("central", "adam"),
    "ablate-ve": ("ablate-ve", "adam"),
    "ablate-granularity": ("ablate-granularity", "adam"),
}


def run_metrics(case: str, out_dir: Path) -> dict:
    """The `metrics.json` content of one run, without the release name it records."""
    mode, server_kind = RUNS[case]
    raw = copy.deepcopy(CONFIG)
    raw["optimizer"]["server_kind"] = server_kind
    config = ExperimentConfig.from_dict({**raw, "mode": mode, "out_dir": str(out_dir)})
    run_experiment(config)
    metrics = json.loads((out_dir / "metrics.json").read_text())
    del metrics["build"]
    return metrics


def forecasts() -> dict:
    """m2m and u2u forecasts of an untrained seed-3 model on seeded inputs."""
    dims = ModelDims(D=16, L=2, H=2, d_ff=32, n_all=5)
    cfg = NodeShapeConfig(node_id=0, T=32, S=8, PL=8, var_ids=[1, 2, 3], target_id=0)
    model = PiXTime(dims, cfg, seed=3)
    # a nonzero VE table, so the forecasts depend on it
    model.params["ve_table"].data[...] = np.random.default_rng(4).standard_normal((5, 16))
    rng = np.random.default_rng(5)
    all_series = rng.standard_normal((3, cfg.T, 4))
    x = rng.standard_normal((3, cfg.T))
    with no_grad():
        m2m = model.m2m_forward(all_series).data
        u2u = model.u2u_forward(x).data
    return {"m2m": m2m.tolist(), "u2u": u2u.tolist()}


def record(out_dir: Path) -> dict:
    runs = {case: run_metrics(case, out_dir / case) for case in RUNS}
    return {"config": CONFIG, "runs": runs, "forecasts": forecasts()}


def assert_matches(actual, expected, path: str = "$") -> None:
    """Exact structure, ints and strings; floats within RTOL of the record."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), (
            f"{path}: {actual!r} differs from the recorded {expected!r} by "
            f"{abs(actual - expected) / abs(expected):.2e} relative"
        )
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != recorded {expected!r}"
        )


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_record_was_made_on_this_config(expected):
    assert expected["config"] == CONFIG
    assert sorted(expected["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_metrics_match_the_record(case, expected, tmp_path):
    assert_matches(run_metrics(case, tmp_path), expected["runs"][case], case)


def test_m2m_and_u2u_forecasts_match_the_record(expected):
    assert_matches(forecasts(), expected["forecasts"], "forecasts")


def test_the_comparison_rejects_a_relative_change_of_1e_9(expected):
    moved = copy.deepcopy(expected["forecasts"])
    moved["u2u"][1][2] *= 1.0 + 1e-9
    with pytest.raises(AssertionError, match=r"forecasts.u2u\[1\]\[2\]"):
        assert_matches(moved, expected["forecasts"], "forecasts")
    moved = copy.deepcopy(expected["runs"]["central"])
    moved["nodes"][0]["node_id"] = 1
    with pytest.raises(AssertionError, match="node_id"):
        assert_matches(moved, expected["runs"]["central"], "central")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(json.dumps(record(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
