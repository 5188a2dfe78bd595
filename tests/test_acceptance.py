"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The directional experiments (7-9) take a few minutes of CPU and are
marked `slow` (`-m "not slow"` skips them); the rest are near-instant.
"""

import json

import numpy as np
import pytest

from pixtime import (
    AttentionWeights,
    ClientDelta,
    ExperimentConfig,
    FederatedNode,
    FeedForwardWeights,
    ModelDims,
    NodeShapeConfig,
    PiXTime,
    Tensor,
    aggregate,
    client_update,
    evaluate,
    ffn,
    init_global_shared,
    layer_norm,
    mse,
    multi_head_attention,
    partition,
    persistence_baseline,
    run_experiment,
    run_federation,
    server_step,
    softmax,
)
from pixtime.cli import main as cli_main
from pixtime.data import SplitSpec, build_node_views, gather_batch
from pixtime.federation import ServerSGD
from pixtime.harness import _prepare, _train_federated


def _report(index: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index:02d} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


TINY_DIMS = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=4)
TINY_NODE = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)


# ---------------------------------------------------------------------------
# 1. gradient fidelity on the tiny model, all three workflows
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity(tmp_path):
    # gradcheck mode builds its own tiny model and inputs from the seed
    # (0 by default), so it runs from the command line with no config
    assert cli_main(["gradcheck", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "metrics.json").read_text())["gradcheck"]
    errors = {name: report[name]["max_rel_error"] for name in ("m2u", "m2m", "u2u")}
    _report(
        1, report["pass"] is True and all(error < 1e-5 for error in errors.values()),
        f"directional finite-difference rel. error m2u={errors['m2u']:.2e} "
        f"m2m={errors['m2m']:.2e} u2u={errors['u2u']:.2e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# 2. primitives vs naive loop oracles over 20 seeds
# ---------------------------------------------------------------------------

def _loop_softmax(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        m = x[i].max()
        e = np.array([np.exp(v - m) for v in x[i]])
        out[i] = e / e.sum()
    return out


def _loop_layer_norm(x, gain, bias, eps):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / np.sqrt(var + eps) * gain + bias
    return out


def _loop_attention(q, k, v, w, n_heads):
    d = q.shape[1]
    hd = d // n_heads
    Q = q @ w["w_q"] + w["b_q"]
    K = k @ w["w_k"]
    V = v @ w["w_v"] + w["b_v"]
    out = np.zeros((q.shape[0], d))
    for h in range(n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = Q[:, sl] @ K[:, sl].T / np.sqrt(hd)
        out[:, sl] = _loop_softmax(scores) @ V[:, sl]
    return out @ w["w_o"] + w["b_o"]


def _loop_ffn(x, w1, b1, w2, b2):
    from scipy.special import erf

    hidden = x @ w1 + b1
    hidden = hidden * 0.5 * (1 + erf(hidden / np.sqrt(2)))
    return hidden @ w2 + b2


def _loop_projection(tokens, W, b, M, D, S):
    out = np.zeros(S)
    for s in range(S):
        acc = 0.0
        for i in range(M):
            for d in range(D):
                acc += tokens[i, d] * W[i * D + d, s]
        out[s] = acc + b[s]
    return out


def test_criterion_02_primitive_oracles():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)

        x = rng.standard_normal((3, 6))
        worst = max(worst, np.max(np.abs(
            softmax(Tensor(x), axis=-1).data - _loop_softmax(x))))

        gain, bias = rng.standard_normal(6), rng.standard_normal(6)
        worst = max(worst, np.max(np.abs(
            layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
            - _loop_layer_norm(x, gain, bias, 1e-5))))

        w = {
            "w_q": rng.standard_normal((4, 4)), "b_q": rng.standard_normal(4),
            "w_k": rng.standard_normal((4, 4)),
            "w_v": rng.standard_normal((4, 4)), "b_v": rng.standard_normal(4),
            "w_o": rng.standard_normal((4, 4)), "b_o": rng.standard_normal(4),
        }
        bundle = AttentionWeights(**{k: Tensor(v) for k, v in w.items()})
        q, kv = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        worst = max(worst, np.max(np.abs(
            multi_head_attention(Tensor(q), Tensor(kv), bundle, 2).data
            - _loop_attention(q, kv, kv, w, 2))))

        w1, b1 = rng.standard_normal((4, 6)), rng.standard_normal(6)
        w2, b2 = rng.standard_normal((6, 4)), rng.standard_normal(4)
        f_bundle = FeedForwardWeights(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        worst = max(worst, np.max(np.abs(
            ffn(Tensor(q), f_bundle).data - _loop_ffn(q, w1, b1, w2, b2))))

        model = PiXTime(TINY_DIMS, TINY_NODE, seed=seed)
        tokens = rng.standard_normal((2, 8))
        expected = _loop_projection(
            tokens, model.proj_w.data, model.proj_b.data, 2, 8, 4
        )
        worst = max(worst, np.max(np.abs(
            model.projection(Tensor(tokens)).data - expected)))

    _report(2, worst < 1e-10, f"20-seed worst primitive deviation {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. heterogeneity shape contract across a 4-node network
# ---------------------------------------------------------------------------

def test_criterion_03_heterogeneous_network_round():
    dims = ModelDims(D=16, L=2, H=2, d_ff=32, n_all=8)
    plan = [  # (T, PL, C, S) with S scaled by each node's stride
        (96, 16, 3, 24),
        (48, 8, 5, 12),
        (24, 4, 2, 6),
        (96, 16, 7, 24),
    ]
    rng = np.random.default_rng(0)
    base = rng.standard_normal((2000, 8))
    nodes = []
    for node_id, (T, PL, C, S) in enumerate(plan):
        stride = 96 // T
        cfg = NodeShapeConfig(
            node_id=node_id, T=T, S=S, PL=PL,
            var_ids=list(range(1, C + 1)), target_id=0, stride=stride,
        )
        views = build_node_views(base, cfg, SplitSpec())
        nodes.append(FederatedNode(dims, cfg, views, seed=node_id, lr=1e-3))

    layouts = [
        ([(name, p.shape) for name, p in partition(n.model.params)[0].items()],
         n.model.n_shared)
        for n in nodes
    ]
    shapes_agree = all(layout == layouts[0] for layout in layouts)

    global_shared = init_global_shared(dims, seed=1)
    for node in nodes:
        node.load_shared(global_shared)
    records, _ = run_federation(nodes, global_shared, rounds=1, epochs=1,
                                server_optimizer=ServerSGD(1.0))
    round_done = len(records) == 1 and all(
        np.isfinite(v) for v in records[0].node_losses.values()
    )

    lengths_ok = True
    for node, (T, PL, C, S) in zip(nodes, plan):
        x, Z, _ = gather_batch(node.views["test"], node.views["test"].starts[:3])
        pred = node.model.forward(x, Z)
        lengths_ok = lengths_ok and pred.shape == (3, S)

    _report(
        3, shapes_agree and round_done and lengths_ok,
        f"shared maps identical={shapes_agree}, round completed={round_done}, "
        f"per-node horizon lengths correct={lengths_ok}",
    )


# ---------------------------------------------------------------------------
# 4. single-node federation equals standalone training
# ---------------------------------------------------------------------------

def test_criterion_04_federation_identity():
    raw = {
        "mode": "federated",
        "dataset": {"synthetic": {"n_vars": 4, "length": 1000}},
        "D": 8, "L": 2, "H": 2, "d_ff": 16,
        "network": {"n_nodes": 1, "strides": [1], "T": 24, "S": 8, "PL": 4},
        "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 2},
        "rounds": 3, "seed": 0, "out_dir": "unused",
    }
    config = ExperimentConfig.from_dict(raw)
    fed_nodes, _ = _train_federated(config, seed=0)
    # the standalone reference: the same node trains alone, with no server step
    (solo,), _ = _prepare(config, seed=0)
    for _ in range(config.rounds):
        solo.train_epochs(config.optimizer.epochs)
    diff = max(
        float(np.max(np.abs(fed_nodes[0].model.params[name].data
                            - solo.model.params[name].data)))
        for name in fed_nodes[0].model.params
    )
    _report(4, diff < 1e-12, f"max parameter difference {diff:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 5. variable-embedding aggregation masking
# ---------------------------------------------------------------------------

def _masking_nodes():
    dims = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=6)
    rng = np.random.default_rng(3)
    base = rng.standard_normal((400, 6))
    nodes = []
    for node_id, var_ids in enumerate([(1, 2), (2, 3)]):
        cfg = NodeShapeConfig(
            node_id=node_id, T=8, S=4, PL=4,
            var_ids=list(var_ids), target_id=0,
        )
        views = build_node_views(
            base, cfg, SplitSpec(), partition_count=2, partition_rank=node_id
        )
        nodes.append(FederatedNode(dims, cfg, views, seed=10 + node_id, lr=1e-3))
    return dims, nodes


def ve_masking() -> tuple:
    """(passed, detail) of criterion 5; the planted-bug register runs it too."""
    dims, nodes = _masking_nodes()
    global_shared = init_global_shared(dims, seed=4)

    # categories 4 and 5 appear on no node; category 1 only on node 0,
    # category 3 only on node 1
    untouched_before = global_shared["ve_table"][[4, 5]].copy()
    row3_before = global_shared["ve_table"][3].copy()

    results = [client_update(n, global_shared, epochs=1) for n in nodes]
    deltas = [d for d, _ in results]
    # not vacuous: every row a node looks up moved in its delta
    used_moved = all(d.deltas["ve_table"][n.cfg.var_ids].any(axis=1).all()
                     for d, n in zip(deltas, nodes))
    stepped = server_step(global_shared, aggregate(deltas), ServerSGD(1.0))
    single_user_diff = float(np.max(np.abs(
        (stepped["ve_table"][3] - row3_before) - deltas[1].deltas["ve_table"][3]
    )))

    for node in nodes:
        node.load_shared(stepped)
    _, final_shared = run_federation(nodes, stepped, rounds=4, epochs=1,
                                     server_optimizer=ServerSGD(1.0))
    untouched_ok = np.array_equal(final_shared["ve_table"][[4, 5]], untouched_before)

    return (
        used_moved and untouched_ok and single_user_diff < 1e-14,
        f"used rows moved in every delta={used_moved}, "
        f"unused rows bit-equal after 5 rounds={untouched_ok}, "
        f"single-user row delta mismatch {single_user_diff:.2e} (tol 1e-14)",
    )


def test_criterion_05_ve_masking():
    _report(5, *ve_masking())


# ---------------------------------------------------------------------------
# 6. aggregation algebra
# ---------------------------------------------------------------------------

def test_criterion_06_aggregation_algebra():
    rng = np.random.default_rng(5)
    deltas = [
        ClientDelta(
            node_id=i,
            deltas={"ve_table": rng.standard_normal((4, 3)),
                    "target_decoder.layer0.ffn.w1": rng.standard_normal((3, 3))},
            weight=float(rng.integers(1, 7)),
            ve_usage=np.array([True, i % 2 == 0, True, False]),
        )
        for i in range(5)
    ]
    base = aggregate(deltas)
    perm_ok = True
    for s in range(6):
        perm = np.random.default_rng(s).permutation(len(deltas))
        shuffled = aggregate([deltas[i] for i in perm])
        perm_ok = perm_ok and all(
            np.array_equal(base[n], shuffled[n]) for n in base
        )

    single = aggregate([deltas[0]])
    single_ok = np.array_equal(
        single["target_decoder.layer0.ffn.w1"],
        deltas[0].deltas["target_decoder.layer0.ffn.w1"],
    )

    spot = aggregate([
        ClientDelta(0, {"w": np.array([0.0])}, 1.0, np.array([True])),
        ClientDelta(1, {"w": np.array([4.0])}, 3.0, np.array([True])),
    ])
    spot_ok = spot["w"].tolist() == [3.0]

    _report(
        6, perm_ok and single_ok and spot_ok,
        f"permutation bit-invariance={perm_ok}, single-client identity={single_ok}, "
        f"weighted spot value={spot['w'][0]}",
    )


# ---------------------------------------------------------------------------
# 7. learning signal vs persistence baseline
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_learning_signal():
    ratios = []
    for seed in range(3):
        raw = {
            "mode": "federated",
            "dataset": {"synthetic": {"n_vars": 8, "length": 4000, "seed": 0}},
            "D": 32, "L": 2, "H": 4, "d_ff": 64,
            "network": {"n_nodes": 2, "strides": [1, 1], "T": 96, "S": 24, "PL": 16},
            "optimizer": {"lr": 1e-4, "batch_size": 32, "epochs": 1},
            "rounds": 10,  # 10 training epochs per node in total
            "seed": seed, "out_dir": "unused",
        }
        nodes, _ = _train_federated(ExperimentConfig.from_dict(raw), seed=seed)
        model_mse = float(np.mean([evaluate(n).mse for n in nodes]))
        baseline_mse = float(np.mean(
            [persistence_baseline(n.views["test"]).mse for n in nodes]
        ))
        ratios.append(model_mse / baseline_mse)
    median = float(np.median(ratios))
    _report(
        7, median <= 0.7,
        f"median test-MSE / persistence-MSE = {median:.3f} over seeds 0-2 "
        f"(need <= 0.70; per-seed {[round(r, 3) for r in ratios]})",
    )


# ---------------------------------------------------------------------------
# 8. granularity-mix direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_granularity_mix_direction(tmp_path):
    # seeds 0-2 of the mixed federation (a fine and a stride-4 coarse node)
    # against each granularity trained alone
    config = ExperimentConfig.from_dict({
        "mode": "ablate-granularity", "seed": 0, "n_seeds": 3, "ablation_stride": 4,
        "dataset": {"synthetic": {"n_vars": 8, "length": 4000, "seed": 0}},
        "D": 32, "L": 2, "H": 4, "d_ff": 64,
        "network": {"n_nodes": 2, "strides": [1, 4], "T": 96, "S": 24, "PL": 16},
        "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1},
        "rounds": 30, "out_dir": str(tmp_path),
    })
    settings = run_experiment(config).metrics["granularity"]["settings"]

    def median_mse(setting, label):
        return settings[setting]["median"][label]["mse"]

    coarse_ratio = median_mse("mix", "coarse") / median_mse("coarse", "coarse")
    fine_ratio = median_mse("mix", "fine") / median_mse("fine", "fine")
    _report(
        8, coarse_ratio <= 1.0 and fine_ratio <= 1.05,
        f"coarse mix/solo = {coarse_ratio:.3f} (need <= 1.0), "
        f"fine mix/solo = {fine_ratio:.3f} (need <= 1.05)",
    )


# ---------------------------------------------------------------------------
# 9. variable-embedding ablation direction
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_09_ve_ablation_direction(tmp_path):
    base = {
        "dataset": {"synthetic": {"n_vars": 8, "length": 4000, "seed": 0}},
        "D": 32, "L": 2, "H": 4, "d_ff": 64,
        "network": {"n_nodes": 8, "strides": [1] * 8, "T": 96, "S": 24, "PL": 16,
                    "subset_size": 3},
        "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1},
        "rounds": 30, "seed": 0, "out_dir": str(tmp_path),
    }

    # step-0 equivalence: with the zero-initialized table the two variants
    # produce bit-identical first-batch losses
    nodes_ve, _ = _prepare(ExperimentConfig.from_dict(base), 0)
    nodes_no, _ = _prepare(ExperimentConfig.from_dict({**base, "use_ve": False}), 0)
    view = nodes_ve[0].views["train"]
    x, Z, y = gather_batch(view, view.starts[:32])
    loss_ve = mse(nodes_ve[0].model.forward(x, Z), y).item()
    loss_no = mse(nodes_no[0].model.forward(x, Z), y).item()
    step0_ok = loss_ve == loss_no

    # seeds 0-2, each trained with and without the table
    config = ExperimentConfig.from_dict({**base, "mode": "ablate-ve", "n_seeds": 3})
    median = run_experiment(config).metrics["ve"]["sweeps"]["3"]["median"]
    ratio = median["ve"]["mse"] / median["nove"]["mse"]
    _report(
        9, step0_ok and ratio <= 1.05,
        f"step-0 losses bit-identical={step0_ok}, "
        f"median VE/NoVE MSE ratio = {ratio:.4f} (need <= 1.05)",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical replay
# ---------------------------------------------------------------------------

def test_criterion_10_replay_determinism(tmp_path):
    def run(out):
        raw = {
            "mode": "federated",
            "dataset": {"synthetic": {"n_vars": 4, "length": 1000}},
            "D": 8, "L": 2, "H": 2, "d_ff": 16,
            "network": {"n_nodes": 2, "strides": [1, 1], "T": 24, "S": 8, "PL": 4},
            "optimizer": {"lr": 1e-3, "batch_size": 32, "epochs": 1},
            "rounds": 2, "seed": 11, "out_dir": str(out),
        }
        run_experiment(ExperimentConfig.from_dict(raw))
        return (out / "metrics.json").read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    _report(
        10, first == second,
        f"metrics JSON byte-identical across replays ({len(first)} bytes)",
    )
