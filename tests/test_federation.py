"""Parameter decoupling, delta aggregation, server updates, round loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pixtime import (
    ClientDelta,
    FederatedNode,
    ModelDims,
    NodeShapeConfig,
    PiXTime,
    aggregate,
    client_update,
    init_global_shared,
    mse,
    partition,
    run_federation,
    server_step,
)
from pixtime.data import SplitSpec, build_node_views, gather_batch
from pixtime.errors import AggregationError, PartitionError
from pixtime.federation import ServerAdam, ServerSGD
from pixtime.model import is_shared
from pixtime.optim import Adam

DIMS = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=5)


def make_node(node_id=0, n_nodes=1, seed=0, n_rows=400, var_ids=(1, 2), lr=1e-3,
              batch_size=32, **kwargs) -> FederatedNode:
    rng = np.random.default_rng(100 + node_id if kwargs.pop("own_data", False) else 100)
    data = rng.standard_normal((n_rows, DIMS.n_all))
    cfg = NodeShapeConfig(
        node_id=node_id, T=8, S=4, PL=4,
        var_ids=list(var_ids), target_id=0,
    )
    views = build_node_views(
        data, cfg, SplitSpec(), partition_count=n_nodes, partition_rank=node_id
    )
    return FederatedNode(DIMS, cfg, views, seed=seed, lr=lr,
                         batch_size=batch_size, **kwargs)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def test_partition_examples():
    assert is_shared("ve_table")
    assert is_shared("aux_encoder.layer0.self_att.w_q")
    assert is_shared("target_decoder.layer1.ffn.w2")
    assert not is_shared("patch_linear.weight")
    assert not is_shared("ve_linear.weight")
    assert not is_shared("abstract_token")
    assert not is_shared("projection.bias")
    with pytest.raises(PartitionError):
        is_shared("pos_embed")


def test_partition_fails_closed_on_unknown_name():
    with pytest.raises(PartitionError):
        is_shared("mystery.weight")


def test_partition_covers_and_separates():
    model = make_node().model
    shared, local = partition(model.params)
    assert set(shared) | set(local) == set(model.params)
    assert not set(shared) & set(local)


def test_partition_counting_check():
    model = make_node().model
    shared, _ = partition(model.params)
    # derived from the layer composition: attention holds 4 weights plus
    # q/v/o biases, an ffn 4 tensors, a layer norm 2
    att, ffn_n, ln = 7, 4, 2
    per_encoder_layer = att + ffn_n + 2 * ln
    per_decoder_layer = att + ffn_n + 2 * ln
    cross_block = att + ln  # cross-attention + ln2, absent from the last layer
    expected = (1 + DIMS.L * per_encoder_layer + DIMS.L * per_decoder_layer
                + (DIMS.L - 1) * cross_block)
    assert len(shared) == expected


# ---------------------------------------------------------------------------
# client_update
# ---------------------------------------------------------------------------

def test_client_update_zero_epochs_zero_delta():
    node = make_node()
    global_shared = init_global_shared(DIMS, seed=7)
    delta, _ = client_update(node, global_shared, epochs=0)
    assert delta.weight == 0.0
    for value in delta.deltas.values():
        assert np.array_equal(value, np.zeros_like(value))


def test_client_update_delta_contains_only_shared_names():
    node = make_node()
    delta, _ = client_update(node, init_global_shared(DIMS, seed=7), epochs=1)
    for name in delta.deltas:
        assert is_shared(name)
        for local_root in ("patch_linear", "projection", "ve_linear", "abstract_token"):
            assert not name.startswith(local_root)


def test_client_update_overfits_single_repeated_batch():
    # 30 rows -> 10 train windows, all in one batch repeated every epoch
    node = make_node(n_rows=30, lr=1e-2, batch_size=32)
    view = node.views["train"]
    x, Z, y = gather_batch(view, view.starts)
    initial = mse(node.model.forward(x, Z), y).item()
    client_update(node, init_global_shared(DIMS, seed=7), epochs=200)
    final = mse(node.model.forward(x, Z), y).item()
    assert final < 0.01 * initial


def test_client_update_ve_usage_marks_target_and_auxiliaries():
    node = make_node(var_ids=(1, 3))
    delta, _ = client_update(node, init_global_shared(DIMS, seed=7), epochs=0)
    assert delta.ve_usage.tolist() == [True, True, False, True, False]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def _delta(node_id, value, weight, usage, n_all=3):
    return ClientDelta(
        node_id=node_id,
        deltas={"ve_table": np.full((n_all, 2), float(value)),
                "aux_encoder.layer0.ffn.w1": np.array([[float(value)]])},
        weight=weight,
        ve_usage=np.asarray(usage, dtype=bool),
    )


def test_aggregate_single_client_identity_bit_exact():
    d = _delta(0, 2.5, weight=17, usage=[True, True, False])
    pseudo = aggregate([d])
    for name in d.deltas:
        assert np.array_equal(
            pseudo[name][d.ve_usage] if name == "ve_table" else pseudo[name],
            d.deltas[name][d.ve_usage] if name == "ve_table" else d.deltas[name],
        )


def test_aggregate_equal_weights_mean():
    pseudo = aggregate([
        _delta(0, 2.0, 5, [True] * 3),
        _delta(1, 4.0, 5, [True] * 3),
    ])
    assert pseudo["aux_encoder.layer0.ffn.w1"].tolist() == [[3.0]]


def test_aggregate_weighted_mean_spot_values():
    pseudo = aggregate([
        _delta(0, 0.0, 1, [True] * 3),
        _delta(1, 4.0, 3, [True] * 3),
    ])
    assert pseudo["aux_encoder.layer0.ffn.w1"].tolist() == [[3.0]]


def test_aggregate_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    deltas = []
    for node_id in range(4):
        deltas.append(ClientDelta(
            node_id=node_id,
            deltas={"ve_table": rng.standard_normal((3, 2)),
                    "aux_encoder.layer0.ffn.w1": rng.standard_normal((2, 2))},
            weight=float(rng.integers(1, 9)),
            ve_usage=rng.random(3) > 0.3,
        ))
    if not any(d.ve_usage.any() for d in deltas):
        deltas[0].ve_usage[:] = True
    base = aggregate(deltas)
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(4)
        permuted = aggregate([deltas[i] for i in perm])
        for name in base:
            assert np.array_equal(base[name], permuted[name])


def test_aggregate_equal_weights_match_unweighted_mean():
    rng = np.random.default_rng(1)
    deltas = [
        ClientDelta(i, {"aux_encoder.layer0.ffn.w1": rng.standard_normal((3, 3))},
                    5.0, np.ones(2, dtype=bool))
        for i in range(4)
    ]
    pseudo = aggregate(deltas)
    stack = np.stack([d.deltas["aux_encoder.layer0.ffn.w1"] for d in deltas])
    assert np.max(np.abs(pseudo["aux_encoder.layer0.ffn.w1"] - stack.mean(axis=0))) < 1e-14


def test_aggregate_ve_rows_masked_by_usage():
    # category 0 used by both, category 1 only by node 1, category 2 by none
    d0 = _delta(0, 1.0, 1, [True, False, False])
    d1 = _delta(1, 3.0, 1, [True, True, False])
    pseudo = aggregate([d0, d1])
    row = pseudo["ve_table"]
    assert np.allclose(row[0], 2.0, atol=1e-14)   # mean of users
    assert np.array_equal(row[1], np.full(2, 3.0))  # single user, exact
    assert np.array_equal(row[2], np.zeros(2))      # no user -> zero


def test_aggregate_rejects_mismatched_names():
    d0 = _delta(0, 1.0, 1, [True] * 3)
    d1 = _delta(1, 1.0, 1, [True] * 3)
    del d1.deltas["ve_table"]
    with pytest.raises(AggregationError):
        aggregate([d0, d1])


def test_aggregate_rejects_mismatched_shapes():
    d0 = _delta(0, 1.0, 1, [True] * 3)
    d1 = _delta(1, 1.0, 1, [True] * 3)
    d1.deltas["ve_table"] = np.zeros((4, 2))
    with pytest.raises(AggregationError):
        aggregate([d0, d1])


def test_aggregate_requires_positive_total_weight():
    with pytest.raises(AggregationError):
        aggregate([_delta(0, 1.0, 0.0, [True] * 3)])


@st.composite
def _client_rounds(draw):
    """1-4 clients sharing one random layout, each with its own dict order."""
    n_all = draw(st.integers(1, 4))
    layout = draw(st.dictionaries(
        st.sampled_from(["aux_encoder.w", "target_decoder.b", "target_decoder.ln.g"]),
        array_shapes(min_dims=0, max_dims=2, max_side=3), max_size=3,
    ))
    if draw(st.booleans()):
        layout["ve_table"] = (n_all, draw(st.integers(1, 3)))
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True))
    values = st.floats(-10.0, 10.0, allow_nan=False)
    clients = []
    for node_id in ids:
        order = draw(st.permutations(sorted(layout)))
        clients.append(ClientDelta(
            node_id=node_id,
            deltas={name: draw(arrays(np.float64, layout[name], elements=values))
                    for name in order},
            weight=draw(st.floats(0.0, 1e3)),
            ve_usage=draw(arrays(np.bool_, n_all)),
        ))
    if sum(d.weight for d in clients) <= 0:
        clients[0].weight = 1.0
    return clients


def _aggregate_oracle(clients) -> dict:
    """The documented formula, one scalar at a time."""
    total = sum(d.weight for d in clients)
    out = {}
    for name, first in clients[0].deltas.items():
        acc = np.zeros(first.shape)
        for idx in np.ndindex(first.shape):
            if name == "ve_table":
                users = [d for d in clients if d.ve_usage[idx[0]]]
                row_weight = sum(d.weight for d in users)
                if row_weight > 0:
                    acc[idx] = sum(d.weight / row_weight * d.deltas[name][idx] for d in users)
            else:
                acc[idx] = sum(d.weight / total * d.deltas[name][idx] for d in clients)
        out[name] = acc
    return out


@settings(deadline=None, max_examples=200)
@given(clients=_client_rounds(), data=st.data())
def test_aggregate_property_matches_oracle_and_ignores_client_order(clients, data):
    pseudo = aggregate(clients)
    oracle = _aggregate_oracle(clients)
    assert list(pseudo) == sorted(oracle)
    for name, expected in oracle.items():
        np.testing.assert_allclose(pseudo[name], expected, rtol=0, atol=1e-12)

    shuffled = aggregate(data.draw(st.permutations(clients)))
    assert list(shuffled) == list(pseudo)
    for name in pseudo:
        assert np.array_equal(shuffled[name], pseudo[name])

    lone = clients[0]
    if lone.weight > 0:
        own = aggregate([lone])
        for name, delta in lone.deltas.items():
            if name == "ve_table":
                assert np.array_equal(own[name][lone.ve_usage], delta[lone.ve_usage])
                assert not own[name][~lone.ve_usage].any()
            else:
                assert np.array_equal(own[name], delta)


# ---------------------------------------------------------------------------
# server_step
# ---------------------------------------------------------------------------

def test_server_step_default_is_exact_addition():
    rng = np.random.default_rng(2)
    g = {"ve_table": rng.standard_normal((3, 2))}
    p = {"ve_table": rng.standard_normal((3, 2))}
    out = server_step(g, p)
    assert np.array_equal(out["ve_table"], g["ve_table"] + p["ve_table"])


def test_server_step_zero_pseudo_gradient_is_bit_noop():
    rng = np.random.default_rng(3)
    g = {"ve_table": rng.standard_normal((3, 2))}
    out = server_step(g, {"ve_table": np.zeros((3, 2))})
    assert np.array_equal(out["ve_table"], g["ve_table"])


def _count_adam_steps(monkeypatch) -> list:
    calls = []
    step = Adam.step

    def counted(opt):
        calls.append(opt)
        step(opt)

    monkeypatch.setattr(Adam, "step", counted)
    return calls


def test_server_adam_matches_scripted_recurrence(monkeypatch):
    calls = _count_adam_steps(monkeypatch)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = ServerAdam(lr=lr, beta1=b1, beta2=b2, eps=eps)
    theta = {"w": np.array([0.5])}
    pseudos = [0.3, -0.2, 0.9]

    observed = []
    for p in pseudos:
        theta = server_step(theta, {"w": np.array([p])}, opt)
        observed.append(float(theta["w"][0]))
    # the server steps through the one Adam, once per round
    assert len(calls) == len(pseudos) and len({id(c) for c in calls}) == 1

    # independent recurrence: Adam on the negated pseudo-gradient
    x, m, v = 0.5, 0.0, 0.0
    expected = []
    for t, p in enumerate(pseudos, start=1):
        g = -p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        expected.append(x)
    assert np.max(np.abs(np.array(observed) - np.array(expected))) < 1e-12


def test_server_adam_steps_all_names_as_one_flat_vector():
    rng = np.random.default_rng(4)
    g = {"b": rng.standard_normal(3), "a": rng.standard_normal((2, 2))}
    p = {"a": rng.standard_normal((2, 2)), "b": rng.standard_normal(3)}
    out = server_step(g, p, ServerAdam(lr=1e-2))
    assert list(out) == list(g)
    for name in g:
        assert out[name].shape == g[name].shape
        assert not np.shares_memory(out[name], g[name])
        # a first Adam step moves every coordinate by about lr along the pseudo-gradient
        assert np.allclose(out[name] - g[name], 1e-2 * np.sign(p[name]), atol=1e-8)


def test_sgd_server_round_calls_no_adam_step(monkeypatch):
    nodes = [make_node(node_id=i, n_nodes=2) for i in range(2)]
    global_shared = init_global_shared(DIMS, seed=0)
    calls = _count_adam_steps(monkeypatch)
    run_federation(nodes, global_shared, rounds=1, epochs=1)
    steps = sum(node.steps_taken for node in nodes)
    assert steps > 0
    assert {id(c) for c in calls} == {id(node.optimizer) for node in nodes}
    assert len(calls) == steps


def test_server_sgd_scaled_learning_rate():
    opt = ServerSGD(lr=0.5)
    out = opt.apply({"w": np.array([1.0])}, {"w": np.array([4.0])})
    assert out["w"].tolist() == [3.0]


# ---------------------------------------------------------------------------
# run_federation
# ---------------------------------------------------------------------------

def test_single_node_federation_equals_standalone_training():
    fed = make_node(node_id=0, seed=5)
    solo = make_node(node_id=0, seed=5)
    global_shared = init_global_shared(DIMS, seed=9)

    run_federation([fed], dict(global_shared), rounds=2, epochs=3)

    solo.load_shared(global_shared)
    solo.train_epochs(6)

    for name in fed.model.params:
        diff = np.max(np.abs(fed.model.params[name].data - solo.model.params[name].data))
        assert diff < 1e-12, f"{name}: {diff}"


def test_zero_rounds_leaves_models_unchanged():
    node = make_node(seed=6)
    before = {k: v.data.copy() for k, v in node.model.params.items()}
    records, _ = run_federation([node], init_global_shared(DIMS, seed=9), rounds=0, epochs=3)
    assert records == []
    for name, value in before.items():
        assert np.array_equal(node.model.params[name].data, value)


def test_symmetric_nodes_produce_identical_deltas_and_shared_params():
    # two bit-identical nodes (same data, init and batch ordering); only
    # the reporting identity differs
    a = make_node(node_id=0, n_nodes=1, seed=11)
    b = make_node(node_id=0, n_nodes=1, seed=11)
    b.cfg.node_id = 1

    global_shared = init_global_shared(DIMS, seed=12)
    for _ in range(3):
        da, _ = client_update(a, global_shared, epochs=1)
        db, _ = client_update(b, global_shared, epochs=1)
        for name in da.deltas:
            assert np.max(np.abs(da.deltas[name] - db.deltas[name])) < 1e-12
        global_shared = server_step(global_shared, aggregate([da, db]))
        a.load_shared(global_shared)
        b.load_shared(global_shared)
        for name in global_shared:
            assert np.array_equal(a.model.params[name].data, b.model.params[name].data)


def test_broadcast_correctness_and_no_local_leakage():
    nodes = [
        make_node(node_id=0, n_nodes=2, seed=13, var_ids=(1, 2)),
        make_node(node_id=1, n_nodes=2, seed=14, var_ids=(2, 3)),
    ]
    records, final_shared = run_federation(
        nodes, init_global_shared(DIMS, seed=15), rounds=3, epochs=1
    )
    assert len(records) == 3
    for rec in records:
        digests = set(rec.node_shared_digests.values())
        assert len(digests) == 1  # bit-identical shared params on every node
    # local parameters may differ across nodes
    local_diff = np.max(np.abs(
        nodes[0].model.params["patch_linear.weight"].data
        - nodes[1].model.params["patch_linear.weight"].data
    ))
    assert local_diff > 0
    for name, value in final_shared.items():
        assert np.array_equal(nodes[0].model.params[name].data, value)
    # only shared names leave a node
    for node in nodes:
        delta, _ = client_update(node, final_shared, epochs=1)
        assert list(delta.deltas) == list(partition(node.model.params)[0])
        assert all(is_shared(name) for name in delta.deltas)


def test_unused_ve_row_stays_at_initialization():
    # category 4 appears on no node
    nodes = [
        make_node(node_id=0, n_nodes=2, seed=16, var_ids=(1, 2)),
        make_node(node_id=1, n_nodes=2, seed=17, var_ids=(2, 3)),
    ]
    global_shared = init_global_shared(DIMS, seed=18)
    init_row = global_shared["ve_table"][4].copy()
    _, final_shared = run_federation(nodes, global_shared, rounds=5, epochs=1)
    assert np.array_equal(final_shared["ve_table"][4], init_row)


def test_single_user_ve_row_moves_by_exactly_that_delta():
    # category 3 is used only by node 1
    nodes = [
        make_node(node_id=0, n_nodes=2, seed=19, var_ids=(1, 2)),
        make_node(node_id=1, n_nodes=2, seed=20, var_ids=(2, 3)),
    ]
    global_shared = init_global_shared(DIMS, seed=21)
    before = global_shared["ve_table"][3].copy()
    results = [client_update(node, global_shared, epochs=1) for node in nodes]
    deltas = [d for d, _ in results]
    new_shared = server_step(global_shared, aggregate(deltas))
    moved = new_shared["ve_table"][3] - before
    assert np.max(np.abs(moved - deltas[1].deltas["ve_table"][3])) < 1e-14


def test_replay_determinism():
    def run():
        nodes = [
            make_node(node_id=0, n_nodes=2, seed=22, var_ids=(1, 2)),
            make_node(node_id=1, n_nodes=2, seed=23, var_ids=(2, 3)),
        ]
        records, shared = run_federation(
            nodes, init_global_shared(DIMS, seed=24), rounds=2, epochs=1
        )
        return records, shared

    rec1, shared1 = run()
    rec2, shared2 = run()
    for a, b in zip(rec1, rec2):
        assert a.node_losses == b.node_losses
        assert a.update_norms == b.update_norms
        assert a.node_shared_digests == b.node_shared_digests
    for name in shared1:
        assert np.array_equal(shared1[name], shared2[name])
