"""PiXTime architecture: embedding, encoder, decoder, projection, workflows."""

import numpy as np
import pytest
from scipy.special import erf

from pixtime import (
    ModelDims,
    NodeShapeConfig,
    PiXTime,
    Tensor,
    backward,
    grad_check,
    mse,
    partition,
)
from pixtime import model as model_module
from pixtime.errors import CategoryError, ConfigError, ShapeError


def tiny_model(seed=0, use_ve=True, n_all=4):
    dims = ModelDims(D=8, L=1, H=2, d_ff=16, n_all=n_all)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    return PiXTime(dims, cfg, seed=seed, use_ve=use_ve)


# ---------------------------------------------------------------------------
# numpy reference pieces (independent of the autodiff path they check)
# ---------------------------------------------------------------------------

def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def np_attention(q, k, v, p, prefix, n_heads):
    d = q.shape[-1]
    hd = d // n_heads
    Q = q @ p[f"{prefix}.w_q"] + p[f"{prefix}.b_q"]
    K = k @ p[f"{prefix}.w_k"]
    V = v @ p[f"{prefix}.w_v"] + p[f"{prefix}.b_v"]
    heads = []
    for h in range(n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = Q[:, sl] @ K[:, sl].T / np.sqrt(hd)
        heads.append(np_softmax(scores) @ V[:, sl])
    return np.concatenate(heads, axis=1) @ p[f"{prefix}.w_o"] + p[f"{prefix}.b_o"]


def np_ffn(x, p, prefix):
    return np_gelu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def np_values(model):
    return {name: param.data for name, param in model.params.items()}


# ---------------------------------------------------------------------------
# the patch split inside patch_embed
# ---------------------------------------------------------------------------

def _patches(x, PL):
    """The patches `patch_embed` cuts `x` into: its patch tokens under an
    identity projection, which copies each patch exactly."""
    x = np.asarray(x, dtype=float)
    cfg = NodeShapeConfig(node_id=0, T=x.shape[-1], S=1, PL=PL, var_ids=[1], target_id=0)
    model = PiXTime(ModelDims(D=PL, L=1, H=1, d_ff=2, n_all=2), cfg)
    model.patch_w.data[...] = np.eye(PL)
    return model.patch_embed(x).data[..., 1:, :]


def test_patch_split_example():
    out = _patches([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 2)
    assert out.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


def test_patch_split_benchmark_shape():
    assert _patches(np.arange(96.0), 16).shape == (6, 16)


def test_patch_split_identity():
    assert _patches([7.0], 1).tolist() == [[7.0]]


def test_patch_split_roundtrip_is_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 24))
    assert np.array_equal(_patches(x, 4).reshape(3, -1), x)


def test_patch_split_error_names_lengths():
    # the geometry is checked once, when the model is built
    cfg = NodeShapeConfig(node_id=0, T=7, S=1, PL=3, var_ids=[1], target_id=0)
    with pytest.raises(ShapeError, match="T=7 is not a multiple of patch length PL=3"):
        PiXTime(ModelDims(D=4, L=1, H=1, d_ff=2, n_all=2), cfg)


# ---------------------------------------------------------------------------
# patch_embed
# ---------------------------------------------------------------------------

def test_patch_embed_zero_params_zero_output():
    model = tiny_model()
    model.patch_w.data[...] = 0.0
    model.patch_b.data[...] = 0.0
    model.abstract_token.data[...] = 0.0
    out = model.patch_embed(np.random.default_rng(0).standard_normal(8))
    assert np.array_equal(out.data, np.zeros((3, 8)))


def test_patch_embed_row0_is_abstract_token():
    model = tiny_model(seed=3)
    x = np.random.default_rng(1).standard_normal(8)
    out = model.patch_embed(x)
    assert np.array_equal(out.data[0], model.abstract_token.data)


def test_patch_embed_hand_matmul():
    dims = ModelDims(D=3, L=1, H=1, d_ff=4, n_all=2)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[1], target_id=0)
    model = PiXTime(dims, cfg, seed=0)
    W = np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 0.0]])
    b = np.array([0.1, 0.2, 0.3])
    model.patch_w.data[...] = W
    model.patch_b.data[...] = b
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = model.patch_embed(x).data
    for j, patch in enumerate([x[0:2], x[2:4]]):
        assert np.max(np.abs(out[j + 1] - (patch @ W + b))) < 1e-14


def test_patch_embed_batched_shape():
    model = tiny_model()
    out = model.patch_embed(np.zeros((5, 8)))
    assert out.shape == (5, 3, 8)


# ---------------------------------------------------------------------------
# variable_embed
# ---------------------------------------------------------------------------

def test_variable_embed_zero_table_is_pure_linear():
    model = tiny_model(seed=2)  # table starts at zero
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((8, 2))
    out = model.variable_embed(Z).data
    expected = Z.T @ model.ve_w.data + model.ve_b.data
    assert np.array_equal(out, expected)


def test_variable_embed_zero_linear_returns_table_rows():
    model = tiny_model(seed=2)
    model.ve_w.data[...] = 0.0
    model.ve_b.data[...] = 0.0
    rng = np.random.default_rng(3)
    model.ve_table.data[...] = rng.standard_normal(model.ve_table.shape)
    out = model.variable_embed(rng.standard_normal((8, 2))).data
    assert np.array_equal(out, model.ve_table.data[[1, 2]])


def test_variable_embed_hand_case():
    dims = ModelDims(D=3, L=1, H=1, d_ff=4, n_all=3)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[0, 2], target_id=1)
    model = PiXTime(dims, cfg, seed=1)
    rng = np.random.default_rng(4)
    model.ve_table.data[...] = rng.standard_normal((3, 3))
    Z = rng.standard_normal((4, 2))
    out = model.variable_embed(Z).data
    for c, vid in enumerate([0, 2]):
        expected = Z[:, c] @ model.ve_w.data + model.ve_b.data + model.ve_table.data[vid]
        assert np.max(np.abs(out[c] - expected)) < 1e-14


def test_variable_embed_category_error():
    model = tiny_model()
    with pytest.raises(CategoryError):
        model.variable_embed(np.zeros((8, 2)), var_ids=[1, 9])


# ---------------------------------------------------------------------------
# aux_encoder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("C", [1, 3, 7])
def test_aux_encoder_preserves_shape(C):
    model = tiny_model(seed=5)
    out = model.aux_encoder(Tensor(np.random.default_rng(C).standard_normal((C, 8))))
    assert out.shape == (C, 8)


def test_aux_encoder_permutation_equivariant():
    model = tiny_model(seed=6)
    rng = np.random.default_rng(6)
    V = rng.standard_normal((5, 8))
    perm = rng.permutation(5)
    base = model.aux_encoder(Tensor(V)).data
    permuted = model.aux_encoder(Tensor(V[perm])).data
    assert np.max(np.abs(permuted - base[perm])) < 1e-12


def test_aux_encoder_matches_staged_oracle():
    dims = ModelDims(D=4, L=1, H=1, d_ff=6, n_all=3)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=7)
    p = np_values(model)
    rng = np.random.default_rng(7)
    V = rng.standard_normal((2, 4))

    att = np_attention(V, V, V, p, "aux_encoder.layer0.self_att", 1)
    h = np_layer_norm(V + att, p["aux_encoder.layer0.ln1.gain"], p["aux_encoder.layer0.ln1.bias"])
    f = np_ffn(h, p, "aux_encoder.layer0.ffn")
    expected = np_layer_norm(h + f, p["aux_encoder.layer0.ln2.gain"], p["aux_encoder.layer0.ln2.bias"])

    out = model.aux_encoder(Tensor(V)).data
    assert np.max(np.abs(out - expected)) < 1e-10


# ---------------------------------------------------------------------------
# decoder_layer
# ---------------------------------------------------------------------------

def test_decoder_layer_cross_attention_touches_only_row0():
    dims = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=4)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=8)
    rng = np.random.default_rng(8)
    tokens = Tensor(rng.standard_normal((3, 8)))
    v1 = Tensor(rng.standard_normal((2, 8)))
    v2 = Tensor(rng.standard_normal((2, 8)))
    out1 = model.decoder_layer(tokens, v1, 0).data
    out2 = model.decoder_layer(tokens, v2, 0).data
    # rows 1..M go through stages (i) and (iii) only, token-wise
    assert np.array_equal(out1[1:], out2[1:])
    assert np.max(np.abs(out1[0] - out2[0])) > 0


def test_decoder_layer_single_auxiliary_weight_is_one():
    # C=1: the cross-attention softmax collapses to weight exactly 1, so
    # swapping in any other single token with equal projected value set
    # is equivalent to attending to that token alone
    dims = ModelDims(D=4, L=2, H=1, d_ff=6, n_all=3)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[1], target_id=0)
    model = PiXTime(dims, cfg, seed=9)
    p = np_values(model)
    rng = np.random.default_rng(9)
    tokens = rng.standard_normal((3, 4))
    v = rng.standard_normal((1, 4))

    att = np_attention(tokens, tokens, tokens, p, "target_decoder.layer0.self_att", 1)
    t1 = np_layer_norm(tokens + att, p["target_decoder.layer0.ln1.gain"],
                       p["target_decoder.layer0.ln1.bias"])
    # attention over a single key/value reduces to its projected value
    prefix = "target_decoder.layer0.cross_att"
    cross = (v @ p[f"{prefix}.w_v"] + p[f"{prefix}.b_v"]) @ p[f"{prefix}.w_o"] + p[f"{prefix}.b_o"]
    head = np_layer_norm(t1[0:1] + cross, p["target_decoder.layer0.ln2.gain"],
                         p["target_decoder.layer0.ln2.bias"])
    out = model.decoder_layer(Tensor(tokens), Tensor(v), 0).data
    t2 = np.concatenate([head, t1[1:]], axis=0)
    expected = np_layer_norm(
        t2 + np_ffn(t2, p, "target_decoder.layer0.ffn"),
        p["target_decoder.layer0.ln3.gain"], p["target_decoder.layer0.ln3.bias"],
    )
    assert np.max(np.abs(out - expected)) < 1e-10


def test_decoder_layer_matches_three_stage_oracle():
    dims = ModelDims(D=4, L=2, H=1, d_ff=6, n_all=3)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=10)
    p = np_values(model)
    rng = np.random.default_rng(10)
    tokens = rng.standard_normal((3, 4))  # M=2 plus abstract token
    v = rng.standard_normal((2, 4))

    att = np_attention(tokens, tokens, tokens, p, "target_decoder.layer0.self_att", 1)
    t1 = np_layer_norm(tokens + att, p["target_decoder.layer0.ln1.gain"],
                       p["target_decoder.layer0.ln1.bias"])
    cross = np_attention(t1[0:1], v, v, p, "target_decoder.layer0.cross_att", 1)
    head = np_layer_norm(t1[0:1] + cross, p["target_decoder.layer0.ln2.gain"],
                         p["target_decoder.layer0.ln2.bias"])
    t2 = np.concatenate([head, t1[1:]], axis=0)
    expected = np_layer_norm(
        t2 + np_ffn(t2, p, "target_decoder.layer0.ffn"),
        p["target_decoder.layer0.ln3.gain"], p["target_decoder.layer0.ln3.bias"],
    )
    out = model.decoder_layer(Tensor(tokens), Tensor(v), 0).data
    assert np.max(np.abs(out - expected)) < 1e-10


def test_last_decoder_layer_matches_staged_oracle():
    # patch rows query; all M + 1 rows, abstract token included, are keys and values
    dims = ModelDims(D=4, L=2, H=2, d_ff=6, n_all=3)
    cfg = NodeShapeConfig(node_id=0, T=4, S=2, PL=2, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=29)
    p = np_values(model)
    rng = np.random.default_rng(29)
    tokens = rng.standard_normal((3, 4))
    v = rng.standard_normal((2, 4))

    prefix = "target_decoder.layer1"
    att = np_attention(tokens[1:], tokens, tokens, p, f"{prefix}.self_att", 2)
    t1 = np_layer_norm(tokens[1:] + att, p[f"{prefix}.ln1.gain"], p[f"{prefix}.ln1.bias"])
    expected = np_layer_norm(
        t1 + np_ffn(t1, p, f"{prefix}.ffn"), p[f"{prefix}.ln3.gain"], p[f"{prefix}.ln3.bias"]
    )
    out = model.decoder_layer(Tensor(tokens), Tensor(v), 1).data
    assert out.shape == (2, 4)
    assert np.max(np.abs(out - expected)) < 1e-10


def np_full_last_layer(tokens, v, p, prefix, cross, n_heads):
    """The last decoder layer as it was with cross-attention and ln2, abstract row dropped."""
    att = np_attention(tokens, tokens, tokens, p, f"{prefix}.self_att", n_heads)
    t1 = np_layer_norm(tokens + att, p[f"{prefix}.ln1.gain"], p[f"{prefix}.ln1.bias"])
    head = np_layer_norm(t1[0:1] + np_attention(t1[0:1], v, v, cross, "cross_att", n_heads),
                         cross["ln2.gain"], cross["ln2.bias"])
    t2 = np.concatenate([head, t1[1:]], axis=0)
    out = np_layer_norm(t2 + np_ffn(t2, p, f"{prefix}.ffn"),
                        p[f"{prefix}.ln3.gain"], p[f"{prefix}.ln3.bias"])
    return out[1:]


def test_last_decoder_layer_equals_full_layer_for_any_cross_attention():
    # the removed cross-attention and ln2 only ever wrote the abstract row,
    # which the projection drops: any weights for them give the same output
    dims = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=4)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=30)
    assert not any(name.startswith(("target_decoder.layer1.cross_att",
                                    "target_decoder.layer1.ln2")) for name in model.params)
    p = np_values(model)
    rng = np.random.default_rng(30)
    tokens = rng.standard_normal((3, 8))
    v = rng.standard_normal((2, 8))
    out = model.decoder_layer(Tensor(tokens), Tensor(v), 1).data

    for draw in (31, 32):
        r = np.random.default_rng(draw)
        cross = {f"cross_att.{k}": r.standard_normal((8, 8)) for k in ("w_q", "w_k", "w_v", "w_o")}
        cross.update({f"cross_att.{k}": r.standard_normal(8) for k in ("b_q", "b_v", "b_o")})
        cross.update({"ln2.gain": r.standard_normal(8), "ln2.bias": r.standard_normal(8)})
        expected = np_full_last_layer(tokens, v, p, "target_decoder.layer1", cross, 2)
        assert np.max(np.abs(out - expected)) < 1e-12, draw


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_zero_weight_returns_bias():
    model = tiny_model(seed=11)
    model.proj_w.data[...] = 0.0
    b = np.array([1.0, -2.0, 3.0, 0.5])
    model.proj_b.data[...] = b
    out = model.projection(Tensor(np.random.default_rng(11).standard_normal((2, 8))))
    assert np.array_equal(out.data, b)


def test_projection_ignores_abstract_token_row():
    # the last decoder layer returns the M patch rows alone, so the
    # abstract-token row never reaches the projection
    model = tiny_model(seed=12)
    rng = np.random.default_rng(12)
    x, Z = rng.standard_normal(8), rng.standard_normal((8, 2))
    v_enc = model.aux_encoder(model.variable_embed(Z))
    tokens = model.decoder_layer(model.patch_embed(x), v_enc, model.dims.L - 1)
    assert tokens.shape == (2, 8)
    assert np.array_equal(model.projection(tokens).data, model.forward(x, Z).data)


def test_projection_hand_case():
    dims = ModelDims(D=2, L=1, H=1, d_ff=4, n_all=2)
    cfg = NodeShapeConfig(node_id=0, T=4, S=3, PL=2, var_ids=[1], target_id=0)
    model = PiXTime(dims, cfg, seed=13)
    rng = np.random.default_rng(13)
    W = rng.standard_normal((4, 3))  # M*D = 4 -> S = 3
    b = rng.standard_normal(3)
    model.proj_w.data[...] = W
    model.proj_b.data[...] = b
    tokens = rng.standard_normal((2, 2))
    out = model.projection(Tensor(tokens)).data
    expected = tokens.reshape(-1) @ W + b
    assert np.max(np.abs(out - expected)) < 1e-14


# ---------------------------------------------------------------------------
# forward / m2m / u2u
# ---------------------------------------------------------------------------

HETERO_CONFIGS = [
    (96, 16, 3, 24),
    (48, 8, 5, 12),
    (24, 4, 2, 6),
    (96, 16, 7, 24),
]


@pytest.mark.parametrize("T,PL,C,S", HETERO_CONFIGS)
def test_forward_output_length_matches_horizon(T, PL, C, S):
    dims = ModelDims(D=8, L=1, H=2, d_ff=16, n_all=9)
    cfg = NodeShapeConfig(
        node_id=0, T=T, S=S, PL=PL, var_ids=list(range(1, C + 1)), target_id=0
    )
    model = PiXTime(dims, cfg, seed=14)
    rng = np.random.default_rng(14)
    out = model.forward(rng.standard_normal(T), rng.standard_normal((T, C)))
    assert out.shape == (S,)


def test_forward_deterministic_bit_identical():
    model = tiny_model(seed=15)
    rng = np.random.default_rng(15)
    x, Z = rng.standard_normal(8), rng.standard_normal((8, 2))
    assert np.array_equal(model.forward(x, Z).data, model.forward(x, Z).data)


def test_forward_batch_matches_single():
    model = tiny_model(seed=16)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((4, 8))
    Z = rng.standard_normal((4, 8, 2))
    batched = model.forward(x, Z).data
    for i in range(4):
        single = model.forward(x[i], Z[i]).data
        assert np.max(np.abs(batched[i] - single)) < 1e-12


def test_shared_parameter_names_and_shapes_agree_across_heterogeneous_nodes():
    dims = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=9)
    layouts = []
    for node_id, (T, PL, C, S) in enumerate(HETERO_CONFIGS):
        cfg = NodeShapeConfig(
            node_id=node_id, T=T, S=S, PL=PL,
            var_ids=list(range(1, C + 1)), target_id=0,
        )
        model = PiXTime(dims, cfg, seed=node_id)
        shared, _ = partition(model.params)
        layouts.append(([(name, p.shape) for name, p in shared.items()], model.n_shared))
    for other in layouts[1:]:
        assert other == layouts[0]


def test_token_dimension_constant_at_module_boundaries():
    model = tiny_model(seed=17)
    rng = np.random.default_rng(17)
    x, Z = rng.standard_normal(8), rng.standard_normal((8, 2))
    v = model.variable_embed(Z)
    enc = model.aux_encoder(v)
    tokens = model.patch_embed(x)
    dec = model.decoder_layer(tokens, enc, 0)
    assert v.shape[-1] == enc.shape[-1] == tokens.shape[-1] == dec.shape[-1] == 8


def test_m2m_single_variable_equals_u2u():
    model = tiny_model(seed=18)
    rng = np.random.default_rng(18)
    x = rng.standard_normal(8)
    m2m = model.m2m_forward(x[:, None], var_ids=[0]).data
    u2u = model.u2u_forward(x).data
    assert np.max(np.abs(m2m[0] - u2u)) < 1e-12


@pytest.mark.parametrize("n_var", [2, 5])
def test_m2m_output_shape(n_var):
    dims = ModelDims(D=8, L=1, H=2, d_ff=16, n_all=6)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=19)
    series = np.random.default_rng(19).standard_normal((8, n_var))
    out = model.m2m_forward(series, var_ids=list(range(n_var)))
    assert out.shape == (n_var, 4)


def test_m2m_batch_matches_per_variable_decoding():
    model = tiny_model(seed=20)
    rng = np.random.default_rng(20)
    series = rng.standard_normal((8, 2))
    ids = [0, 1]
    batched = model.m2m_forward(series, var_ids=ids).data

    # unbatched oracle: decode each variable separately against the same
    # encoded auxiliaries
    v_enc = model.aux_encoder(model.variable_embed(series, ids))
    for col in range(2):
        tokens = model.patch_embed(series[:, col])
        for layer in range(model.dims.L):
            tokens = model.decoder_layer(tokens, v_enc, layer)
        single = model.projection(tokens).data
        assert np.max(np.abs(batched[col] - single)) < 1e-12


# ---------------------------------------------------------------------------
# blocked decoding: the decoder runs in blocks of DECODE_BLOCK target sequences
# ---------------------------------------------------------------------------

def _two_layer_model(seed=24):
    dims = ModelDims(D=8, L=2, H=2, d_ff=16, n_all=8)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=list(range(1, 8)), target_id=0)
    return PiXTime(dims, cfg, seed=seed)


CALLS = {"forward": lambda m, series: m.forward(series[..., 0], series[..., 1:]),
         "m2m": lambda m, series: m.m2m_forward(series)}


def _decode_both_ways(monkeypatch, mode, lead, block, loss=False):
    """(output, gradients) of `mode` on inputs with leading shape `lead`, decoded
    in one block and in blocks of `block` target sequences."""
    results = []
    for size in (10**9, block):
        monkeypatch.setattr(model_module, "DECODE_BLOCK", size)
        model = _two_layer_model()
        rng = np.random.default_rng(24)
        out = CALLS[mode](model, rng.standard_normal(lead + (8, 8)))
        if loss:
            backward(mse(out, rng.standard_normal(out.shape)))
        results.append((out.data, model.grads.copy()))
    return results


# forward decodes 1 sequence per window and m2m 8 (the target and 7 auxiliaries);
# at these sizes 11 windows make blocks of 4, 4 and 3 windows in both modes
BLOCKS = {"forward": 4, "m2m": 32}


@pytest.mark.parametrize("mode", list(CALLS))
def test_blocked_decode_equals_one_block_bit_for_bit(monkeypatch, mode):
    (one, _), (blocked, _) = _decode_both_ways(monkeypatch, mode, (11,), BLOCKS[mode])
    assert np.array_equal(blocked, one)


@pytest.mark.parametrize("mode", list(CALLS))
def test_blocked_decode_gradients_equal_one_block(monkeypatch, mode):
    (one, g_one), (blocked, g_blocked) = _decode_both_ways(
        monkeypatch, mode, (11,), BLOCKS[mode], loss=True)
    assert np.array_equal(blocked, one)
    # a parameter's gradient sums the blocks' contributions, in another order
    # than one GEMM over all rows, so only float rounding separates the two
    assert np.array_equal(g_blocked == 0.0, g_one == 0.0)
    np.testing.assert_allclose(g_blocked, g_one, rtol=0, atol=1e-14 * np.abs(g_one).max())


# numpy may pick another product kernel for a block whose leading axis is short
# (a one-row GEMV, a stack it cannot hand to BLAS), so these agree up to rounding
@pytest.mark.parametrize("mode, lead, block", [
    ("forward", (), 1),         # (M + 1, D) tokens have no window axis: one block
    ("m2m", (), 3),             # unbatched, though 8 variables lead: one block
    ("forward", (2, 5), 5),     # 5 sequences per leading index: blocks of 1 index
    ("m2m", (2, 5), 40),        # 40 per leading index: blocks of 1 index
])
def test_blocked_decode_keeps_unbatched_and_two_leading_axes(monkeypatch, mode, lead, block):
    (one, _), (blocked, _) = _decode_both_ways(monkeypatch, mode, lead, block)
    assert blocked.shape == one.shape == lead + ((8, 4) if mode == "m2m" else (4,))
    np.testing.assert_allclose(blocked, one, rtol=1e-13, atol=1e-15)


# (tokens, v_aux) shapes each decoder layer sees at DECODE_BLOCK = 32, 2 layers per block
@pytest.mark.parametrize("lead, blocks", [
    # 8 target sequences per window: blocks of 4, 4 and 3 windows
    ((11,), [((4, 8, 3, 8), (4, 8, 8))] * 4 + [((3, 8, 3, 8), (3, 8, 8))] * 2),
    # unbatched: the variable axis leads and the (C, D) memory has no window axis
    ((), [((8, 3, 8), (8, 8))] * 2),
], ids=["batched", "unbatched"])
def test_blocked_m2m_cuts_tokens_and_encoded_auxiliaries_together(monkeypatch, lead, blocks):
    monkeypatch.setattr(model_module, "DECODE_BLOCK", 32)
    seen = []
    layer_fn = PiXTime.decoder_layer

    def traced(model, tokens, v_aux, layer, /):  # the benchmark tracer's positional call
        seen.append((tokens.shape, v_aux.shape))
        return layer_fn(model, tokens, v_aux, layer)

    monkeypatch.setattr(PiXTime, "decoder_layer", traced)
    series = np.random.default_rng(25).standard_normal(lead + (8, 8))
    assert _two_layer_model().m2m_forward(series).shape == lead + (8, 4)
    assert seen == blocks


def test_a_default_m2u_training_step_records_111_tape_nodes():
    # the shape of configs/fed-2node.json's node 0 at batch 32: one decoder block
    dims = ModelDims(D=32, L=2, H=4, d_ff=64, n_all=8)
    cfg = NodeShapeConfig(node_id=0, T=96, S=24, PL=16, var_ids=list(range(1, 8)), target_id=0)
    model = PiXTime(dims, cfg, seed=0)
    rng = np.random.default_rng(26)
    loss = mse(model.forward(rng.standard_normal((32, 96)), rng.standard_normal((32, 96, 7))),
               rng.standard_normal((32, 24)))
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) == 111


def test_m2m_rejects_empty_variable_set():
    model = tiny_model()
    with pytest.raises((ConfigError, ShapeError)):
        model.m2m_forward(np.zeros((8, 0)), var_ids=[])


@pytest.mark.parametrize("columns, ids, n_ids", [(2, [0, 1, 2], 3), (3, [0, 1], 2), (2, None, 3)])
def test_m2m_rejects_a_series_whose_columns_do_not_match_its_ids(columns, ids, n_ids):
    # the default ids are the target and the node's two auxiliaries
    with pytest.raises(ShapeError, match=f"has {columns} columns but {n_ids} ids given"):
        tiny_model().m2m_forward(np.zeros((8, columns)), var_ids=ids)


def test_u2u_equals_forward_with_copied_column():
    model = tiny_model(seed=21)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(8)
    via_forward = model.forward(x, x[:, None], var_ids=[0]).data
    assert np.array_equal(model.u2u_forward(x).data, via_forward)


# ---------------------------------------------------------------------------
# gradients through the full model
# ---------------------------------------------------------------------------

def test_forward_gradients_match_finite_differences():
    model = tiny_model(seed=22)
    rng = np.random.default_rng(22)
    x, Z = rng.standard_normal(8), rng.standard_normal((8, 2))
    y = rng.standard_normal(4)
    report = grad_check(lambda: mse(model.forward(x, Z), y), model.params)
    assert report.max_rel_error < 1e-4, str(report)


def test_u2u_gradients_match_finite_differences():
    model = tiny_model(seed=23)
    rng = np.random.default_rng(23)
    x, y = rng.standard_normal(8), rng.standard_normal(4)
    report = grad_check(lambda: mse(model.u2u_forward(x), y), model.params)
    assert report.max_rel_error < 1e-4, str(report)


# u2u has one variable token, so each encoder self-attention and the
# cross-attention see a single key: the softmax is constant and these
# query/key weights get an exactly-zero gradient by the math
U2U_ZERO_GRADIENT = frozenset(
    f"{block}.{name}"
    for block in ("aux_encoder.layer0.self_att", "aux_encoder.layer1.self_att",
                  "target_decoder.layer0.cross_att")
    for name in ("w_q", "b_q", "w_k")
)


@pytest.mark.parametrize("use_ve", [True, False])
def test_every_live_parameter_gets_a_gradient(use_ve):
    # without the table addition the model must not hold a table at all
    dims = ModelDims(D=32, L=2, H=4, d_ff=64, n_all=8)
    cfg = NodeShapeConfig(node_id=0, T=96, S=24, PL=16, var_ids=list(range(1, 8)), target_id=0)
    model = PiXTime(dims, cfg, seed=33, use_ve=use_ve)
    rng = np.random.default_rng(33)
    series = rng.standard_normal((32, 96, 8))
    x, Z = series[..., 0], series[..., 1:]
    runs = {
        "m2u": (lambda: model.forward(x, Z), rng.standard_normal((32, 24)), frozenset()),
        "m2m": (lambda: model.m2m_forward(series), rng.standard_normal((32, 8, 24)),
                frozenset()),
        "u2u": (lambda: model.u2u_forward(x), rng.standard_normal((32, 24)), U2U_ZERO_GRADIENT),
    }
    for mode, (run, y, exempt) in runs.items():
        model.grads[...] = 0.0
        backward(mse(run(), y))
        zero = {name for name, p in model.params.items() if not p.grad.any()}
        assert zero == exempt, (mode, sorted(zero ^ exempt))


# ---------------------------------------------------------------------------
# variable-embedding ablation equivalence
# ---------------------------------------------------------------------------

def test_zero_table_forward_bit_identical_to_no_ve_model():
    with_ve = tiny_model(seed=24, use_ve=True)
    without = tiny_model(seed=24, use_ve=False)
    rng = np.random.default_rng(24)
    x, Z = rng.standard_normal(8), rng.standard_normal((8, 2))
    assert np.array_equal(with_ve.forward(x, Z).data, without.forward(x, Z).data)


# ---------------------------------------------------------------------------
# flat parameter store
# ---------------------------------------------------------------------------

def test_parameter_data_and_grad_are_views_of_the_model_vectors():
    model = tiny_model(seed=26)
    rng = np.random.default_rng(26)
    pred = model.forward(rng.standard_normal((3, 8)), rng.standard_normal((3, 8, 2)))
    backward(mse(pred, rng.standard_normal((3, 4))))
    assert model.grads.any()
    offset = 0
    for name, p in model.params.items():
        assert np.shares_memory(p.data, model.values), name
        assert np.shares_memory(p.grad, model.grads), name
        segment = slice(offset, offset + p.size)
        assert np.array_equal(model.values[segment], p.data.ravel()), name
        assert np.array_equal(model.grads[segment], p.grad.ravel()), name
        offset += p.size
    assert offset == model.values.size == model.grads.size


def test_shared_segment_comes_first_and_matches_partition():
    model = tiny_model(seed=27)
    shared, local = partition(model.params)
    assert list(model.params) == list(shared) + list(local)
    assert model.n_shared == sum(p.size for p in shared.values())
    head = np.concatenate([p.data.ravel() for p in shared.values()])
    assert np.array_equal(model.values[: model.n_shared], head)
    values = model.shared_values()
    assert list(values) == list(shared)
    for name, p in shared.items():
        assert np.array_equal(values[name], p.data)


def test_shared_values_do_not_alias_model_state():
    model = tiny_model(seed=28)
    before = model.values.copy()
    values = model.shared_values()
    for v in values.values():
        assert not np.shares_memory(v, model.values)
        v += 1.0
    assert np.array_equal(model.values, before)


def _replayed_values(dims, cfg, seed, use_ve):
    """The initial values drawn one numpy call per parameter, in build order, laid out shared-first."""
    rng = np.random.default_rng(seed)
    D, d_ff = dims.D, dims.d_ff
    drawn = {}

    def xavier(name, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        drawn[name] = rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def attention(prefix):
        for key in "qkvo":
            xavier(f"{prefix}.w_{key}", D, D)
            if key != "k":
                drawn[f"{prefix}.b_{key}"] = np.zeros(D)

    def layer_norm(prefix):
        drawn[f"{prefix}.gain"], drawn[f"{prefix}.bias"] = np.ones(D), np.zeros(D)

    def ffn(prefix):
        xavier(f"{prefix}.w1", D, d_ff)
        drawn[f"{prefix}.b1"] = np.zeros(d_ff)
        xavier(f"{prefix}.w2", d_ff, D)
        drawn[f"{prefix}.b2"] = np.zeros(D)

    xavier("patch_linear.weight", cfg.PL, D)
    drawn["patch_linear.bias"] = np.zeros(D)
    drawn["abstract_token"] = rng.normal(0.0, 0.02, size=D)
    xavier("ve_linear.weight", cfg.T, D)
    drawn["ve_linear.bias"] = np.zeros(D)
    if use_ve:
        drawn["ve_table"] = np.zeros((dims.n_all, D))
    for layer in range(dims.L):
        prefix = f"aux_encoder.layer{layer}"
        attention(f"{prefix}.self_att")
        layer_norm(f"{prefix}.ln1")
        ffn(f"{prefix}.ffn")
        layer_norm(f"{prefix}.ln2")
    for layer in range(dims.L):
        prefix = f"target_decoder.layer{layer}"
        attention(f"{prefix}.self_att")
        layer_norm(f"{prefix}.ln1")
        if layer < dims.L - 1:
            attention(f"{prefix}.cross_att")
            layer_norm(f"{prefix}.ln2")
        else:
            rng.random((4, D, D))  # the last layer's cross-attention weights, dropped
        ffn(f"{prefix}.ffn")
        layer_norm(f"{prefix}.ln3")
    xavier("projection.weight", cfg.M * D, cfg.S)
    drawn["projection.bias"] = np.zeros(cfg.S)
    shared, local = partition(drawn)
    return list(shared) + list(local), np.concatenate([v.ravel() for v in {**shared, **local}.values()])


@pytest.mark.parametrize("use_ve", [True, False])
@pytest.mark.parametrize("L", [1, 2])
def test_initial_values_equal_one_draw_per_parameter_in_build_order(L, use_ve):
    dims = ModelDims(D=8, L=L, H=2, d_ff=16, n_all=5)
    cfg = NodeShapeConfig(node_id=0, T=12, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=31, use_ve=use_ve)
    names, expected = _replayed_values(dims, cfg, 31, use_ve)
    assert list(model.params) == names
    assert model.values.tobytes() == expected.tobytes()
    assert not model.grads.any() and model.grads.size == model.values.size
