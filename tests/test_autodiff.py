"""Primitive operations against independent naive oracles, plus tape rules."""

import re

import numpy as np
import pytest
from scipy.special import erf

from pixtime import (
    AttentionWeights,
    FeedForwardWeights,
    LayerNormWeights,
    Parameter,
    Tensor,
    backward,
    concat,
    ffn,
    gather_rows,
    gelu,
    grad_check,
    layer_norm,
    linear,
    matmul,
    mse,
    multi_head_attention,
    no_grad,
    reshape,
    residual_layer_norm,
    slice_axis,
    softmax,
)
from pixtime import autodiff as ad
from pixtime.autodiff import add, broadcast_to, scale, swapaxes
from pixtime.errors import ConfigError, NumericError, ShapeError, TapeError


# ---------------------------------------------------------------------------
# oracles (kept independent of the implementations they check)
# ---------------------------------------------------------------------------

def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def naive_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax on a 2-d array via explicit loops."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        shifted = x[i] - max(x[i])
        e = np.exp(shifted)
        out[i] = e / e.sum()
    return out


def naive_layer_norm(x, gain, bias, eps):
    mu = x.mean()
    var = ((x - mu) ** 2).mean()
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def naive_attention(q, k, v, w, n_heads):
    """Per-head attention spelled out step by step on 2-d token arrays."""
    d = q.shape[1]
    hd = d // n_heads
    Q = q @ w["w_q"] + w["b_q"]
    K = k @ w["w_k"]
    V = v @ w["w_v"] + w["b_v"]
    heads = []
    for h in range(n_heads):
        Qh = Q[:, h * hd : (h + 1) * hd]
        Kh = K[:, h * hd : (h + 1) * hd]
        Vh = V[:, h * hd : (h + 1) * hd]
        scores = Qh @ Kh.T / np.sqrt(hd)
        attn = naive_softmax(scores)
        heads.append(attn @ Vh)
    return np.concatenate(heads, axis=1) @ w["w_o"] + w["b_o"]


def _rand_attention_weights(rng, d):
    raw = {
        "w_q": rng.standard_normal((d, d)),
        "b_q": rng.standard_normal(d),
        "w_k": rng.standard_normal((d, d)),
        "w_v": rng.standard_normal((d, d)),
        "b_v": rng.standard_normal(d),
        "w_o": rng.standard_normal((d, d)),
        "b_o": rng.standard_normal(d),
    }
    bundle = AttentionWeights(**{k: Tensor(v) for k, v in raw.items()})
    return raw, bundle


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


@pytest.mark.parametrize("seed", range(5))
def test_matmul_matches_naive_loops(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(out - naive_matmul(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_batch_broadcast():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3, 4))
    b = rng.standard_normal((4, 2))
    out = matmul(Tensor(a), Tensor(b)).data
    for i in range(5):
        assert np.allclose(out[i], a[i] @ b, atol=1e-14)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_single_entry():
    assert softmax(Tensor([3.7])).data.tolist() == [1.0]


@pytest.mark.parametrize("seed", range(5))
def test_softmax_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6)
    c = rng.standard_normal()
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + c)).data
    assert np.max(np.abs(a - b)) < 1e-14


@pytest.mark.parametrize("seed", range(20))
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 7)) * 5
    y = softmax(Tensor(x), axis=-1).data
    assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-12
    assert np.all(y > 0) and np.all(y <= 1.0)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_zero_variance():
    out = layer_norm(Tensor([5.0, 5.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, [0.0, 0.0])


def test_layer_norm_already_standardized():
    out = layer_norm(Tensor([1.0, -1.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_matches_direct_formula(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(9)
    gain = rng.standard_normal(9)
    bias = rng.standard_normal(9)
    out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert np.max(np.abs(out - naive_layer_norm(x, gain, bias, 1e-5))) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_layer_norm_standardizes(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 8)) * 4
    ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
    out = layer_norm(Tensor(x), ones, zeros).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_single_token_weight_is_one():
    rng = np.random.default_rng(3)
    raw, bundle = _rand_attention_weights(rng, 4)
    token = rng.standard_normal((1, 4))
    out = multi_head_attention(Tensor(token), Tensor(token), bundle, 2)
    expected = (token @ raw["w_v"] + raw["b_v"]) @ raw["w_o"] + raw["b_o"]
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(4)
    raw, bundle = _rand_attention_weights(rng, 4)
    bundle.w_k = Tensor(np.zeros((4, 4)))  # every memory row projects to the zero key
    q = rng.standard_normal((3, 4))
    kv = rng.standard_normal((5, 4))
    out = multi_head_attention(Tensor(q), Tensor(kv), bundle, 2)
    mean_projected = (kv @ raw["w_v"] + raw["b_v"]).mean(axis=0)
    expected = np.tile(mean_projected @ raw["w_o"] + raw["b_o"], (3, 1))
    assert np.max(np.abs(out.data - expected)) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_attention_matches_per_head_oracle(seed):
    rng = np.random.default_rng(seed)
    raw, bundle = _rand_attention_weights(rng, 4)
    q = rng.standard_normal((3, 4))
    kv = rng.standard_normal((2, 4))
    out = multi_head_attention(Tensor(q), Tensor(kv), bundle, 2)
    assert np.max(np.abs(out.data - naive_attention(q, kv, kv, raw, 2))) < 1e-10


@pytest.mark.parametrize("n_q,n_k", [(1, 1), (4, 2), (2, 6)])
def test_attention_output_token_count_tracks_queries(n_q, n_k):
    rng = np.random.default_rng(0)
    _, bundle = _rand_attention_weights(rng, 4)
    out = multi_head_attention(
        Tensor(rng.standard_normal((n_q, 4))), Tensor(rng.standard_normal((n_k, 4))), bundle, 2
    )
    assert out.shape == (n_q, 4)


def test_attention_head_divisibility_error():
    rng = np.random.default_rng(0)
    _, bundle = _rand_attention_weights(rng, 4)
    with pytest.raises(ConfigError):
        multi_head_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), bundle, 3)


# (query, memory) shapes whose leading axes differ: the old m2m broadcast form
# (B, n_var, 1, D) against (B, 1, C, D), a memory with an extra leading axis,
# a different batch, and a memory with no token axis
MISMATCHED_ATTENTION_SHAPES = [
    ((2, 3, 1, 4), (2, 1, 5, 4)),
    ((3, 4), (2, 3, 4)),
    ((2, 3, 4), (3, 5, 4)),
    ((2, 3, 4), (4,)),
]


@pytest.mark.parametrize("q_shape, kv_shape", MISMATCHED_ATTENTION_SHAPES,
                         ids=["m2m_broadcast_form", "extra_memory_axis", "other_batch",
                              "no_token_axis"])
def test_attention_rejects_a_memory_with_other_leading_axes(q_shape, kv_shape):
    rng = np.random.default_rng(0)
    _, bundle = _rand_attention_weights(rng, 4)
    q, kv = Tensor(np.zeros(q_shape)), Tensor(np.zeros(kv_shape))
    with pytest.raises(ShapeError) as err:
        multi_head_attention(q, kv, bundle, 2)
    assert str(q_shape) in str(err.value) and str(kv_shape) in str(err.value)


# ---------------------------------------------------------------------------
# ffn
# ---------------------------------------------------------------------------

def _ffn_weights(w1, b1, w2, b2):
    return FeedForwardWeights(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))


def test_ffn_zero_weights_zero_output():
    w = _ffn_weights(np.zeros((3, 5)), np.zeros(5), np.zeros((5, 3)), np.zeros(3))
    out = ffn(Tensor(np.random.default_rng(0).standard_normal((4, 3))), w)
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_ffn_second_layer_zero_gives_constant_bias():
    rng = np.random.default_rng(1)
    b2 = rng.standard_normal(3)
    w = _ffn_weights(rng.standard_normal((3, 5)), rng.standard_normal(5),
                     np.zeros((5, 3)), b2)
    out = ffn(Tensor(rng.standard_normal((4, 3))), w)
    assert np.allclose(out.data, np.tile(b2, (4, 1)), atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_ffn_matches_direct_composition(seed):
    from scipy.special import erf

    rng = np.random.default_rng(seed)
    w1, b1 = rng.standard_normal((3, 5)), rng.standard_normal(5)
    w2, b2 = rng.standard_normal((5, 3)), rng.standard_normal(3)
    x = rng.standard_normal((4, 3))
    out = ffn(Tensor(x), _ffn_weights(w1, b1, w2, b2)).data
    hidden = x @ w1 + b1
    hidden = hidden * 0.5 * (1.0 + erf(hidden / np.sqrt(2.0)))
    assert np.max(np.abs(out - (hidden @ w2 + b2))) < 1e-12


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_identity_is_zero():
    assert mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0


def test_mse_hand_case():
    assert mse(Tensor([0.0, 0.0]), Tensor([2.0, 2.0])).item() == 4.0


def test_mse_matches_loop_oracle():
    rng = np.random.default_rng(7)
    p, t = rng.standard_normal(7), rng.standard_normal(7)
    total = 0.0
    for i in range(7):
        total += (p[i] - t[i]) ** 2
    assert abs(mse(Tensor(p), Tensor(t)).item() - total / 7) < 1e-14


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(Tensor([1.0, 2.0]), Tensor([1.0]))


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------

def test_backward_chain_rule_by_hand():
    w = Parameter("w", np.array([[2.0]]))
    x, y = Tensor([[3.0]]), Tensor([[5.0]])
    backward(mse(matmul(w, x), y))
    assert w.grad.reshape(()) == pytest.approx(2 * 3 * (2 * 3 - 5), abs=1e-12)


def test_backward_unused_parameter_grad_stays_zero():
    w = Parameter("w", np.array([[2.0]]))
    unused = Parameter("unused", np.array([1.0, 1.0]))
    backward(mse(matmul(w, Tensor([[3.0]])), Tensor([[5.0]])))
    assert np.array_equal(unused.grad, np.zeros(2))


def test_backward_accumulates_without_zeroing():
    w = Parameter("w", np.array([[2.0]]))
    x, y = Tensor([[3.0]]), Tensor([[5.0]])
    backward(mse(matmul(w, x), y))
    once = w.grad.copy()
    backward(mse(matmul(w, x), y))
    assert np.allclose(w.grad, 2 * once, atol=1e-14)


def test_backward_on_detached_value_raises():
    with pytest.raises(TapeError):
        backward(Tensor(3.0))


def test_backward_on_a_parameter_raises():
    # a loss must be an operation's result; a leaf is not its own loss
    w = Parameter("w", np.array(2.0))
    with pytest.raises(TapeError):
        backward(w)
    assert w.grad == 0.0


def test_backward_requires_scalar():
    w = Parameter("w", np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        backward(add(w, Tensor([0.0, 0.0])))


def test_no_grad_detaches():
    w = Parameter("w", np.array([[2.0]]))
    with no_grad():
        out = matmul(w, Tensor([[3.0]]))
    assert not out.requires_grad


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="from finite inputs"):
        matmul(Tensor([[1e300]]), Tensor([[1e300]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_input_is_reported_as_input(bad):
    with pytest.raises(NumericError, match="swapaxes received non-finite input"):
        swapaxes(Tensor([[1.0, bad]]), 0, 1)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(11)
    _, bundle = _rand_attention_weights(rng, 4)
    x = Tensor(rng.standard_normal((3, 4)))
    a = multi_head_attention(x, x, bundle, 2).data
    b = multi_head_attention(x, x, bundle, 2).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# per-op gradients against directional central finite differences
# ---------------------------------------------------------------------------

def _fd_check(build_loss, param):
    """Central finite differences along random directions of `param` (`optim.grad_check`)."""
    report = grad_check(build_loss, {param.name: param})
    assert report.max_rel_error < 1e-5, report


@pytest.mark.parametrize("seed", range(20))
def test_op_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    target = Tensor(rng.standard_normal((3, 4)))

    p = Parameter("p", rng.standard_normal((3, 4)))
    _fd_check(lambda: mse(gelu(p), target), p)
    _fd_check(lambda: mse(softmax(p, axis=-1), target), p)
    _fd_check(
        lambda: mse(
            layer_norm(p, Tensor(np.ones(4)), Tensor(np.zeros(4))), target
        ),
        p,
    )

    w = Parameter("w", rng.standard_normal((4, 4)))
    _fd_check(lambda: mse(matmul(Tensor(p.data), w), target), w)

    gain = Parameter("gain", rng.standard_normal(4))
    _fd_check(
        lambda: mse(layer_norm(Tensor(p.data), gain, Tensor(np.zeros(4))), target),
        gain,
    )


@pytest.mark.parametrize("seed", range(20))
def test_structural_op_gradients(seed):
    rng = np.random.default_rng(seed)
    p = Parameter("p", rng.standard_normal((4, 3)))
    tgt_cat = Tensor(rng.standard_normal((8, 3)))
    _fd_check(lambda: mse(concat([p, p], axis=0), tgt_cat), p)

    tgt_slice = Tensor(rng.standard_normal((2, 3)))
    _fd_check(lambda: mse(slice_axis(p, 0, 1, 3), tgt_slice), p)

    tgt_flat = Tensor(rng.standard_normal(12))
    _fd_check(lambda: mse(reshape(p, (12,)), tgt_flat), p)

    tgt_t = Tensor(rng.standard_normal((3, 4)))
    _fd_check(lambda: mse(swapaxes(p, 0, 1), tgt_t), p)

    table = Parameter("table", rng.standard_normal((5, 3)))
    ids = [0, 2, 2, 4]
    tgt_rows = Tensor(rng.standard_normal((4, 3)))
    _fd_check(lambda: mse(gather_rows(table, ids), tgt_rows), table)

    row = Parameter("row", rng.standard_normal((1, 3)))
    tgt_b = Tensor(rng.standard_normal((4, 3)))
    _fd_check(lambda: mse(broadcast_to(row, (4, 3)), tgt_b), row)


def test_reshape_to_the_same_shape_returns_its_input_and_records_nothing():
    p = Parameter("p", np.arange(12.0).reshape(3, 4))
    node = linear(p, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    order = next(ad._CREATION_ORDER)
    for x in (p, node):
        assert reshape(x, (3, 4)) is x
        assert reshape(x, (-1, 4)) is x
    # nothing was put on the tape in between
    assert next(ad._CREATION_ORDER) == order + 1
    moved = reshape(node, (4, 3))
    assert moved is not node and moved._parents == (node,)


@pytest.mark.parametrize("seed", range(20))
def test_attention_and_ffn_gradients(seed):
    rng = np.random.default_rng(seed)
    d = 4
    raw, _ = _rand_attention_weights(rng, d)
    params = {k: Parameter(k, v) for k, v in raw.items()}
    bundle = AttentionWeights(**params)
    q = Tensor(rng.standard_normal((3, d)))
    kv = Tensor(rng.standard_normal((2, d)))
    target = Tensor(rng.standard_normal((3, d)))

    name = ["w_q", "w_k", "w_v", "w_o", "b_q", "b_v", "b_o"][seed % 7]
    _fd_check(
        lambda: mse(multi_head_attention(q, kv, bundle, 2), target), params[name]
    )

    fw = {
        "w1": Parameter("w1", rng.standard_normal((d, 6))),
        "b1": Parameter("b1", rng.standard_normal(6)),
        "w2": Parameter("w2", rng.standard_normal((6, d))),
        "b2": Parameter("b2", rng.standard_normal(d)),
    }
    f_bundle = FeedForwardWeights(**fw)
    x = Tensor(rng.standard_normal((3, d)))
    _fd_check(lambda: mse(ffn(x, f_bundle), target), fw[["w1", "b1", "w2", "b2"][seed % 4]])


def test_linear_bias_broadcast_gradient():
    rng = np.random.default_rng(5)
    b = Parameter("b", rng.standard_normal(3))
    x = Tensor(rng.standard_normal((4, 2)))
    w = Tensor(rng.standard_normal((2, 3)))
    target = Tensor(rng.standard_normal((4, 3)))
    _fd_check(lambda: mse(linear(x, w, b), target), b)


# ---------------------------------------------------------------------------
# fused operations: every input's gradient against finite differences
# ---------------------------------------------------------------------------

# (query, memory) token shapes: distinct q and kv, and the m2m case where a
# window's n_var abstract tokens (B, n_var, D) attend to its (B, C, D) memory
ATTENTION_INPUT_SHAPES = {
    "distinct": ((3, 4), (2, 4)),
    "m2m": ((2, 3, 4), (2, 5, 4)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(ATTENTION_INPUT_SHAPES))
def test_attention_token_gradients(seed, case):
    rng = np.random.default_rng(seed)
    _, bundle = _rand_attention_weights(rng, 4)
    q, kv = (Parameter(n, rng.standard_normal(s))
             for n, s in zip(("q", "kv"), ATTENTION_INPUT_SHAPES[case]))
    target = Tensor(rng.standard_normal(q.shape))
    for token in (q, kv):
        _fd_check(lambda: mse(multi_head_attention(q, kv, bundle, 2), target), token)


@pytest.mark.parametrize("seed", range(3))
def test_self_attention_token_gradient(seed):
    rng = np.random.default_rng(seed)
    _, bundle = _rand_attention_weights(rng, 4)
    x = Parameter("x", rng.standard_normal((2, 3, 4)))
    target = Tensor(rng.standard_normal((2, 3, 4)))
    _fd_check(lambda: mse(multi_head_attention(x, x, bundle, 2), target), x)


@pytest.mark.parametrize("seed", range(3))
def test_ffn_gradients_for_every_input(seed):
    rng = np.random.default_rng(seed)
    x = Parameter("x", rng.standard_normal((2, 3, 4)))
    w = FeedForwardWeights(
        Parameter("w1", rng.standard_normal((4, 6))), Parameter("b1", rng.standard_normal(6)),
        Parameter("w2", rng.standard_normal((6, 4))), Parameter("b2", rng.standard_normal(4)),
    )
    target = Tensor(rng.standard_normal((2, 3, 4)))
    for p in (x, w.w1, w.b1, w.w2, w.b2):
        _fd_check(lambda: mse(ffn(x, w), target), p)


@pytest.mark.parametrize("x_shape", [(3,), (4, 3), (2, 4, 3)])
def test_linear_gradients_for_every_input(x_shape):
    rng = np.random.default_rng(len(x_shape))
    x = Parameter("x", rng.standard_normal(x_shape))
    w = Parameter("w", rng.standard_normal((3, 5)))
    b = Parameter("b", rng.standard_normal(5))
    target = Tensor(rng.standard_normal(x_shape[:-1] + (5,)))
    for p in (x, w, b):
        _fd_check(lambda: mse(linear(x, w, b), target), p)


@pytest.mark.parametrize("x_shape,y_shape", [((2, 3, 4), (3, 4)), ((2, 1, 4), (2, 3, 4)),
                                              ((3, 4), (1, 4))])
def test_residual_layer_norm_rejects_inputs_of_unequal_shape(x_shape, y_shape):
    ln = LayerNormWeights(Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match=rf"{re.escape(str(x_shape))} vs "
                                         rf"{re.escape(str(y_shape))}"):
        residual_layer_norm(Tensor(np.zeros(x_shape)), Tensor(np.zeros(y_shape)), ln)


@pytest.mark.parametrize("seed", range(3))
def test_residual_layer_norm_gradients_for_every_input(seed):
    rng = np.random.default_rng(seed)
    x = Parameter("x", rng.standard_normal((2, 3, 4)))
    y = Parameter("y", rng.standard_normal((2, 3, 4)))
    ln = LayerNormWeights(Parameter("gain", rng.standard_normal(4)),
                          Parameter("bias", rng.standard_normal(4)))
    target = Tensor(rng.standard_normal((2, 3, 4)))
    for p in (x, y, ln.gain, ln.bias):
        _fd_check(lambda: mse(residual_layer_norm(x, y, ln), target), p)


# ---------------------------------------------------------------------------
# fused operations against their unfused composition of public primitives
# ---------------------------------------------------------------------------

def ref_linear(x, w, b):
    return add(matmul(x, w), b)


def ref_split_heads(x, n_heads):
    # (..., n, D) -> (..., H, n, D // H)
    return swapaxes(reshape(x, x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)), -3, -2)


def ref_attention(q, k, v, w, n_heads):
    head_dim = q.shape[-1] // n_heads
    Q = ref_split_heads(ref_linear(q, w.w_q, w.b_q), n_heads)
    K = ref_split_heads(matmul(k, w.w_k), n_heads)
    V = ref_split_heads(ref_linear(v, w.w_v, w.b_v), n_heads)
    scores = scale(matmul(Q, swapaxes(K, -1, -2)), 1.0 / np.sqrt(head_dim))
    ctx = swapaxes(matmul(softmax(scores, axis=-1), V), -3, -2)
    return ref_linear(reshape(ctx, ctx.shape[:-2] + (q.shape[-1],)), w.w_o, w.b_o)


def ref_ffn(x, w):
    return ref_linear(gelu(ref_linear(x, w.w1, w.b1)), w.w2, w.b2)


def ref_residual_layer_norm(x, y, ln):
    return layer_norm(add(x, y), ln.gain, ln.bias)


def _params(rng, shapes, scale_by=1.0):
    return {n: Parameter(n, scale_by * rng.standard_normal(s)) for n, s in shapes.items()}


def _assert_fused_matches_reference(fused, reference, params):
    """Forward values and every input's gradient agree within 1e-12.

    The fused output is also a single tape node whose parents are leaves.
    """
    out = fused()
    assert all(p._vjp is None for p in out._parents)
    target = Tensor(np.random.default_rng(99).standard_normal(out.shape))
    grads = []
    for build in (fused, reference):
        for p in params.values():
            p.zero_grad()
        out = build()
        backward(mse(out, target))
        grads.append((out.data, {n: p.grad.copy() for n, p in params.items()}))
    (fused_out, fused_grads), (ref_out, ref_grads) = grads
    assert np.max(np.abs(fused_out - ref_out)) < 1e-12
    for n in params:
        assert np.max(np.abs(fused_grads[n] - ref_grads[n])) < 1e-12, n


# token shapes the model feeds each fused op, per forecasting mode (B=3, C=4
# auxiliaries, M+1=5 patch tokens, n_var=3 in m2m, D=8)
MODE_TOKEN_SHAPES = {
    "m2u": {"self": (3, 5, 8), "cross_q": (3, 1, 8), "cross_kv": (3, 4, 8)},
    "m2m": {"self": (3, 3, 5, 8), "cross_q": (3, 3, 8), "cross_kv": (3, 4, 8)},
    "u2u": {"self": (3, 1, 8), "cross_q": (3, 1, 8), "cross_kv": (3, 1, 8)},
}


def _attention_params(rng, d):
    shapes = {f"w_{k}": (d, d) for k in "qkvo"}
    shapes.update({f"b_{k}": (d,) for k in "qvo"})
    return _params(rng, shapes, 1.0 / np.sqrt(d))


@pytest.mark.parametrize("mode", sorted(MODE_TOKEN_SHAPES))
def test_fused_attention_matches_unfused(mode):
    shapes = MODE_TOKEN_SHAPES[mode]
    rng = np.random.default_rng(len(mode))
    w = _attention_params(rng, 8)
    bundle = AttentionWeights(**w)
    tokens = _params(rng, {"x": shapes["self"], "q": shapes["cross_q"],
                           "kv": shapes["cross_kv"]})
    x, q, kv = tokens["x"], tokens["q"], tokens["kv"]
    params = {**w, "x": x}
    _assert_fused_matches_reference(
        lambda: multi_head_attention(x, x, bundle, 2),
        lambda: ref_attention(x, x, x, bundle, 2), params)
    params = {**w, "q": q, "kv": kv}
    _assert_fused_matches_reference(
        lambda: multi_head_attention(q, kv, bundle, 2),
        lambda: ref_attention(q, kv, kv, bundle, 2), params)


# (query, memory) token shapes with one key: the key's value broadcast over
# several query rows of each window, the m2m shape with one auxiliary (and so
# one target), and unbatched tokens. In the model every one-key attention has
# one query row, so no model-level gradient check sees the sum over the rows.
ONE_KEY_SHAPES = {
    "broadcast_key": ((2, 3, 8), (2, 1, 8)),
    "m2m": ((2, 1, 8), (2, 1, 8)),
    "unbatched": ((3, 8), (1, 8)),
}


def _one_key_case(case):
    """(attention weights, q/kv tokens, every parameter) for one ONE_KEY_SHAPES case."""
    rng = np.random.default_rng(len(case))
    w = _attention_params(rng, 8)
    tokens = _params(rng, dict(zip(("q", "kv"), ONE_KEY_SHAPES[case])))
    return AttentionWeights(**w), tokens, {**w, **tokens}


@pytest.mark.parametrize("case", sorted(ONE_KEY_SHAPES))
def test_one_key_attention_matches_the_primitive_oracle(case):
    bundle, t, params = _one_key_case(case)
    _assert_fused_matches_reference(
        lambda: multi_head_attention(t["q"], t["kv"], bundle, 2),
        lambda: ref_attention(t["q"], t["kv"], t["kv"], bundle, 2), params)


@pytest.mark.parametrize("case", sorted(ONE_KEY_SHAPES))
def test_one_key_attention_gradients_match_finite_differences(case):
    bundle, t, params = _one_key_case(case)
    q, kv = t["q"], t["kv"]
    target = Tensor(np.random.default_rng(5).standard_normal(q.shape))
    report = grad_check(lambda: mse(multi_head_attention(q, kv, bundle, 2), target), params)
    assert report.max_rel_error < 1e-5, str(report)
    # the softmax over one key is constant: nothing reaches the queries or the
    # key projection, and the memory's gradient is its value path's alone
    for name in ("q", "w_q", "b_q", "w_k"):
        assert not params[name].grad.any(), name


@pytest.mark.parametrize("mode", sorted(MODE_TOKEN_SHAPES))
def test_fused_ffn_linear_and_residual_layer_norm_match_unfused(mode):
    shape = MODE_TOKEN_SHAPES[mode]["self"]
    rng = np.random.default_rng(len(mode))
    p = _params(rng, {"x": shape, "y": shape, "w1": (8, 16), "b1": (16,), "w2": (16, 8),
                      "b2": (8,), "gain": (8,), "bias": (8,)}, 1.0 / np.sqrt(8))
    f_w = FeedForwardWeights(p["w1"], p["b1"], p["w2"], p["b2"])
    ln = LayerNormWeights(p["gain"], p["bias"])

    def pick(*names):
        return {n: p[n] for n in names}

    _assert_fused_matches_reference(
        lambda: linear(p["x"], p["w1"], p["b1"]),
        lambda: ref_linear(p["x"], p["w1"], p["b1"]), pick("x", "w1", "b1"))
    _assert_fused_matches_reference(
        lambda: ffn(p["x"], f_w), lambda: ref_ffn(p["x"], f_w),
        pick("x", "w1", "b1", "w2", "b2"))
    _assert_fused_matches_reference(
        lambda: residual_layer_norm(p["x"], p["y"], ln),
        lambda: ref_residual_layer_norm(p["x"], p["y"], ln),
        pick("x", "y", "gain", "bias"))


# ---------------------------------------------------------------------------
# the numpy kernels at the shapes the model feeds them, against the direct
# last-axis formulas they replaced
# ---------------------------------------------------------------------------

def direct_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def direct_softmax_vjp(g, y, axis):
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def direct_layer_norm(x, gain, bias, eps):
    """(output, input gradient as a function of g, gain gradient, bias gradient)."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        gx = g * gain
        gx_mean = gx.mean(axis=-1, keepdims=True)
        gxx_mean = (gx * xhat).mean(axis=-1, keepdims=True)
        return (inv_std * (gx - gx_mean - xhat * gxx_mean),
                (g * xhat).sum(axis=lead), g.sum(axis=lead))

    return gain * xhat + bias, vjp


def direct_attention(q_tokens, k_tokens, v_tokens, w, n_heads):
    """Batched attention with the scores on the last axis; returns (output, vjp)."""
    d = q_tokens.shape[-1]
    hd = d // n_heads

    def split(t):
        return np.swapaxes(t.reshape(t.shape[:-1] + (n_heads, hd)), -3, -2)

    def merge(t):
        t = np.swapaxes(t, -3, -2)
        return t.reshape(t.shape[:-2] + (d,))

    def grads(g, x, w_x):
        g2, x2 = g.reshape(-1, d), x.reshape(-1, d)
        return (g2 @ w_x.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    q = split(q_tokens @ w["w_q"] + w["b_q"])
    k = split(k_tokens @ w["w_k"])
    v = split(v_tokens @ w["w_v"] + w["b_v"])
    attn = direct_softmax((q @ np.swapaxes(k, -1, -2)) / np.sqrt(hd), -1)
    ctx = merge(attn @ v)

    def vjp(g):
        g_ctx, g_wo, g_bo = grads(g, ctx, w["w_o"])
        g_ctx = split(g_ctx)
        g_v = np.swapaxes(attn, -1, -2) @ g_ctx
        g_s = direct_softmax_vjp(g_ctx @ np.swapaxes(v, -1, -2), attn, -1) / np.sqrt(hd)
        g_q = g_s @ k
        g_k = np.swapaxes(g_s, -1, -2) @ q
        g_qt, g_wq, g_bq = grads(merge(g_q), q_tokens, w["w_q"])
        g_kt, g_wk, _ = grads(merge(g_k), k_tokens, w["w_k"])
        g_vt, g_wv, g_bv = grads(merge(g_v), v_tokens, w["w_v"])
        return {"q": g_qt, "k": g_kt, "v": g_vt, "w_q": g_wq, "b_q": g_bq, "w_k": g_wk,
                "w_v": g_wv, "b_v": g_bv, "w_o": g_wo, "b_o": g_bo}

    return ctx @ w["w_o"] + w["b_o"], vjp


def assert_rel_close(actual, expected, rtol=1e-13):
    """Agreement within `rtol` of the expected array's largest magnitude."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


def backward_with(out, g):
    """Run backward so that `out` receives the adjoint `g` exactly."""
    backward(matmul(reshape(out, (1, out.size)), Tensor(g.reshape(-1, 1))))


def non_contiguous(kind, x):
    """`x`'s values as a swapaxes view or a strided slice; "fresh" keeps `x`."""
    if kind == "swapaxes":
        return np.swapaxes(np.swapaxes(x, 0, 1).copy(), 0, 1)
    if kind == "strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return x


# (shape, axis): the m2u score block (32, H=4, 7, 7), m2m cross-attention
# (B, n_var, H, 1, C), u2u's single key, a long axis, and each axis of a 3-d array
SOFTMAX_CASES = [((32, 4, 7, 7), -1), ((4, 3, 4, 1, 7), -1), ((32, 4, 7, 1), -1),
                 ((5, 33), -1), ((6, 5, 7), 0), ((6, 5, 7), 1), ((6, 5, 7), -1)]


@pytest.mark.parametrize("layout", ["fresh", "swapaxes", "strided"])
@pytest.mark.parametrize("shape,axis", SOFTMAX_CASES)
def test_softmax_kernel_matches_direct_formula(shape, axis, layout):
    rng = np.random.default_rng(len(shape) + axis)
    x = rng.standard_normal(shape) * 3
    g = rng.standard_normal(shape)
    p = Parameter("x", non_contiguous(layout, x))
    y = softmax(p, axis=axis)
    expected = direct_softmax(x, axis)
    assert_rel_close(y.data, expected)
    backward_with(y, non_contiguous(layout, g))
    assert_rel_close(p.grad, direct_softmax_vjp(g, expected, axis))


def test_softmax_single_key_is_exactly_one():
    x = np.random.default_rng(0).standard_normal((32, 4, 7, 1)) * 50
    assert np.array_equal(softmax(Tensor(x), axis=-1).data, np.ones(x.shape))


def test_softmax_logits_spanning_1400_stay_finite():
    x = np.array([[0.0, 1400.0, 700.0], [-1400.0, 0.0, -700.0]])
    p = Parameter("x", x)
    y = softmax(p, axis=-1)
    assert np.all(np.isfinite(y.data))
    assert_rel_close(y.data, direct_softmax(x, -1))
    backward_with(y, np.ones_like(x))
    assert np.all(np.isfinite(p.grad))


# the m2u and m2m token blocks at D=32, a long axis, a single row; each in
# every layout it can take
LAYER_NORM_CASES = [(shape, layout) for shape in [(32, 7, 32), (4, 3, 7, 32), (5, 33)]
                    for layout in ("fresh", "swapaxes", "strided")]
LAYER_NORM_CASES += [((33,), "fresh"), ((33,), "strided")]


@pytest.mark.parametrize("shape,layout", LAYER_NORM_CASES)
def test_layer_norm_kernels_match_direct_formula(shape, layout):
    rng = np.random.default_rng(len(shape))
    n = shape[-1]
    x, y, g = (rng.standard_normal(shape) * 2 + 1 for _ in range(3))
    ln = LayerNormWeights(Parameter("gain", rng.standard_normal(n)),
                          Parameter("bias", rng.standard_normal(n)))
    expected, vjp = direct_layer_norm(x + y, ln.gain.data, ln.bias.data, 1e-5)
    expected_grads = vjp(g)
    px = Parameter("x", non_contiguous(layout, x))
    py = Parameter("y", non_contiguous(layout, y))
    for out in (layer_norm(add(px, py), ln.gain, ln.bias),
                residual_layer_norm(px, py, ln)):
        for p in (px, py, ln.gain, ln.bias):
            p.zero_grad()
        assert_rel_close(out.data, expected)
        backward_with(out, non_contiguous(layout, g))
        for actual, direct in zip((px.grad, ln.gain.grad, ln.bias.grad), expected_grads):
            assert_rel_close(actual, direct)
        assert np.array_equal(px.grad, py.grad)


@pytest.mark.parametrize("x_shape", [(32, 7, 32), (32, 24), (3,)])
def test_linear_gradients_match_direct_formula(x_shape):
    rng = np.random.default_rng(len(x_shape))
    x = Parameter("x", rng.standard_normal(x_shape))
    w = Parameter("w", rng.standard_normal((x_shape[-1], 5)))
    b = Parameter("b", rng.standard_normal(5))
    out = linear(x, w, b)
    g = rng.standard_normal(out.shape)
    backward_with(out, g)
    g2, x2 = g.reshape(-1, 5), x.data.reshape(-1, x_shape[-1])
    assert_rel_close(b.grad, g2.sum(axis=0))
    assert_rel_close(w.grad, x2.T @ g2)
    assert_rel_close(x.grad, g @ w.data.T)


def test_gelu_matches_direct_formula_bit_for_bit():
    x = np.random.default_rng(0).standard_normal((32, 7, 64)) * 3
    assert np.array_equal(gelu(Tensor(x)).data, x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))))


# signed zeros and subnormals, erf's branch point |x| = sqrt2 (|x / sqrt2| = 1)
# with its neighbours, and arguments where erf has saturated to +-1
GELU_EDGES = np.array([
    0.0, -0.0, 1e-310, -1e-310,
    np.sqrt(2.0), -np.sqrt(2.0),
    np.nextafter(np.sqrt(2.0), 0.0), -np.nextafter(np.sqrt(2.0), 0.0),
    np.nextafter(np.sqrt(2.0), 2.0), -np.nextafter(np.sqrt(2.0), 2.0),
    8.3, -8.3, 8.4, -8.4, -40.0,
])


@pytest.mark.parametrize("shape", [(224, 64), (32, 6, 64), (4, 5)])
def test_gelu_kernels_match_the_direct_formulas_bit_for_bit(shape):
    """On mixed signs and the edge values, the sign-split forward and the
    one-buffer VJP give the bits of the direct formulas, signed zeros included."""
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 3
    x.flat[:GELU_EDGES.size] = GELU_EDGES[:x.size]
    g = rng.standard_normal(shape)
    out, cdf = ad._gelu_fwd(x)
    direct_cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    assert cdf.tobytes() == direct_cdf.tobytes()
    assert out.tobytes() == (x * direct_cdf).tobytes()
    direct_vjp = g * (cdf + x * ((1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)))
    assert ad._gelu_vjp(g, x, cdf).tobytes() == direct_vjp.tobytes()


def test_scipy_erf_is_odd_bit_for_bit():
    """The sign-split GELU forward rests on erf(-t) == -erf(t) to the last bit."""
    t = np.random.default_rng(7).standard_normal(100_000) * 4
    t[:GELU_EDGES.size] = GELU_EDGES / np.sqrt(2.0)
    assert erf(-t).tobytes() == (-erf(t)).tobytes()


# (query, memory) token shapes at D=32, H=4: m2u self-attention, m2m
# cross-attention of a window's (B, n_var, D) abstract tokens against its
# (B, C, D) encoded auxiliaries, and u2u
ATTENTION_MODEL_SHAPES = {
    "m2u": ((32, 7, 32), (32, 7, 32)),
    "m2m": ((4, 3, 32), (4, 7, 32)),
    "u2u": ((32, 1, 32), (32, 1, 32)),
}


@pytest.mark.parametrize("mode", sorted(ATTENTION_MODEL_SHAPES))
def test_attention_matches_direct_formula_at_model_shapes(mode):
    q_shape, kv_shape = ATTENTION_MODEL_SHAPES[mode]
    rng = np.random.default_rng(len(mode))
    w = _attention_params(rng, 32)
    q = Parameter("q", rng.standard_normal(q_shape))
    kv = Parameter("kv", rng.standard_normal(kv_shape))
    out = multi_head_attention(q, kv, AttentionWeights(**w), 4)
    expected, vjp = direct_attention(q.data, kv.data, kv.data,
                                     {n: p.data for n, p in w.items()}, 4)
    assert_rel_close(out.data, expected)
    g = rng.standard_normal(out.shape)
    backward_with(out, g)
    direct = vjp(g)
    # the memory's gradient is its key path's plus its value path's
    direct["kv"] = direct.pop("k") + direct.pop("v")
    params = {**w, "q": q, "kv": kv}
    for name, expected_grad in direct.items():
        assert_rel_close(params[name].grad, expected_grad)


def _at_offset(a, words):
    """`a`'s values in a larger buffer, starting `words` float64 slots in."""
    buf = np.zeros(a.size + words + 1)
    out = buf[words:words + a.size].reshape(a.shape)
    out[...] = a
    return out


# each rewritten kernel as a function of its array inputs, with the input
# shapes the model feeds it
KERNEL_CALLS = {
    "softmax_fwd": (ad._softmax_fwd, [(7, 32, 4, 7)]),
    "softmax_vjp": (ad._softmax_vjp, [(7, 32, 4, 7), (7, 32, 4, 7)]),
    "layer_norm_fwd": (ad._layer_norm_fwd, [(32, 7, 32), (32,), (32,)]),
    "layer_norm_fwd_long_rows": (ad._layer_norm_fwd, [(1792, 33), (33,), (33,)]),
    "layer_norm_vjp": (ad._layer_norm_vjp, [(32, 7, 32), (224, 32), (224, 1), (32,)]),
    "linear_vjp": (lambda g, x2, w: ad._linear_vjp(g, x2, w, x2.shape),
                   [(224, 32), (224, 32), (32, 32)]),
    "gelu_fwd": (ad._gelu_fwd, [(32, 7, 64)]),
    # the inputs are positive; shifted in place, they reach GELU's sign handling
    "gelu_fwd_mixed_sign": (lambda x: ad._gelu_fwd(np.subtract(x, 1.5, out=x)), [(32, 7, 64)]),
    "gelu_vjp": (lambda g, x, cdf: ad._gelu_vjp(g, np.subtract(x, 1.5, out=x), cdf),
                 [(32, 7, 64)] * 3),
    "score_matmul": (lambda a, b: ad._key_leading_matmul(a, ad._transposed(b)),
                     [(32, 4, 7, 8), (32, 4, 7, 8)]),
    # the attention VJP's BLAS product of the output and value gradients
    "score_vjp_matmul": (lambda g, v: g @ ad._transposed(v), [(32, 4, 7, 8), (32, 4, 7, 8)]),
}


@pytest.mark.parametrize("words", [1, 2, 3])
@pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
def test_kernel_result_does_not_depend_on_input_address(kernel, words):
    """Bit-identical output for fresh inputs and for the same values at an offset."""
    call, shapes = KERNEL_CALLS[kernel]
    rng = np.random.default_rng(words)
    inputs = [np.abs(rng.standard_normal(s)) + 0.5 for s in shapes]
    fresh = call(*[a.copy() for a in inputs])
    shifted = call(*[_at_offset(a, words) for a in inputs])
    fresh = fresh if isinstance(fresh, tuple) else (fresh,)
    shifted = shifted if isinstance(shifted, tuple) else (shifted,)
    for a, b in zip(fresh, shifted):
        assert np.array_equal(a, b)
