"""Reverse-mode automatic differentiation over float64 numpy arrays.

The tape records whole operations (matmul, softmax, layer_norm, mse,
concat, slicing, ...) instead of an elementwise scalar graph, so every
backward rule is a short numpy expression that can be checked by hand.
Four fused operations put one node each on the tape, with a hand-written
backward: `linear`, `multi_head_attention`, `ffn` and
`residual_layer_norm`. They and the primitives share one numpy forward
and VJP kernel per formula. Values are float64 throughout and immutable
once created; a non-finite result raises instead of propagating
silently, saying whether the operation or its inputs were at fault.

The rows the kernels reduce are short (1 to 64 elements), and numpy
pays one inner-loop call per row for a reduction along the last axis.
So no kernel reduces along a short last axis: row sums and means are
GEMVs against a ones (or 1/n) vector, and softmax reduces along the
leading axis of a score block stored key-leading. No score GEMM takes a
transposed view either: the transposed keys and values are copied
C-contiguous first. Attention's VJP forms its product of the context
gradient and the values as a plain BLAS GEMM, which the softmax VJP reads
key-first through a transposed view: written key-leading, that product
misses BLAS and took twice as long at the training shape.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError, ShapeError, TapeError

_GRAD_ENABLED = True
# stamps each tape node in creation order; a node's parents always exist
# before it, so descending creation order is a reverse topological order
_CREATION_ORDER = itertools.count()

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# added to every layer-norm variance before the square root
LN_EPS = 1e-5


class no_grad:
    """Context manager that suspends tape recording (evaluation mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """A dense n-dimensional float64 value, optionally on the tape.

    `data` is the row-major numpy array; `requires_grad` marks tape
    participation. Non-leaf tensors keep references to their parents, a
    vector-Jacobian closure used by `backward` and their creation order.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_order")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = False
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """A named leaf tensor with a persistent gradient accumulator.

    Parameters are the only tape leaves. The accumulator starts at zero.
    It is allocated on first read, so a model that binds `grad` to a view
    of its gradient vector before any read never allocates one.
    """

    __slots__ = ("name", "_grad")

    def __init__(self, name: str, value):
        super().__init__(value)
        self.requires_grad = True
        self.name = name
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    """Wrap a forward result, attaching it to the tape when needed."""
    if not np.isfinite(data).all():
        if all(np.isfinite(p.data).all() for p in parents):
            raise NumericError(f"{op} produced non-finite values from finite inputs")
        raise NumericError(f"{op} received non-finite input values")
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._order = next(_CREATION_ORDER)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` by summing broadcast axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate `.grad` of every tape leaf reachable from a scalar loss.

    Repeated calls accumulate into existing gradients; call `zero_grad`
    on the parameters between steps.
    """
    if not isinstance(loss, Tensor):
        raise TapeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._vjp is None:
        raise TapeError("backward needs a loss computed by an operation on the tape, "
                        "not a leaf or a value detached from it")

    # the op nodes (those with a VJP) reachable from the loss, latest first
    ops: list[Tensor] = [loss]
    seen = {loss}
    for node in ops:
        for p in node._parents:
            if p._vjp is not None and p not in seen:
                seen.add(p)
                ops.append(p)
    ops.sort(key=attrgetter("_order"), reverse=True)

    adjoint: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in ops:
        g = adjoint.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent._vjp is None:
                # in place, so a gradient that is a view of a model's gradient
                # vector stays one; `parent.grad += pg` would also rebind it
                # through the property setter
                grad = parent.grad
                grad += pg
            else:
                acc = adjoint.get(parent)
                adjoint[parent] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(data, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _result(data, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(data, (a, b), vjp, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    x = as_tensor(x)
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _result(x.data * c, (x,), vjp, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy-style broadcasting over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul requires at least 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _result(data, (a, b), vjp, "matmul")


def reshape(x: Tensor, shape) -> Tensor:
    """A reshape to `x`'s own shape returns `x` and puts nothing on the tape."""
    x = as_tensor(x)
    data = x.data.reshape(tuple(shape))
    if data.shape == x.shape:
        return x

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _result(data, (x,), vjp, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inverse),)

    return _result(x.data.transpose(axes), (x,), vjp, "transpose")


def swapaxes(x: Tensor, ax1: int, ax2: int) -> Tensor:
    x = as_tensor(x)
    data = np.swapaxes(x.data, ax1, ax2)

    def vjp(g):
        return (np.swapaxes(g, ax1, ax2),)

    return _result(data, (x,), vjp, "swapaxes")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = list(itertools.accumulate((p.data.shape[axis] for p in parts), initial=0))

    def vjp(g):
        index = [slice(None)] * g.ndim
        views = []
        for lo, hi in zip(offsets, offsets[1:]):
            index[axis] = slice(lo, hi)
            views.append(g[tuple(index)])
        return tuple(views)

    return _result(data, parts, vjp, "concat")


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    x = as_tensor(x)
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = x.data[index]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _result(data, (x,), vjp, "slice_axis")


def broadcast_to(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    data = np.broadcast_to(x.data, shape).copy()

    def vjp(g):
        return (_unbroadcast(g, x.data.shape),)

    return _result(data, (x,), vjp, "broadcast_to")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a 2-d table; backward scatter-adds into the table."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d table, got shape {table.shape}")
    ids = np.asarray(ids, dtype=np.intp)
    data = table.data[ids]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _result(data, (table,), vjp, "gather_rows")


# ---------------------------------------------------------------------------
# numpy kernels: each forward formula and its VJP written once, shared by the
# primitives and the fused operations below
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _filled(n: int, value: float) -> np.ndarray:
    """A read-only length-n vector of `value`, the GEMV operand of a sum or a mean."""
    v = np.full(n, value)
    v.flags.writeable = False
    return v


def _gelu_fwd(x: np.ndarray) -> tuple:
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def _gelu_vjp(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


def _softmax_fwd(e: np.ndarray) -> np.ndarray:
    """Softmax along the leading axis of the C-contiguous `e`, in place; returns `e`."""
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Softmax VJP along the leading axis of `_softmax_fwd`'s result `y`.

    Returns a new C-contiguous array; `g` may have any layout.
    """
    d = np.multiply(g, y, order="C")
    inner = d.sum(axis=0)
    np.subtract(g, inner, out=d)
    d *= y
    return d


def _key_leading_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b (equal leading axes) stored C-contiguous with its last axis leading: (m, ..., n).

    Attention keeps its score blocks this way, so the softmax reductions
    over the key axis run along the leading axis.
    """
    out = np.empty((b.shape[-1],) + a.shape[:-1])
    np.matmul(a, b, out=out.transpose(_key_axes(out.ndim)[0]))
    return out


@lru_cache(maxsize=8)
def _key_axes(ndim: int) -> tuple:
    """Transpose axes for a key-leading score block (n, ..., m) of rank `ndim`:
    key axis last (..., m, n), key axis second last (..., n, m), and the
    inverse of the first, which reads a (..., m, n) block key-first."""
    return ((*range(1, ndim), 0), (*range(1, ndim - 1), 0, ndim - 1),
            (ndim - 1, *range(ndim - 1)))


def _check_layer_norm(n: int, gain: Tensor, bias: Tensor) -> None:
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )


def _layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple:
    """Returns (output, xhat, inv_std); the last two are what the VJP needs.

    The row means are GEMVs over the (rows, n) view of `x`; `xhat` is
    (rows, n) and `inv_std` (rows, 1).
    """
    n = x.shape[-1]
    x2 = x.reshape(-1, n)
    mean = _filled(n, 1.0 / n)
    xhat = x2 - (x2 @ mean)[:, None]
    var = (xhat * xhat) @ mean
    inv_std = 1.0 / np.sqrt(var + LN_EPS)[:, None]
    xhat *= inv_std
    out = xhat * gain
    out += bias
    return out.reshape(x.shape), xhat, inv_std


def _layer_norm_vjp(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                    gain: np.ndarray) -> tuple:
    n = gain.shape[0]
    g2 = g.reshape(-1, n)
    ones, mean = _filled(g2.shape[0], 1.0), _filled(n, 1.0 / n)
    g_gain = ones @ (g2 * xhat)
    g_bias = ones @ g2
    gx = g2 * gain
    gx_mean = gx @ mean
    t = gx * xhat
    gxx_mean = t @ mean
    np.multiply(xhat, gxx_mean[:, None], out=t)
    gx -= gx_mean[:, None]
    gx -= t
    gx *= inv_std
    return gx.reshape(g.shape), g_gain, g_bias


def _check_linear(x_shape: tuple, weight: Tensor, bias) -> None:
    if weight.ndim != 2 or not x_shape or x_shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear cannot map input {x_shape} with weight {weight.shape}")
    if bias is not None and bias.shape != weight.shape[1:]:
        raise ShapeError(f"linear bias {bias.shape} does not match weight {weight.shape}")


def _linear_fwd(x: np.ndarray, w: np.ndarray, b) -> tuple:
    """One 2-D GEMM over the flattened leading axes; returns (x as 2-D, output)."""
    x2 = x.reshape(-1, w.shape[0])
    y = x2 @ w
    if b is not None:
        y += b
    return x2, y.reshape(x.shape[:-1] + (w.shape[1],))


def _linear_vjp(g: np.ndarray, x2: np.ndarray, w: np.ndarray, x_shape) -> tuple:
    """(input, weight, bias) gradients; the input one is None when `x_shape` is."""
    g2 = g.reshape(-1, w.shape[1])
    gx = None if x_shape is None else (g2 @ w.T).reshape(x_shape)
    return gx, x2.T @ g2, _filled(g2.shape[0], 1.0) @ g2


def _transposed(t: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of `t` with its last two axes swapped."""
    return np.ascontiguousarray(t.swapaxes(-1, -2))


def _grad_shape(t: Tensor):
    """The shape of `t`'s gradient, or None when `t` is off the tape."""
    return t.shape if t.requires_grad else None


# ---------------------------------------------------------------------------
# neural-network primitives
# ---------------------------------------------------------------------------

def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU activation."""
    x = as_tensor(x)
    data, cdf = _gelu_fwd(x.data)

    def vjp(g):
        return (_gelu_vjp(g, x.data, cdf),)

    return _result(data, (x,), vjp, "gelu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {x.shape}")
    y = _softmax_fwd(np.moveaxis(x.data, axis, 0).copy())

    def vjp(g):
        return (np.moveaxis(_softmax_vjp(np.moveaxis(g, axis, 0), y), 0, axis),)

    return _result(np.moveaxis(y, 0, axis), (x,), vjp, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize the last axis (biased 1/n variance, plus LN_EPS) then apply gain/bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    _check_layer_norm(x.shape[-1], gain, bias)
    data, xhat, inv_std = _layer_norm_fwd(x.data, gain.data, bias.data)

    def vjp(g):
        return _layer_norm_vjp(g, xhat, inv_std, gain.data)

    return _result(data, (x, gain, bias), vjp, "layer_norm")


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; returns a scalar tensor."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    data = np.asarray((diff * diff).mean())
    n = diff.size

    def vjp(g):
        base = (2.0 / n) * diff * g
        return base, -base

    return _result(data, (pred, target), vjp, "mse")


# ---------------------------------------------------------------------------
# fused operations: one tape node each, with a hand-written backward
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map applied to the last axis: x @ weight + bias.

    `weight` is (n_in, n_out) and `bias` (n_out,); `x` is (..., n_in)
    with any number of leading axes, including none.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    _check_linear(x.shape, weight, bias)
    x2, data = _linear_fwd(x.data, weight.data, bias.data)

    def vjp(g):
        return _linear_vjp(g, x2, weight.data, _grad_shape(x))

    return _result(data, (x, weight, bias), vjp, "linear")


@dataclass
class AttentionWeights:
    """Projection parameters of one attention block (all D x D).

    The key projection carries no bias: softmax shifts every logit of a
    query row by the same q . b_k, so a key bias cannot change the
    attention output and would sit in the model with an identically zero
    gradient.
    """

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor


@dataclass
class FeedForwardWeights:
    """Two affine layers around the activation: (D, d_ff) and (d_ff, D)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerNormWeights:
    gain: Tensor
    bias: Tensor


def multi_head_attention(q_tokens: Tensor, kv_tokens: Tensor, weights: AttentionWeights,
                         n_heads: int) -> Tensor:
    """Scaled dot-product attention with per-head softmax over one memory.

    Queries (..., n, D) attend to a memory (..., m, D) with the same leading
    axes, from which both keys and values are projected; the output is
    (..., n, D). The memory is the parent of the key path and of the value
    path, so backward adds those two gradients in that order.

    With one key every softmax is exactly 1: the output is the value and
    output projections of the memory broadcast over the query rows, and the
    queries, the key path, `w_q`, `b_q` and `w_k` get no gradient (theirs is
    exactly zero).
    """
    q_tokens, kv_tokens = as_tensor(q_tokens), as_tensor(kv_tokens)
    w = weights
    d_model = q_tokens.shape[-1]
    if d_model % n_heads != 0:
        raise ConfigError(
            f"model dimension {d_model} not divisible by {n_heads} heads"
        )
    if min(q_tokens.ndim, kv_tokens.ndim) < 2 or q_tokens.shape[:-2] != kv_tokens.shape[:-2]:
        raise ShapeError(f"queries {q_tokens.shape} and memory {kv_tokens.shape} must be "
                         "(..., n, D) and (..., m, D) with the same leading axes")
    for t, w_x, b_x in ((q_tokens, w.w_q, w.b_q), (kv_tokens, w.w_k, None),
                        (kv_tokens, w.w_v, w.b_v), (q_tokens, w.w_o, w.b_o)):
        if w_x.shape != (d_model, d_model):
            raise ShapeError(f"attention weights must be {(d_model, d_model)}, got {w_x.shape}")
        _check_linear(t.shape, w_x, b_x)
    parents = (q_tokens, kv_tokens, kv_tokens, w.w_q, w.b_q, w.w_k, w.w_v, w.b_v, w.w_o, w.b_o)
    if kv_tokens.shape[-2] == 1:
        return _one_key_attention(q_tokens, kv_tokens, w, parents)
    head_dim = d_model // n_heads
    c = 1.0 / np.sqrt(head_dim)

    def split(t):  # (..., n, D) -> (..., H, n, head_dim)
        return t.reshape(t.shape[:-1] + (n_heads, head_dim)).swapaxes(-3, -2)

    def merge(t):  # (..., H, n, head_dim) -> (..., n, D)
        t = t.swapaxes(-3, -2)
        return t.reshape(t.shape[:-2] + (d_model,))

    q2, q = _linear_fwd(q_tokens.data, w.w_q.data, w.b_q.data)
    kv2, k = _linear_fwd(kv_tokens.data, w.w_k.data, None)
    _, v = _linear_fwd(kv_tokens.data, w.w_v.data, w.b_v.data)
    q, k, v = split(q), split(k), split(v)
    # the score block is stored key-leading, (m, ..., H, n)
    attn = _key_leading_matmul(q, _transposed(k))
    attn *= c
    _softmax_fwd(attn)
    key_last, key_second_last, key_first = _key_axes(attn.ndim)
    ctx = merge(attn.transpose(key_last) @ v)
    ctx2, data = _linear_fwd(ctx, w.w_o.data, w.b_o.data)

    def vjp(g):
        g_ctx, g_wo, g_bo = _linear_vjp(g, ctx2, w.w_o.data, ctx.shape)
        g_ctx = split(g_ctx)
        g_v = attn.transpose(key_second_last) @ g_ctx
        # a plain BLAS product, read key-first by the softmax VJP
        g_s = _softmax_vjp((g_ctx @ _transposed(v)).transpose(key_first), attn)
        g_s *= c
        g_q = g_s.transpose(key_last) @ k
        g_k = g_s.transpose(key_second_last) @ q
        g_qt, g_wq, g_bq = _linear_vjp(merge(g_q), q2, w.w_q.data, _grad_shape(q_tokens))
        g_kt, g_wk, _ = _linear_vjp(merge(g_k), kv2, w.w_k.data, _grad_shape(kv_tokens))
        g_vt, g_wv, g_bv = _linear_vjp(merge(g_v), kv2, w.w_v.data, _grad_shape(kv_tokens))
        return g_qt, g_kt, g_vt, g_wq, g_bq, g_wk, g_wv, g_bv, g_wo, g_bo

    return _result(data, parents, vjp, "multi_head_attention")


def _one_key_attention(q_tokens: Tensor, kv_tokens: Tensor, w: AttentionWeights,
                       parents: tuple) -> Tensor:
    """`multi_head_attention` against one key: linear(linear(kv, w_v, b_v), w_o, b_o)
    broadcast over the query rows."""
    v2, v = _linear_fwd(kv_tokens.data, w.w_v.data, w.b_v.data)
    ctx2, out = _linear_fwd(v, w.w_o.data, w.b_o.data)
    rows = q_tokens.shape[-2]
    data = out if rows == 1 else np.broadcast_to(out, q_tokens.shape).copy()

    def vjp(g):
        if rows > 1:  # every query row got the same output
            g = g.sum(axis=-2, keepdims=True)
        g_v, g_wo, g_bo = _linear_vjp(g, ctx2, w.w_o.data, v.shape)
        g_vt, g_wv, g_bv = _linear_vjp(g_v, v2, w.w_v.data, _grad_shape(kv_tokens))
        return None, None, g_vt, None, None, None, g_wv, g_bv, g_wo, g_bo

    return _result(data, parents, vjp, "multi_head_attention")


def ffn(x: Tensor, weights: FeedForwardWeights) -> Tensor:
    """Token-wise feed-forward block: linear -> GELU -> linear."""
    x = as_tensor(x)
    w = weights
    _check_linear(x.shape, w.w1, w.b1)
    _check_linear(w.w1.shape[1:], w.w2, w.b2)
    x2, h = _linear_fwd(x.data, w.w1.data, w.b1.data)
    a, cdf = _gelu_fwd(h)
    a2, data = _linear_fwd(a, w.w2.data, w.b2.data)

    def vjp(g):
        g_a, g_w2, g_b2 = _linear_vjp(g, a2, w.w2.data, a.shape)
        g_x, g_w1, g_b1 = _linear_vjp(_gelu_vjp(g_a, h, cdf), x2, w.w1.data, _grad_shape(x))
        return g_x, g_w1, g_b1, g_w2, g_b2

    return _result(data, (x, w.w1, w.b1, w.w2, w.b2), vjp, "ffn")


def residual_layer_norm(x: Tensor, y: Tensor, weights: LayerNormWeights) -> Tensor:
    """Post-norm residual connection: layer_norm(x + y), one tape node.

    `x` and `y` must have the same shape; nothing is broadcast.
    """
    x, y = as_tensor(x), as_tensor(y)
    if x.shape != y.shape:
        raise ShapeError(f"residual_layer_norm inputs differ in shape: {x.shape} vs {y.shape}")
    gain, bias = as_tensor(weights.gain), as_tensor(weights.bias)
    s = x.data + y.data
    _check_layer_norm(s.shape[-1], gain, bias)
    data, xhat, inv_std = _layer_norm_fwd(s, gain.data, bias.data)

    def vjp(g):
        g_s, g_gain, g_bias = _layer_norm_vjp(g, xhat, inv_std, gain.data)
        return g_s, g_s, g_gain, g_bias

    return _result(data, (x, y, gain, bias), vjp, "residual_layer_norm")
