"""The PiXTime forecasting model.

A target series is split into fixed-physical-span patches and embedded
into D-dimensional tokens behind a learnable abstract token; auxiliary
series become variable-wise tokens (one per series) with a category
embedding added from a global table. A transformer encoder extracts
variable-wise representations, a decoder refines the patch tokens with
self-attention and injects auxiliary information into the abstract token
through cross-attention, and a node-local head projects the patch tokens
to the forecast horizon.

Patch embedding, the abstract token, the variable-wise input projection
and the projection head are node-local (their shapes depend on the node's
look-back/horizon lengths); the variable-embedding table, encoder and
decoder are shared across the federation. Every parameter's value and
gradient is a view into one value vector and one gradient vector per
model, laid out with the shared segment first.

Cross-attention writes into the abstract token only; that content reaches
the patch tokens through the next layer's self-attention, so auxiliary
information influences the forecast when the decoder has at least two
layers (the default harness configuration uses L=2). The projection reads
only the patch tokens, so the last decoder layer has no cross-attention
and queries with the patch rows alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import (
    AttentionWeights,
    FeedForwardWeights,
    LayerNormWeights,
    Parameter,
    Tensor,
    as_tensor,
)
from .errors import CategoryError, ConfigError, PartitionError, ShapeError

LN_EPS = 1e-5

SHARED_ROOTS = frozenset({"ve_table", "aux_encoder", "target_decoder"})
LOCAL_ROOTS = frozenset({"patch_linear", "abstract_token", "ve_linear", "projection"})


def is_shared(name: str) -> bool:
    """Classify a parameter path; unknown roots fail closed."""
    root = name.split(".", 1)[0]
    if root in SHARED_ROOTS:
        return True
    if root in LOCAL_ROOTS:
        return False
    raise PartitionError(f"parameter {name!r} is neither shared nor local")


def partition(params: dict) -> tuple:
    """Split a named parameter map into (shared, local) sub-maps."""
    shared, local = {}, {}
    for name, p in params.items():
        (shared if is_shared(name) else local)[name] = p
    return shared, local


def named_views(flat: np.ndarray, shapes: dict) -> dict:
    """Name -> view of consecutive segments of `flat`, in the order of `shapes`."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def pack(params: dict) -> tuple:
    """Move parameters into one value vector and one gradient vector.

    Returns (values, grads); afterwards every parameter's `data` and
    `grad` are views of its segment, in dict order.
    """
    shapes = {name: p.shape for name, p in params.items()}
    values = np.concatenate([p.data.ravel() for p in params.values()])
    grads = np.zeros(values.size)
    data, grad = named_views(values, shapes), named_views(grads, shapes)
    for name, p in params.items():
        p.data, p.grad = data[name], grad[name]
    return values, grads


@dataclass(frozen=True)
class ModelDims:
    """Network-wide dimensions; identical on every node of a federation."""

    D: int
    L: int
    H: int
    d_ff: int
    n_all: int


@dataclass
class NodeShapeConfig:
    """Per-node series geometry: look-back, horizon, patching, variables."""

    node_id: int
    T: int
    S: int
    PL: int
    var_ids: list
    target_id: int
    stride: int = 1  # granularity: the node sees every stride-th base row

    def __post_init__(self):
        self.var_ids = [int(v) for v in self.var_ids]

    @property
    def C(self) -> int:
        return len(self.var_ids)

    @property
    def M(self) -> int:
        return self.T // self.PL


def patch_split(x, PL: int) -> Tensor:
    """Split the last axis into non-overlapping patches of length PL.

    (..., T) -> (..., T // PL, PL); concatenating the patches back along
    time reconstructs the input exactly. No learnable parameters.
    """
    x = as_tensor(x)
    T = x.shape[-1]
    if PL < 1 or T % PL != 0:
        raise ShapeError(f"cannot split series of length {T} into patches of length {PL}")
    return ad.reshape(x, x.shape[:-1] + (T // PL, PL))


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class PiXTime:
    """One node's model instance: parameters plus the forward operations.

    `values` and `grads` hold every parameter; the first `n_shared`
    scalars are the shared segment, in `partition` order.
    """

    def __init__(self, dims: ModelDims, node: NodeShapeConfig, seed: int = 0,
                 use_ve: bool = True):
        for v in node.var_ids + [node.target_id]:
            if not 0 <= v < dims.n_all:
                raise CategoryError(
                    f"variable category {v} outside table of size {dims.n_all}"
                )
        self.dims = dims
        self.node = node
        self.use_ve = use_ve
        self.params: dict[str, Parameter] = {}
        self._build(np.random.default_rng(seed))
        shared, local = partition(self.params)
        self.params = {**shared, **local}
        self.n_shared = sum(p.size for p in shared.values())
        self.values, self.grads = pack(self.params)

    # -- construction -----------------------------------------------------

    def _param(self, name: str, value: np.ndarray) -> Parameter:
        p = Parameter(name, value)
        self.params[name] = p
        return p

    def _attention(self, prefix: str, rng) -> AttentionWeights:
        D = self.dims.D
        kw = {}
        for key in ("q", "k", "v", "o"):
            kw[f"w_{key}"] = self._param(f"{prefix}.w_{key}", _xavier(rng, D, D))
            if key != "k":  # key bias is a softmax no-op, see AttentionWeights
                kw[f"b_{key}"] = self._param(f"{prefix}.b_{key}", np.zeros(D))
        return AttentionWeights(**kw)

    def _ffn(self, prefix: str, rng) -> FeedForwardWeights:
        D, d_ff = self.dims.D, self.dims.d_ff
        return FeedForwardWeights(
            w1=self._param(f"{prefix}.w1", _xavier(rng, D, d_ff)),
            b1=self._param(f"{prefix}.b1", np.zeros(d_ff)),
            w2=self._param(f"{prefix}.w2", _xavier(rng, d_ff, D)),
            b2=self._param(f"{prefix}.b2", np.zeros(D)),
        )

    def _layer_norm(self, prefix: str) -> LayerNormWeights:
        D = self.dims.D
        return LayerNormWeights(
            gain=self._param(f"{prefix}.gain", np.ones(D)),
            bias=self._param(f"{prefix}.bias", np.zeros(D)),
        )

    def _build(self, rng: np.random.Generator) -> None:
        dims, node = self.dims, self.node
        D = dims.D

        self.patch_w = self._param("patch_linear.weight", _xavier(rng, node.PL, D))
        self.patch_b = self._param("patch_linear.bias", np.zeros(D))
        self.abstract_token = self._param(
            "abstract_token", rng.normal(0.0, 0.02, size=D)
        )
        self.ve_w = self._param("ve_linear.weight", _xavier(rng, node.T, D))
        self.ve_b = self._param("ve_linear.bias", np.zeros(D))
        # zero init keeps the with-table and without-table models identical
        # at step 0, so the ablation isolates what training adds
        self.ve_table = self._param("ve_table", np.zeros((dims.n_all, D)))

        self.encoder_layers = []
        for layer in range(dims.L):
            prefix = f"aux_encoder.layer{layer}"
            self.encoder_layers.append(
                {
                    "self_att": self._attention(f"{prefix}.self_att", rng),
                    "ln1": self._layer_norm(f"{prefix}.ln1"),
                    "ffn": self._ffn(f"{prefix}.ffn", rng),
                    "ln2": self._layer_norm(f"{prefix}.ln2"),
                }
            )

        self.decoder_layers = []
        for layer in range(dims.L):
            prefix = f"target_decoder.layer{layer}"
            lp = {
                "self_att": self._attention(f"{prefix}.self_att", rng),
                "ln1": self._layer_norm(f"{prefix}.ln1"),
            }
            if layer < dims.L - 1:
                lp["cross_att"] = self._attention(f"{prefix}.cross_att", rng)
                lp["ln2"] = self._layer_norm(f"{prefix}.ln2")
            else:
                # the last layer has no cross-attention; discarding its 4 weight
                # draws keeps every later initial value where it always was
                rng.random((4, D, D))
            lp["ffn"] = self._ffn(f"{prefix}.ffn", rng)
            lp["ln3"] = self._layer_norm(f"{prefix}.ln3")
            self.decoder_layers.append(lp)

        self.proj_w = self._param(
            "projection.weight", _xavier(rng, node.M * D, node.S)
        )
        self.proj_b = self._param("projection.bias", np.zeros(node.S))

    def parameters(self) -> dict[str, Parameter]:
        return self.params

    def shared_views(self, flat: np.ndarray) -> dict:
        """Name -> view of `flat`, a vector laid out like the shared segment."""
        shared, _ = partition(self.params)
        return named_views(flat, {name: p.shape for name, p in shared.items()})

    def shared_values(self) -> dict:
        """A copy of the shared segment, as named views of that copy."""
        return self.shared_views(self.values[: self.n_shared].copy())

    # -- forward operations ------------------------------------------------

    def patch_embed(self, x) -> Tensor:
        """(..., T) target series -> (..., M + 1, D) tokens.

        Row 0 is the abstract token verbatim; rows 1..M are the shared
        patch projection applied to each patch.
        """
        x = as_tensor(x)
        if x.shape[-1] != self.node.T:
            raise ShapeError(
                f"expected look-back {self.node.T}, got series of length {x.shape[-1]}"
            )
        patches = patch_split(x, self.node.PL)
        tokens = ad.linear(patches, self.patch_w, self.patch_b)
        head = ad.reshape(self.abstract_token, (1, self.dims.D))
        head = ad.broadcast_to(head, tokens.shape[:-2] + (1, self.dims.D))
        return ad.concat([head, tokens], axis=-2)

    def variable_embed(self, Z, var_ids=None) -> Tensor:
        """(..., T, C) auxiliary matrix -> (..., C, D) variable tokens.

        Token c is the series-wise projection of column c plus the
        category embedding looked up for var_ids[c].
        """
        Z = as_tensor(Z)
        ids = self.node.var_ids if var_ids is None else list(var_ids)
        if Z.shape[-1] != len(ids):
            raise ShapeError(
                f"auxiliary matrix has {Z.shape[-1]} columns but {len(ids)} ids given"
            )
        if Z.shape[-2] != self.node.T:
            raise ShapeError(
                f"expected look-back {self.node.T}, got auxiliary window {Z.shape[-2]}"
            )
        for v in ids:
            if not 0 <= v < self.dims.n_all:
                raise CategoryError(
                    f"variable category {v} outside table of size {self.dims.n_all}"
                )
        tokens = ad.linear(ad.swapaxes(Z, -1, -2), self.ve_w, self.ve_b)
        if self.use_ve:
            tokens = ad.add(tokens, ad.gather_rows(self.ve_table, ids))
        return tokens

    def aux_encoder(self, v_tokens: Tensor) -> Tensor:
        """L post-norm residual layers of self-attention + FFN over variables."""
        x = v_tokens
        H = self.dims.H
        for lp in self.encoder_layers:
            att = ad.multi_head_attention(x, x, x, lp["self_att"], H)
            x = ad.residual_layer_norm(x, att, lp["ln1"], LN_EPS)
            x = ad.residual_layer_norm(x, ad.ffn(x, lp["ffn"]), lp["ln2"], LN_EPS)
        return x

    def decoder_layer(self, tokens: Tensor, v_aux: Tensor, layer: int) -> Tensor:
        """One decoder layer on (..., M + 1, D) tokens, abstract token in row 0.

        Self-attention runs over all M + 1 tokens; cross-attention uses
        only the abstract token as the query against the encoded auxiliary
        tokens; the FFN then mixes the cross-attended abstract token back
        into every row. The last layer computes only what the projection
        reads: it has no cross-attention, queries with the M patch rows
        alone (the abstract token still serves as a key and value) and
        returns (..., M, D).
        """
        lp = self.decoder_layers[layer]
        H = self.dims.H
        n_tokens = tokens.shape[-2]
        last = layer == self.dims.L - 1

        queries = ad.slice_axis(tokens, -2, 1, n_tokens) if last else tokens
        att = ad.multi_head_attention(queries, tokens, tokens, lp["self_att"], H)
        t = ad.residual_layer_norm(queries, att, lp["ln1"], LN_EPS)

        if not last:
            head = ad.slice_axis(t, -2, 0, 1)
            cross = ad.multi_head_attention(head, v_aux, v_aux, lp["cross_att"], H)
            head = ad.residual_layer_norm(head, cross, lp["ln2"], LN_EPS)
            t = ad.concat([head, ad.slice_axis(t, -2, 1, n_tokens)], axis=-2)
        return ad.residual_layer_norm(t, ad.ffn(t, lp["ffn"]), lp["ln3"], LN_EPS)

    def projection(self, tokens: Tensor) -> Tensor:
        """Flatten (..., M, D) patch tokens, the last decoder layer's output, to length S."""
        flat = ad.reshape(tokens, tokens.shape[:-2] + (self.node.M * self.dims.D,))
        return ad.linear(flat, self.proj_w, self.proj_b)

    def forward(self, x, Z, var_ids=None) -> Tensor:
        """Full forecast pass: (..., T) target + (..., T, C) auxiliaries -> (..., S)."""
        v_aux = self.variable_embed(Z, var_ids)
        v_enc = self.aux_encoder(v_aux)
        tokens = self.patch_embed(x)
        for layer in range(self.dims.L):
            tokens = self.decoder_layer(tokens, v_enc, layer)
        return self.projection(tokens)

    def m2m_forward(self, all_series, var_ids=None) -> Tensor:
        """Joint forecast of every variable: (..., T, n_var) -> (..., n_var, S).

        All variables form the auxiliary set (one encoder pass); each
        variable is also patch-embedded as a target, and the decoder
        processes the resulting batch in one pass with every abstract
        token cross-attending to the same encoded auxiliaries.
        """
        series = as_tensor(all_series)
        ids = list(var_ids) if var_ids is not None else [self.node.target_id] + self.node.var_ids
        n_var = len(ids)
        if n_var < 1:
            raise ConfigError("m2m requires at least one variable")
        if series.shape[-1] != n_var:
            raise ShapeError(
                f"series matrix has {series.shape[-1]} columns but {n_var} ids given"
            )
        v_aux = self.variable_embed(series, ids)
        v_enc = self.aux_encoder(v_aux)
        # keys/values broadcast across the per-variable decoder batch
        v_keys = ad.reshape(v_enc, v_enc.shape[:-2] + (1,) + v_enc.shape[-2:])
        tokens = self.patch_embed(ad.swapaxes(series, -1, -2))
        for layer in range(self.dims.L):
            tokens = self.decoder_layer(tokens, v_keys, layer)
        return self.projection(tokens)

    def u2u_forward(self, x) -> Tensor:
        """Univariate forecast: the target is copied in as its own auxiliary."""
        x = as_tensor(x)
        Z = ad.reshape(x, x.shape + (1,))
        return self.forward(x, Z, var_ids=[self.node.target_id])
