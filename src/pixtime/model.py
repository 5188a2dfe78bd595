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
the patch tokens through the next layer's self-attention, so a model has
L >= 2 decoder layers, or no parameter of the VE table, the encoder or the
variable-wise projection would reach the forecast. The projection reads
only the patch tokens, so the last decoder layer has no cross-attention
and queries with the patch rows alone. The decoder and the head run in
blocks of at most DECODE_BLOCK target sequences along the window axis
(`PiXTime.decode`); the variable embedding, the encoder and the patch
embedding run on the whole batch.
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

# Target sequences per decoder block: at M + 1 = 7, d_ff = 64 a block's FFN
# hidden array (0.9 MB) fits a 2 MiB L2 cache, where a batch-256 m2m pass at
# C = 7 made 7.3 MB arrays that malloc handed back to the kernel every batch.
# A training step and a batch-256 m2u or u2u forecast are one block.
DECODE_BLOCK = 256

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


_UNBOUND = np.empty(0)  # a parameter's data until `PiXTime.__init__` binds its view


class PiXTime:
    """One node's model instance: parameters plus the forward operations.

    `values` and `grads` hold every parameter; the first `n_shared`
    scalars are the shared segment, laid out as `shared_shapes` (name ->
    shape, in `partition` order).
    """

    def __init__(self, dims: ModelDims, node: NodeShapeConfig, seed: int = 0,
                 use_ve: bool = True):
        if dims.L < 2:  # only a decoder layer before the last reads the auxiliaries
            raise ConfigError(f"L={dims.L} must be >= 2")
        if node.T % node.PL != 0:
            raise ShapeError(f"look-back T={node.T} is not a multiple of patch length "
                             f"PL={node.PL}")
        self.dims = dims
        self._categories(node.var_ids + [node.target_id])
        self.node = node
        self.use_ve = use_ve
        self.params: dict[str, Parameter] = {}
        self._draws = []  # (name, shape, init) in RNG order; name None drops the draw
        self._build()
        shapes = {name: shape for name, shape, _ in self._draws if name is not None}
        self.shared_shapes, local = partition(shapes)
        layout = {**self.shared_shapes, **local}
        self.n_shared = sum(math.prod(shape) for shape in self.shared_shapes.values())
        self.values = np.zeros(sum(math.prod(shape) for shape in layout.values()))
        self.grads = np.zeros(self.values.size)
        data, grad = named_views(self.values, layout), named_views(self.grads, layout)
        self.params = {name: self.params[name] for name in layout}
        for name, p in self.params.items():
            p.data, p.grad = data[name], grad[name]
        # each draw consumes what numpy's own call would and yields its bits
        rng = np.random.default_rng(seed)
        for name, shape, init in self._draws:
            if name is None:
                rng.random(shape)
            elif init == "xavier":  # rng.uniform(-limit, limit) is low + (high - low) * u
                limit = np.sqrt(6.0 / sum(shape))
                rng.random(out=data[name])
                data[name] *= 2.0 * limit
                data[name] -= limit
            elif init == "normal":  # rng.normal(0.0, 0.02) is loc + scale * z
                rng.standard_normal(out=data[name])
                data[name] *= 0.02
                data[name] += 0.0
            elif init == "ones":
                data[name].fill(1.0)
        del self._draws

    # -- construction -----------------------------------------------------

    def _param(self, name: str, shape: tuple, init: str = "zeros") -> Parameter:
        """Declare a parameter; `__init__` binds its views and draws it in declaration order."""
        p = Parameter(name, _UNBOUND)
        self.params[name] = p
        self._draws.append((name, shape, init))
        return p

    def _attention(self, prefix: str) -> AttentionWeights:
        D = self.dims.D
        kw = {}
        for key in ("q", "k", "v", "o"):
            kw[f"w_{key}"] = self._param(f"{prefix}.w_{key}", (D, D), "xavier")
            if key != "k":  # key bias is a softmax no-op, see AttentionWeights
                kw[f"b_{key}"] = self._param(f"{prefix}.b_{key}", (D,))
        return AttentionWeights(**kw)

    def _ffn(self, prefix: str) -> FeedForwardWeights:
        D, d_ff = self.dims.D, self.dims.d_ff
        return FeedForwardWeights(
            w1=self._param(f"{prefix}.w1", (D, d_ff), "xavier"),
            b1=self._param(f"{prefix}.b1", (d_ff,)),
            w2=self._param(f"{prefix}.w2", (d_ff, D), "xavier"),
            b2=self._param(f"{prefix}.b2", (D,)),
        )

    def _layer_norm(self, prefix: str) -> LayerNormWeights:
        D = self.dims.D
        return LayerNormWeights(
            gain=self._param(f"{prefix}.gain", (D,), "ones"),
            bias=self._param(f"{prefix}.bias", (D,)),
        )

    def _build(self) -> None:
        dims, node = self.dims, self.node
        D = dims.D

        self.patch_w = self._param("patch_linear.weight", (node.PL, D), "xavier")
        self.patch_b = self._param("patch_linear.bias", (D,))
        self.abstract_token = self._param("abstract_token", (D,), "normal")
        self.ve_w = self._param("ve_linear.weight", (node.T, D), "xavier")
        self.ve_b = self._param("ve_linear.bias", (D,))
        if self.use_ve:
            # zero init keeps the with-table and without-table models identical
            # at step 0, so the ablation isolates what training adds
            self.ve_table = self._param("ve_table", (dims.n_all, D))

        self.encoder_layers = []
        for layer in range(dims.L):
            prefix = f"aux_encoder.layer{layer}"
            self.encoder_layers.append(
                {
                    "self_att": self._attention(f"{prefix}.self_att"),
                    "ln1": self._layer_norm(f"{prefix}.ln1"),
                    "ffn": self._ffn(f"{prefix}.ffn"),
                    "ln2": self._layer_norm(f"{prefix}.ln2"),
                }
            )

        self.decoder_layers = []
        for layer in range(dims.L):
            prefix = f"target_decoder.layer{layer}"
            lp = {
                "self_att": self._attention(f"{prefix}.self_att"),
                "ln1": self._layer_norm(f"{prefix}.ln1"),
            }
            if layer < dims.L - 1:
                lp["cross_att"] = self._attention(f"{prefix}.cross_att")
                lp["ln2"] = self._layer_norm(f"{prefix}.ln2")
            else:
                # the last layer has no cross-attention; discarding its 4 weight
                # draws keeps every later initial value where it always was
                self._draws.append((None, (4, D, D), "discard"))
            lp["ffn"] = self._ffn(f"{prefix}.ffn")
            lp["ln3"] = self._layer_norm(f"{prefix}.ln3")
            self.decoder_layers.append(lp)

        self.proj_w = self._param("projection.weight", (node.M * D, node.S), "xavier")
        self.proj_b = self._param("projection.bias", (node.S,))

    def _categories(self, ids) -> list:
        """`ids` as a list, each checked to be a row of the VE table."""
        for v in ids:
            if not 0 <= v < self.dims.n_all:
                raise CategoryError(f"variable category {v} outside table of size "
                                    f"{self.dims.n_all}")
        return list(ids)

    def shared_views(self, flat: np.ndarray) -> dict:
        """Name -> view of `flat`, a vector laid out like the shared segment."""
        return named_views(flat, self.shared_shapes)

    def shared_values(self) -> dict:
        """A copy of the shared segment, as named views of that copy."""
        return self.shared_views(self.values[: self.n_shared].copy())

    # -- forward operations ------------------------------------------------

    def patch_embed(self, x) -> Tensor:
        """(..., T) target series -> (..., M + 1, D) tokens.

        Row 0 is the abstract token verbatim; rows 1..M project the series'
        M consecutive patches of length PL.
        """
        x = as_tensor(x)
        if x.shape[-1] != self.node.T:
            raise ShapeError(
                f"expected look-back {self.node.T}, got series of length {x.shape[-1]}"
            )
        patches = ad.reshape(x, x.shape[:-1] + (self.node.M, self.node.PL))
        tokens = ad.linear(patches, self.patch_w, self.patch_b)
        head = ad.broadcast_to(self.abstract_token, tokens.shape[:-2] + (1, self.dims.D))
        return ad.concat([head, tokens], axis=-2)

    def variable_embed(self, Z, var_ids=None) -> Tensor:
        """(..., T, C) auxiliary matrix -> (..., C, D) variable tokens.

        Token c is the series-wise projection of column c plus the
        category embedding looked up for var_ids[c].
        """
        Z = as_tensor(Z)
        ids = self.node.var_ids if var_ids is None else self._categories(var_ids)
        if Z.shape[-1] != len(ids):
            raise ShapeError(
                f"auxiliary matrix has {Z.shape[-1]} columns but {len(ids)} ids given"
            )
        if Z.shape[-2] != self.node.T:
            raise ShapeError(
                f"expected look-back {self.node.T}, got auxiliary window {Z.shape[-2]}"
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
            att = ad.multi_head_attention(x, x, lp["self_att"], H)
            x = ad.residual_layer_norm(x, att, lp["ln1"])
            x = ad.residual_layer_norm(x, ad.ffn(x, lp["ffn"]), lp["ln2"])
        return x

    def decoder_layer(self, tokens: Tensor, v_aux: Tensor, layer: int) -> Tensor:
        """One decoder layer on (..., M + 1, D) tokens, abstract token in row 0.

        Self-attention runs over all M + 1 tokens. A window's abstract
        tokens, one per target sequence, are the query rows of one
        cross-attention over that window's encoded auxiliaries `v_aux`
        (..., C, D); the FFN then mixes the cross-attended abstract token
        back into every row. The last layer computes only what the
        projection reads: it has no cross-attention, queries with the M
        patch rows alone (the abstract token still serves as a key and
        value) and returns (..., M, D).
        """
        lp = self.decoder_layers[layer]
        H = self.dims.H
        n_tokens = tokens.shape[-2]
        last = layer == self.dims.L - 1

        queries = ad.slice_axis(tokens, -2, 1, n_tokens) if last else tokens
        att = ad.multi_head_attention(queries, tokens, lp["self_att"], H)
        t = ad.residual_layer_norm(queries, att, lp["ln1"])

        if not last:
            head = ad.slice_axis(t, -2, 0, 1)
            # (..., n_var, 1, D) -> (..., n_var, D); m2u and u2u keep their shape
            rows = ad.reshape(head, v_aux.shape[:-2] + (-1, self.dims.D))
            cross = ad.multi_head_attention(rows, v_aux, lp["cross_att"], H)
            head = ad.reshape(ad.residual_layer_norm(rows, cross, lp["ln2"]), head.shape)
            t = ad.concat([head, ad.slice_axis(t, -2, 1, n_tokens)], axis=-2)
        return ad.residual_layer_norm(t, ad.ffn(t, lp["ffn"]), lp["ln3"])

    def projection(self, tokens: Tensor) -> Tensor:
        """Flatten (..., M, D) patch tokens, the last decoder layer's output, to length S."""
        flat = ad.reshape(tokens, tokens.shape[:-2] + (self.node.M * self.dims.D,))
        return ad.linear(flat, self.proj_w, self.proj_b)

    def decode(self, tokens: Tensor, v_aux: Tensor) -> Tensor:
        """Decoder layers and projection: (..., M + 1, D) tokens -> (..., S).

        Runs in blocks of at most DECODE_BLOCK target sequences along the
        leading (window) axis: the tokens and the encoded auxiliaries
        `v_aux` (..., C, D) are cut together with `slice_axis` and the
        blocks joined with `concat`, so the tape still holds the whole
        batch. A block holds at least one window. Unbatched inputs, whose
        `v_aux` is (C, D), run as one block. The forecasts equal one
        pass's bit for bit at the harness's shapes; a block with a short
        leading axis may reach another numpy product kernel and differ by
        rounding.
        """
        n = tokens.shape[0]
        step = max(1, DECODE_BLOCK // math.prod(tokens.shape[1:-2]))
        if v_aux.ndim < 3 or n <= step:
            return self._decode_block(tokens, v_aux)
        blocks = [self._decode_block(ad.slice_axis(tokens, 0, lo, lo + step),
                                     ad.slice_axis(v_aux, 0, lo, lo + step))
                  for lo in range(0, n, step)]
        return ad.concat(blocks, axis=0)

    def _decode_block(self, tokens: Tensor, v_aux: Tensor) -> Tensor:
        for layer in range(self.dims.L):
            tokens = self.decoder_layer(tokens, v_aux, layer)
        return self.projection(tokens)

    def forward(self, x, Z, var_ids=None) -> Tensor:
        """Full forecast pass: (..., T) target + (..., T, C) auxiliaries -> (..., S)."""
        v_aux = self.variable_embed(Z, var_ids)
        v_enc = self.aux_encoder(v_aux)
        return self.decode(self.patch_embed(x), v_enc)

    def m2m_forward(self, all_series, var_ids=None) -> Tensor:
        """Joint forecast of every variable: (..., T, n_var) -> (..., n_var, S).

        `forward` with every variable as both auxiliary and target: all
        variables form the auxiliary set (one encoder pass), and the
        transposed series gives (..., n_var, T) targets, so a window holds
        n_var target sequences whose abstract tokens are the query rows of
        one cross-attention over the window's encoded auxiliaries. The
        decoder runs over them in blocks of whole windows (see `decode`).
        """
        series = as_tensor(all_series)
        ids = list(var_ids) if var_ids is not None else [self.node.target_id] + self.node.var_ids
        if not ids:
            raise ConfigError("m2m requires at least one variable")
        return self.forward(ad.swapaxes(series, -1, -2), series, ids)

    def u2u_forward(self, x) -> Tensor:
        """Univariate forecast: the target is copied in as its own auxiliary."""
        x = as_tensor(x)
        Z = ad.reshape(x, x.shape + (1,))
        return self.forward(x, Z, var_ids=[self.node.target_id])
