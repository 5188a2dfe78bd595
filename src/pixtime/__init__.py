"""Federated multi-granularity time series forecasting.

The package bundles a small float64 reverse-mode autodiff engine, the
PiXTime encoder-decoder forecaster built on it, a deterministic
in-process federated training simulator with shared/local parameter
decoupling, dataset tooling, and an experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .autodiff import (
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
from .data import (
    NodeDataView,
    RawDataset,
    SplitSpec,
    assign_variable_subsets,
    generate_synthetic,
    load_csv,
    standardize,
    write_csv,
)
from .federation import (
    ClientDelta,
    FederatedNode,
    RoundRecord,
    aggregate,
    client_update,
    init_global_shared,
    run_federation,
    server_step,
)
from .harness import (
    ExperimentConfig,
    Metrics,
    evaluate,
    persistence_baseline,
    run_experiment,
)
from .model import ModelDims, NodeShapeConfig, PiXTime, partition
from .optim import Adam, grad_check
