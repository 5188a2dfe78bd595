"""Deterministic in-process federated training rounds.

Shared modules (variable-embedding table, auxiliary encoder, target
decoder) travel between server and nodes; patch embedding, the abstract
token, the variable-wise input projection and the projection head never
leave their node. Aggregation reduces client deltas in ascending node-id
order with sample-count weights; variable-embedding rows are averaged
only over the clients that actually hold the category.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import backward, mse
from .data import NodeDataView, gather_batch
from .errors import AggregationError, ConfigError, DivergenceError, NumericError, PartitionError
from .model import ModelDims, NodeShapeConfig, PiXTime, named_views, partition
from .optim import Adam


@dataclass
class ClientDelta:
    """One node's round contribution: shared-parameter changes only."""

    node_id: int
    deltas: dict
    weight: float
    ve_usage: np.ndarray


@dataclass
class RoundRecord:
    """Per-round log entry; durations are wall clock, the rest is replayable."""

    round_index: int
    node_losses: dict
    update_norms: dict
    duration_s: float
    node_shared_digests: dict = field(default_factory=dict)


class FederatedNode:
    """A model plus its optimizer, data views and private batch ordering."""

    def __init__(
        self,
        dims: ModelDims,
        cfg: NodeShapeConfig,
        views: dict,
        seed: int,
        lr: float = 1e-4,
        batch_size: int = 32,
        use_ve: bool = True,
    ):
        self.cfg = cfg
        self.dims = dims
        self.model = PiXTime(dims, cfg, seed=seed, use_ve=use_ve)
        self.views = views
        self.optimizer = Adam(self.model.values, self.model.grads, lr=lr)
        self.batch_size = batch_size
        self.rng = np.random.default_rng([seed, cfg.node_id, 1])
        self.steps_taken = 0

    @property
    def node_id(self) -> int:
        return self.cfg.node_id

    @property
    def train_view(self) -> NodeDataView:
        return self.views["train"]

    def shared_values(self) -> dict:
        return self.model.shared_values()

    def load_shared(self, values: dict) -> None:
        shared, _ = partition(self.model.params)
        if set(values) != set(shared):
            raise PartitionError(
                f"node {self.node_id}: shared name sets differ on broadcast"
            )
        np.concatenate(
            [np.ravel(values[name]) for name in shared],
            out=self.model.values[: self.model.n_shared],
        )

    def ve_usage(self) -> np.ndarray:
        mask = np.zeros(self.dims.n_all, dtype=bool)
        mask[self.cfg.var_ids] = True
        mask[self.cfg.target_id] = True
        return mask

    def train_epochs(self, epochs: int) -> float:
        """Run local mini-batch Adam epochs; returns the mean sample loss."""
        starts = self.train_view.starts
        if epochs == 0 or len(starts) == 0:
            return float("nan")
        total_loss, total_samples = 0.0, 0
        for _ in range(epochs):
            order = self.rng.permutation(len(starts))
            for lo in range(0, len(order), self.batch_size):
                batch = starts[order[lo : lo + self.batch_size]]
                x, Z, y = gather_batch(self.train_view, batch)
                try:
                    loss = mse(self.model.forward(x, Z), y)
                except NumericError as exc:
                    raise DivergenceError(self.node_id, self.steps_taken, str(exc)) from exc
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(self.node_id, self.steps_taken)
                self.optimizer.zero_grad()
                backward(loss)
                self.optimizer.step()
                self.steps_taken += 1
                total_loss += value * len(batch)
                total_samples += len(batch)
        return total_loss / total_samples


def client_update(node: FederatedNode, global_shared: dict, epochs: int) -> tuple:
    """Broadcast-in, train locally, return (ClientDelta, mean train loss).

    Local parameters and the local Adam state persist on the node across
    rounds; only shared-parameter changes leave it.
    """
    node.load_shared(global_shared)
    segment = node.model.values[: node.model.n_shared]
    start = segment.copy()
    mean_loss = node.train_epochs(epochs)
    deltas = node.model.shared_views(segment - start)
    weight = float(epochs * len(node.train_view.starts))
    return (
        ClientDelta(
            node_id=node.node_id, deltas=deltas, weight=weight, ve_usage=node.ve_usage()
        ),
        mean_loss,
    )


def aggregate(deltas: list) -> dict:
    """Weighted mean of client deltas, reduced in ascending node-id order.

    Variable-embedding rows average only over clients whose usage mask
    covers the row; a row no client used gets a zero pseudo-gradient.
    """
    if not deltas:
        raise AggregationError("no client deltas to aggregate")
    ordered = sorted(deltas, key=lambda d: d.node_id)
    first = ordered[0]
    layout = {name: v.shape for name, v in first.deltas.items()}
    for d in ordered[1:]:
        if {name: v.shape for name, v in d.deltas.items()} != layout:
            raise AggregationError(
                f"delta names or shapes differ between nodes {first.node_id} and {d.node_id}"
            )

    total = sum(d.weight for d in ordered)
    if total <= 0:
        raise AggregationError("total client weight is zero; no client trained this round")
    row_weight = sum(np.where(d.ve_usage, d.weight, 0.0) for d in ordered)

    pseudo = {name: np.zeros_like(first.deltas[name]) for name in sorted(layout)}
    for d in ordered:
        share = np.divide(d.weight, row_weight, out=np.zeros(row_weight.shape),
                          where=d.ve_usage & (row_weight > 0))
        for name, acc in pseudo.items():
            coef = share[:, None] if name == "ve_table" else d.weight / total
            acc += coef * d.deltas[name]
    return pseudo


class ServerSGD:
    """FedAvg-style server: add the pseudo-gradient (lr 1.0 by default)."""

    def __init__(self, lr: float = 1.0):
        self.lr = lr

    def apply(self, global_shared: dict, pseudo: dict) -> dict:
        return {name: global_shared[name] + self.lr * pseudo[name] for name in global_shared}


class ServerAdam:
    """Adam on a flat copy of the shared state, with grad = -pseudo-gradient."""

    def __init__(self, lr: float = 1e-2, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.settings = (lr, beta1, beta2, eps)
        self.adam = None

    def apply(self, global_shared: dict, pseudo: dict) -> dict:
        values = np.concatenate([np.ravel(v) for v in global_shared.values()])
        grads = -np.concatenate([np.ravel(pseudo[name]) for name in global_shared])
        if self.adam is None:
            self.adam = Adam(values, grads, *self.settings)
        self.adam.values, self.adam.grads = values, grads
        self.adam.step()
        return named_views(values, {name: v.shape for name, v in global_shared.items()})


def make_server_optimizer(kind: str, lr: float | None = None):
    if kind == "sgd":
        return ServerSGD(lr=1.0 if lr is None else lr)
    if kind == "adam":
        return ServerAdam(lr=1e-2 if lr is None else lr)
    raise ConfigError(f"unknown server optimizer {kind!r}")


def server_step(global_shared: dict, pseudo: dict, optimizer=None) -> dict:
    """Apply one server update; plain addition unless an optimizer is given."""
    opt = optimizer if optimizer is not None else ServerSGD()
    for name in global_shared:
        if pseudo[name].shape != global_shared[name].shape:
            raise AggregationError(
                f"pseudo-gradient shape mismatch for {name!r}: "
                f"{pseudo[name].shape} vs {global_shared[name].shape}"
            )
    return opt.apply(global_shared, pseudo)


def _shared_digest(node: FederatedNode) -> str:
    return hashlib.sha256(node.model.values[: node.model.n_shared].tobytes()).hexdigest()[:16]


def run_federation(
    nodes: list,
    global_shared: dict,
    rounds: int,
    epochs: int,
    server_optimizer=None,
) -> tuple:
    """Run synchronous full-participation rounds; returns (records, shared).

    Every round: broadcast the global shared parameters, let each node
    train locally, reduce the deltas, step the server, and re-broadcast so
    all nodes end the round with bit-identical shared parameters. Replay
    is deterministic for a fixed seed and node set.
    """
    opt = server_optimizer if server_optimizer is not None else ServerSGD()
    records = []
    for r in range(rounds):
        t0 = time.perf_counter()
        results = [client_update(node, global_shared, epochs) for node in nodes]
        deltas = [delta for delta, _ in results]
        losses = {node.node_id: loss for node, (_, loss) in zip(nodes, results)}
        pseudo = aggregate(deltas)
        new_shared = server_step(global_shared, pseudo, opt)
        norms = {
            name: float(np.linalg.norm(new_shared[name] - global_shared[name]))
            for name in sorted(global_shared)
        }
        global_shared = new_shared
        for node in nodes:
            node.load_shared(global_shared)
        records.append(
            RoundRecord(
                round_index=r,
                node_losses=losses,
                update_norms=norms,
                duration_s=time.perf_counter() - t0,
                node_shared_digests={n.node_id: _shared_digest(n) for n in nodes},
            )
        )
    return records, global_shared


def init_global_shared(dims: ModelDims, seed: int) -> dict:
    """Server-side initial shared parameter values.

    Shared shapes do not depend on any node's series geometry, so a
    minimal reference configuration is used to materialize them.
    """
    ref = NodeShapeConfig(node_id=-1, T=1, S=1, PL=1, var_ids=[], target_id=0)
    model = PiXTime(dims, ref, seed=seed)
    # nothing else holds the reference model, so its segment needs no copy
    return model.shared_views(model.values[: model.n_shared])
