"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of the pixtime modules from
outside: nothing under ``src/`` knows it exists. Each wrapped call records
a span (name, start, end, parent span, run id, phase) into compact
in-memory arrays; ``SpanTotals`` sums them and derives self times for
``run.per_layer``, and ``save`` writes the raw spans out.

Names that a module imports by value (``federation.backward``,
``federation.mse``, ``harness.gather_batch``, ...) are rebound in every
pixtime module that holds them, so calls through either name are traced.
"""

import sys
import time
from array import array

import numpy as np

# public autodiff functions that put a node on the tape
PRIMITIVES = (
    "add", "sub", "mul", "scale", "matmul", "reshape", "transpose", "swapaxes",
    "concat", "slice_axis", "broadcast_to", "gather_rows", "gelu", "softmax",
    "layer_norm", "mse",
)
MODEL_MODULES = ("variable_embed", "aux_encoder", "patch_embed", "projection")
DECODER_LAYERS = 2
MODEL_SPANS = ("variable_embed", "aux_encoder", "patch_embed") + tuple(
    f"decoder_layer{i}" for i in range(DECODER_LAYERS)
) + ("projection",)
LAYERS = ("data", "model", "autodiff", "optim", "federation", "harness")
PHASES = ("setup", "train", "eval", "infer", "check")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.phase_id = array("b")
        self._stack = [-1]
        self._phase = 0
        self.run_index = 0
        self.tape_nodes = 0
        self.backward_calls = 0
        self.bytes_up = 0
        self.bytes_down = 0
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = PHASES.index(phase)

    def name(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_index)
        self.phase_id.append(self._phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, label: str, fn, after=None):
        """A traced stand-in for ``fn``; ``after(result, args)`` may inspect the result."""
        nid = self.name(label)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_primitive(self, op: str, fn):
        """Trace an autodiff primitive's forward call and its backward closure."""
        fwd, bwd = self.name(f"autodiff.fwd.{op}"), self.name(f"autodiff.bwd.{op}")
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    j = begin(bwd)
                    try:
                        return vjp(g)
                    finally:
                        finish(j)

                out._vjp = timed_vjp
            return out

        traced.__wrapped__ = fn
        return traced

    def absorb(self, other: "Tracer") -> None:
        """Append the spans and counts of ``other``, a tracer from a pass run in a child process."""
        base = len(self.start)
        names = [self.name(label) for label in other.names]
        self.name_id.extend(names[i] for i in other.name_id)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        for column in ("start", "end", "run", "phase_id"):
            getattr(self, column).extend(getattr(other, column))
        for count in ("tape_nodes", "backward_calls", "bytes_up", "bytes_down"):
            setattr(self, count, getattr(self, count) + getattr(other, count))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every pixtime module that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pixtime" and not mod_name.startswith("pixtime."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self) -> None:
        from pixtime import autodiff, data, federation, harness, model, optim

        for op in PRIMITIVES:
            fn = getattr(autodiff, op)
            self._patch_everywhere(fn, self.wrap_primitive(op, fn))
        self._patch_everywhere(
            autodiff.backward,
            self.wrap("autodiff.backward", autodiff.backward, self._count_tape),
        )
        for label in ("generate_synthetic", "standardize", "build_node_views", "gather_batch"):
            fn = getattr(data, label)
            self._patch_everywhere(fn, self.wrap(f"data.{label}", fn))

        cls = model.PiXTime
        self._patch(cls, "__init__", self.wrap("model.init", cls.__init__))
        for label in MODEL_MODULES + ("forward", "m2m_forward", "u2u_forward"):
            self._patch(cls, label, self.wrap(f"model.{label}", getattr(cls, label)))
        self._patch(cls, "decoder_layer", self._wrap_decoder_layer(cls.decoder_layer))

        self._patch(optim.Adam, "step", self.wrap("optim.adam_step", optim.Adam.step))
        self._patch(optim.Adam, "zero_grad", self.wrap("optim.zero_grad", optim.Adam.zero_grad))

        node = federation.FederatedNode
        self._patch(node, "load_shared", self.wrap("federation.broadcast", node.load_shared))
        self._patch(node, "shared_values",
                    self.wrap("federation.shared_values", node.shared_values))
        self._patch(node, "train_epochs", self.wrap("federation.train_epochs", node.train_epochs))
        for label in ("aggregate", "server_step", "run_federation", "init_global_shared"):
            fn = getattr(federation, label)
            self._patch_everywhere(fn, self.wrap(f"federation.{label}", fn))
        self._patch_everywhere(
            federation.client_update,
            self.wrap("federation.client_update", federation.client_update, self._count_bytes),
        )

        for label in ("evaluate", "persistence_baseline", "load_dataset", "build_nodes"):
            fn = getattr(harness, label)
            self._patch_everywhere(fn, self.wrap(f"harness.{label}", fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap_decoder_layer(self, fn):
        wrapped = [self.wrap(f"model.decoder_layer{i}", fn) for i in range(DECODER_LAYERS)]
        other = self.wrap("model.decoder_layer", fn)

        def traced(model, tokens, v_aux, layer):
            target = wrapped[layer] if layer < DECODER_LAYERS else other
            return target(model, tokens, v_aux, layer)

        return traced

    def _count_tape(self, _result, args):
        # runs after the span closes, so the traversal is not billed to backward
        self.tape_nodes += tape_size(args[0])
        self.backward_calls += 1

    def _count_bytes(self, result, args):
        delta, _ = result
        global_shared = args[1]
        self.bytes_down += sum(v.nbytes for v in global_shared.values())
        self.bytes_up += sum(v.nbytes for v in delta.deltas.values())

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "phase": np.frombuffer(self.phase_id, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def tape_size(loss) -> int:
    """Tensors reachable from ``loss`` through the tape, leaves and inputs included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class SpanTotals:
    """Summed span durations by (name, phase), with self time by layer."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n_names, n_phases = len(tracer.names), len(PHASES)
        key = a["name_id"].astype(np.int64) * n_phases + a["phase"]
        size = n_names * n_phases
        self._ids = {label: i for i, label in enumerate(tracer.names)}
        self._dur = np.bincount(key, weights=dur, minlength=size).reshape(n_names, n_phases)
        self._calls = np.bincount(key, minlength=size).reshape(n_names, n_phases)
        self._self = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        # direct children of run_federation: everything the round loop calls
        rf = self._ids.get("federation.run_federation")
        if rf is None:
            self.round_children_s = 0.0
        else:
            rf_spans = np.flatnonzero(a["name_id"] == rf)
            under = np.isin(a["parent"], rf_spans)
            self.round_children_s = float(dur[under].sum())
        self.names = tracer.names

    def seconds(self, label: str, phases=PHASES) -> float:
        i = self._ids.get(label)
        if i is None:
            return 0.0
        return float(sum(self._dur[i, PHASES.index(p)] for p in phases))

    def calls(self, label: str, phases=PHASES) -> int:
        i = self._ids.get(label)
        if i is None:
            return 0
        return int(sum(self._calls[i, PHASES.index(p)] for p in phases))

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return float(sum(self._self[i] for i, n in enumerate(self.names) if n.startswith(prefix)))
