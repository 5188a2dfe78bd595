"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fed2-train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root. The run repeats whole passes of the workload
for about ``--seconds`` (always at least one). ``--trace 0`` reports the
end-to-end metrics, built from many short timed operations, each
corrected for how fast the core ran around it; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is 0 only if every output check passed. A record of the run,
with the environment, goes to perfbench/out/.
"""

import os

# pin BLAS to one thread before numpy is imported; checked after import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_REPEATS = 20  # extra setups before each untraced pass
NEAREST = 9  # reference_work timings that set the slowdown around an operation
# reference_work's time on an uncontended vCPU of the 2-vCPU Intel Xeon
# (2.1 GHz) machine the bounds were measured on; it sets the unit of the
# corrected times, and a run as fast as that has slowdown 1
REFERENCE_S = 0.65e-3


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    if threads is not None and threads != BLAS_THREADS:
        raise SystemExit(f"BLAS runs {threads} threads, expected {BLAS_THREADS}")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _timed_pass(workload, tracer) -> workloads.PassResult:
    gc.collect()
    t0 = time.perf_counter()
    res = workload.run_pass(tracer)
    res.wall_s = time.perf_counter() - t0
    return res


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def slowdown_at(times: np.ndarray, reference: list) -> np.ndarray:
    """How much slower than REFERENCE_S the core ran reference_work around each of ``times``.

    On a shared machine a core runs up to about 1.8x slower for stretches
    from a fraction of a second to a whole run. ``reference`` holds the
    (start, seconds) of the reference_work timed between the operations;
    the slowdown at a moment is the median of the NEAREST timings around
    it, over REFERENCE_S.
    """
    ref = np.array(sorted(reference))
    starts, seconds = ref[:, 0], ref[:, 1]
    k = min(NEAREST, len(starts))
    first = np.clip(np.searchsorted(starts, times) - k // 2, 0, len(starts) - k)
    return np.array([np.median(seconds[i : i + k]) for i in first]) / REFERENCE_S


class Timings:
    """Every timed operation of a run, each with the core's slowdown around it.

    An operation's corrected time is its time over that slowdown: how long
    it would have taken on an uncontended core. Rates and setup_s use the
    corrected times of every operation, so an intermittent cost counts in
    full.
    """

    def __init__(self, ops: list, reference: list):
        kind, start, seconds, windows = zip(*ops)
        self.kind = np.array(kind)
        self.seconds = np.array(seconds)
        self.windows = np.array(windows)
        self.slowdown = slowdown_at(np.array(start) + self.seconds / 2, reference)

    def _times(self, kinds, corrected: bool) -> np.ndarray:
        chosen = np.isin(self.kind, kinds)
        times = self.seconds / self.slowdown if corrected else self.seconds
        return times[chosen], self.windows[chosen]

    def rate(self, kinds, corrected: bool = True) -> float:
        """Windows per second of the operations of ``kinds``."""
        times, windows = self._times(kinds, corrected)
        return float(windows.sum() / times.sum()) if times.sum() > 0 else float("nan")

    def setup_s(self, corrected: bool = True) -> float:
        return _median(list(self._times(("setup",), corrected)[0]))


def end_to_end(workload, timings: Timings) -> dict:
    m = {
        "setup_s": (timings.setup_s(), "s"),
        "windows_per_s": (timings.rate(workload.work_ops), "1/s"),
    }
    for mode in workloads.MODES:
        m[f"{mode}_windows_per_s"] = (timings.rate((mode,)), "1/s")
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    m["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    return m


def reported(workload, passes: list, timings: Timings) -> dict:
    """Figures printed with every untraced run but not bounded (see README.md)."""
    attempted = sum(p.attempted for p in passes)
    out = {
        "slowdown": (float(np.median(timings.slowdown)), "1",
                     "median over operations; corrected times are divided by it"),
        "uncorrected.setup_s": (timings.setup_s(corrected=False), "s", "median, raw times"),
        "uncorrected.windows_per_s": (timings.rate(workload.work_ops, corrected=False), "1/s",
                                      "raw times"),
        "wall_s": (_median([p.wall_s for p in passes]), "s", f"median of {len(passes)} passes"),
        "forecast_mse": (_median([p.forecast_mse for p in passes]), "mse",
                         "mean over nodes (and modes) of the pooled test or forecast MSE"),
        "error_rate": (sum(p.failed for p in passes) / attempted if attempted else 0.0, "1",
                       f"{attempted} operations"),
    }
    rounds = [t for p in passes for t in p.round_s]
    if rounds:
        out["round_s_p50"] = (_median(rounds), "s", f"median of {len(rounds)} rounds")
    return out



def per_layer(tracer: spans.Tracer, passes: list, overhead_s: float) -> dict:
    """Per-layer metrics from the spans of the traced passes.

    Per-step figures divide by training steps on the training workloads
    and by forecast batches on mixgran-infer; a layer a workload does not
    use reads 0.
    """
    totals = spans.SpanTotals(tracer)
    setups = len(passes)
    steps = sum(p.steps for p in passes)
    batches = sum(p.batches for p in passes)
    rounds = sum(len(p.round_s) for p in passes)
    node_rounds = sum(p.node_rounds for p in passes)
    eval_windows = sum(p.eval_windows for p in passes)
    main = ("train",) if steps else ("infer",)
    per_unit = steps or batches

    def ms(label, phases=main, count=per_unit):
        return 1e3 * totals.seconds(label, phases) / count if count else 0.0

    def calls(label, phases=main, count=per_unit):
        return totals.calls(label, phases) / count if count else 0.0

    m = {
        "data.setup_ms": (sum(ms(f"data.{fn}", ("setup",), setups) for fn in
                              ("generate_synthetic", "standardize", "build_node_views")), "ms"),
        "data.gather_batch.ms": (ms("data.gather_batch"), "ms"),
        "data.gather_batch.calls": (calls("data.gather_batch"), "count"),
        "model.init.ms": (ms("model.init", ("setup",), setups), "ms"),
    }
    for module in spans.MODEL_SPANS:
        m[f"model.{module}.ms"] = (ms(f"model.{module}"), "ms")
    m["autodiff.backward.ms"] = (ms("autodiff.backward", ("train",), steps), "ms")
    m["autodiff.tape_nodes"] = (
        tracer.tape_nodes / tracer.backward_calls if tracer.backward_calls else 0.0, "count"
    )
    for op in spans.PRIMITIVES:
        m[f"autodiff.fwd.{op}.calls"] = (calls(f"autodiff.fwd.{op}"), "count")
        m[f"autodiff.fwd.{op}.ms"] = (ms(f"autodiff.fwd.{op}"), "ms")
        m[f"autodiff.bwd.{op}.ms"] = (ms(f"autodiff.bwd.{op}", ("train",), steps), "ms")
    m["optim.adam_step.ms"] = (ms("optim.adam_step", ("train",), steps), "ms")
    m["optim.zero_grad.ms"] = (ms("optim.zero_grad", ("train",), steps), "ms")
    m["federation.client_update.ms"] = (
        ms("federation.client_update", ("train",), node_rounds), "ms"
    )
    for fn in ("aggregate", "server_step", "broadcast", "shared_values"):
        m[f"federation.{fn}.ms"] = (ms(f"federation.{fn}", ("train",), rounds), "ms")
    round_s = sum(sum(p.round_s) for p in passes)
    m["federation.round_self.ms"] = (
        1e3 * (round_s - totals.round_children_s) / rounds if rounds else 0.0, "ms"
    )
    m["federation.bytes_up"] = (tracer.bytes_up / rounds if rounds else 0.0, "B")
    m["federation.bytes_down"] = (tracer.bytes_down / rounds if rounds else 0.0, "B")
    m["harness.evaluate.ms"] = (
        1e3 * totals.seconds("harness.evaluate") / eval_windows if eval_windows else 0.0, "ms"
    )
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (totals.layer_self_seconds(layer) / len(passes), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _setups_and_pass(workload) -> tuple:
    """SETUP_REPEATS timed setups, each followed by a timing of reference_work, then a pass."""
    extra = workloads.PassResult(timing=True)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        extra.ops.append(("setup", t0, time.perf_counter() - t0, 0))
        extra.reference.append(workloads.reference_work())
    return extra, _timed_pass(workload, workloads.NullTracer())


def _forked(fn):
    """Return ``fn()`` computed in a child process forked from this one.

    A pass run after another in the same process trains 20-27% slower
    per unit of reference work (measured on fed2-train), so each pass
    starts from the state a ``pixtime`` command starts from: this
    process, which has only imported the package.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    os.waitpid(pid, 0)
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"pass in child process failed:\n{value}")
    return value


def _traced_pass(workload, run_index: int) -> tuple:
    tracer = spans.Tracer()
    tracer.run_index = run_index
    tracer.install()
    try:
        return _timed_pass(workload, tracer), tracer
    finally:
        tracer.uninstall()


def check_repeats(passes: list) -> None:
    """Every pass after the first gives the first pass's per-node MSE: the seed fixes all inputs."""
    for p in passes[1:]:
        p.attempted += 1
        if p.node_mse != passes[0].node_mse:
            p.fail(1, f"per-node MSE {p.node_mse} differs from the first pass's "
                      f"{passes[0].node_mse}")


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run passes for about ``seconds`` and collect metrics, counts and failures.

    Every pass runs in a child process of its own. Untraced runs time
    SETUP_REPEATS extra setups before each pass; traced runs alternate an
    untraced and a traced pass.
    """
    start = time.perf_counter()
    untraced, traced, extras = [], [], []
    tracer = spans.Tracer() if trace else None
    while True:
        if trace:
            res = _forked(lambda: _timed_pass(workload, workloads.NullTracer()))
        else:
            extra, res = _forked(lambda: _setups_and_pass(workload))
            extras.append(extra)
        untraced.append(res)
        budget = res.wall_s
        if trace:
            res, pass_tracer = _forked(lambda: _traced_pass(workload, len(traced)))
            tracer.absorb(pass_tracer)
            traced.append(res)
            budget += res.wall_s
        if time.perf_counter() - start + budget > seconds:
            break

    passes = untraced + traced
    check_repeats(passes)
    timings = None
    if trace:
        # traced passes skip the reference work that untraced passes time
        overhead = (_median([p.wall_s for p in traced])
                    - _median([p.wall_s - p.reference_wall_s for p in untraced]))
        metrics = per_layer(tracer, traced, overhead)
    else:
        timings = Timings([op for p in untraced + extras for op in p.ops],
                          [r for p in untraced + extras for r in p.reference])
        metrics = end_to_end(workload, timings)
    return {
        "metrics": metrics,
        "reported": None if trace else reported(workload, untraced, timings),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "passes": untraced,
        "extras": extras,
        "traced_passes": traced,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _number(value):
    return value if np.isfinite(value) else None


def result_line(outcome: dict) -> dict:
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": _number(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }


def _pass_summary(p: workloads.PassResult) -> dict:
    return {
        "setup_s": p.setup_s, "wall_s": p.wall_s, "windows": p.windows,
        "forecast_mse": p.forecast_mse, "node_mse": p.node_mse,
        "attempted": p.attempted, "failed": p.failed, "round_s": p.round_s,
        "ops": p.ops, "reference": p.reference,
    }


def report(args, env: dict, outcome: dict) -> None:
    """Print a readable account of the run and write its record to perfbench/out/."""
    for i, p in enumerate(outcome["passes"]):
        print(f"pass {i}: setup {p.setup_s:.4f} s, wall {p.wall_s:.3f} s, {p.windows} windows, "
              f"{len(p.ops)} timed operations, failed {p.failed}/{p.attempted}")
    for i, p in enumerate(outcome["traced_passes"]):
        print(f"traced pass {i}: wall {p.wall_s:.3f} s")
    for message in outcome["failures"]:
        print(f"FAILED: {message}")
    for name, (value, unit, note) in (outcome["reported"] or {}).items():
        print(f"report: {name} = {value:.6g} {unit} ({note})")
    print("environment: " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "args": vars(args), "environment": env, "result": result_line(outcome),
        "reported": outcome["reported"],
        "failures": outcome["failures"],
        "passes": [_pass_summary(p) for p in outcome["passes"] + outcome["extras"]],
        "traced_passes": [_pass_summary(p) for p in outcome["traced_passes"]],
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, default=str)
    if outcome["tracer"] is not None:
        outcome["tracer"].save(OUT_DIR / f"{stem}.spans.npz")


def run_all(args) -> int:
    """Run every workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        print(f"[{name}] " + json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    for key, entry in combined["metrics"].items():
        print(f"{key:<48} {entry['value']!s:>24} {entry['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    env = environment()
    outcome = measure(workloads.build(args.workload, args.seed), args.seconds, bool(args.trace))
    report(args, env, outcome)
    result = result_line(outcome)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
