"""Run the benchmark on a parent revision and on the working tree in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload fed2-train \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 40 --trace 0 --out BENCH_6.json

The parent revision is exported with `git archive` into a temporary
directory; the working tree runs in place. For every seed and workload the
two sides run `perfbench/run.py` one after the other, and the side that runs
first alternates from pair to pair. Every run's metrics are recorded. For each
workload and each metric that `BENCHMARK.json` names, the output holds each
side's median and quartiles, the change/parent ratio of the medians, the
pairs the change won (ties count for neither side) and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's quartile spread.

Standard library only; nothing under `perfbench/` is imported.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of `rev` into `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run; returns its result line plus exit code and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {tree}: no result (exit {proc.returncode})")
    environment = next((json.loads(line[len("environment: "):]) for line in lines
                        if line.startswith("environment: ")), None)
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "environment": environment,
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: both sides' medians and quartiles, pair wins and the gain rule."""
    summary = {}
    for name, direction in better.items():
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for a, b in both if sign * (b - a) > 0)
        losses = sum(1 for a, b in both if sign * (b - a) < 0)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        summary[name] = {
            "better": direction,
            "pairs": len(both),
            "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
            "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
            "median_ratio": cm / pm if pm else None,
            "change_wins": wins,
            "parent_wins": losses,
            "gain_rule_holds": wins >= 0.9 * len(both) and sign * (cm - pm) > p3 - p1,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, nargs="+", type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent_sha = git("rev-parse", args.parent)
    record = {
        "parent": {"rev": args.parent, "commit": parent_sha},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "settings": {"workloads": args.workload, "seeds": args.seeds,
                     "seconds": args.seconds, "trace": args.trace},
        "pairs": [],
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(parent_sha, trees["parent"])
        for i, seed in enumerate(args.seeds):
            for workload in args.workload:
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    rate = pair[side]["metrics"].get("windows_per_s")
                    print(f"{workload} seed {seed} {side}: windows_per_s {rate} "
                          f"failed {pair[side]['failed']}", flush=True)
                record["pairs"].append(pair)
    for workload in args.workload:
        pairs = [p for p in record["pairs"] if p["workload"] == workload]
        record["summary"][workload] = summarize(pairs, better)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, metrics in record["summary"].items():
        for name, s in metrics.items():
            print(f"{workload:<18} {name:<24} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
                  f"{s['change']['median']:.6g}  wins {s['change_wins']}/{s['pairs']}  "
                  f"gain rule {'holds' if s['gain_rule_holds'] else 'fails'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
