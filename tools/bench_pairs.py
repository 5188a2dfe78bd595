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
differ by more than the parent's quartile spread. Each end-to-end metric also
gets the regression gate's two flags, relative to the metric's bound in
`BENCHMARK.json`:

- `worse_beyond_bound`: the change's median is worse than the parent's by
  more than the bound, as a fraction of the parent's median;
- `unresolved`: either side's quartile spread, as a fraction of its median, is
  wider than the bound, and not every run of the change reads better than
  every run of the parent, so the pairs cannot tell "unchanged" from a
  regression.

Each workload's summary also holds each side's failed and attempted
operations over all its runs, and `more_failures`: whether the change's
share of failed operations is larger than the parent's, which the gate
counts against a change as well.

Every run also keeps the figures its `report:` lines print, such as
`slowdown` and `uncorrected.windows_per_s`, and each workload's summary holds
each side's median of them. The benchmark divides every time by the
slowdown it measures with an in-process reference kernel, so a change that
moves that kernel's own cost (its page faults depend on the program's
allocations) moves every corrected rate. So each workload's printed summary
puts both sides' median slowdown beside their median
`uncorrected.windows_per_s` and `uncorrected.setup_s`: a corrected move that
the uncorrected figures do not share came from the reference kernel.

The output file is rewritten after every pair, so a run that stops early
(say, a run that prints no result line) keeps the pairs it finished; the
summary is added once the last pair is done.

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
        "reported": reported(lines),
        "environment": environment,
    }


def reported(lines: list) -> dict:
    """Name -> value of a run's `report: <name> = <value> <unit> (<note>)` lines."""
    out = {}
    for line in lines:
        if line.startswith("report: "):
            name, _, rest = line[len("report: "):].partition(" = ")
            out[name] = float(rest.split()[0])
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def failure_share(runs: list) -> dict:
    """Failed and attempted operations summed over `runs`, and their ratio."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return {"failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else 0.0}


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """Both sides' failed/attempted operations, both sides' medians of each `report:`
    figure and, per metric: both sides' medians and quartiles, pair wins, the gain
    rule and, for the end-to-end metrics named in `bounds`, the regression gate's
    flags."""
    operations = {side: failure_share([p[side] for p in pairs]) for side in ("parent", "change")}
    operations["more_failures"] = operations["change"]["share"] > operations["parent"]["share"]
    values = {}
    for p in pairs:
        for side in ("parent", "change"):
            for name, value in p[side]["reported"].items():
                values.setdefault(name, {"parent": [], "change": []})[side].append(value)
    figures = {name: {side: statistics.median(v) if v else None for side, v in sides.items()}
               for name, sides in values.items()}
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
        if name in bounds:
            bound = bounds[name]
            spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
            all_better = min(sign * b for b in change) > max(sign * a for a in parent)
            summary[name].update(
                bound=bound,
                worse_beyond_bound=sign * (pm - cm) > bound * abs(pm),
                unresolved=spread > bound and not all_better,
            )
    return {"operations": operations, "reported": figures, "metrics": summary}


def reference_line(workload: str, figures: dict) -> str | None:
    """Both sides' median slowdown, uncorrected windows_per_s and uncorrected setup_s,
    each when both sides reported it, from a summary's `reported` medians; None if none."""
    parts = []
    for name in ("slowdown", "uncorrected.windows_per_s", "uncorrected.setup_s"):
        medians = figures.get(name)
        if medians and None not in medians.values():
            parts.append(f"median {name}: parent {medians['parent']:.6g}  "
                         f"change {medians['change']:.6g}")
    return f"{workload:<18} " + "  ".join(parts) if parts else None


def save(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, indent=1) + "\n")


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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
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
                save(record, args.out)
    for workload in args.workload:
        pairs = [p for p in record["pairs"] if p["workload"] == workload]
        record["summary"][workload] = summarize(pairs, better, bounds)
    save(record, args.out)
    for workload, summary in record["summary"].items():
        ops = summary["operations"]
        print(f"{workload:<18} operations failed: parent {ops['parent']['failed']}/"
              f"{ops['parent']['attempted']}  change {ops['change']['failed']}/"
              f"{ops['change']['attempted']}  more failures: "
              f"{'yes' if ops['more_failures'] else 'no'}")
        line = reference_line(workload, summary["reported"])
        if line:
            print(line)
        for name, s in summary["metrics"].items():
            flags = ""
            if "bound" in s:
                flags = (f"  worse beyond bound {'yes' if s['worse_beyond_bound'] else 'no'}"
                         f"  unresolved {'yes' if s['unresolved'] else 'no'}")
            print(f"{workload:<18} {name:<24} parent {s['parent']['median']:.6g} "
                  f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}]  change "
                  f"{s['change']['median']:.6g}  wins {s['change_wins']}/{s['pairs']}  "
                  f"gain rule {'holds' if s['gain_rule_holds'] else 'fails'}{flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
