"""Command-line entry point.

Subcommands map onto experiment modes; every run writes a config echo,
a metrics JSON and a round-log CSV into the output directory. Exit code
is 0 on success, 2 on configuration problems, 1 on runtime failures.
"""

import argparse
import json
import sys
from pathlib import Path

from .data import generate_synthetic, write_csv
from .errors import ConfigError, PixTimeError
from .harness import ExperimentConfig, run_experiment

_MODE_BY_COMMAND = {
    "train-central": "central",
    "train-fed": "federated",
    "evaluate": "evaluate",
    "gradcheck": "gradcheck",
    "ablate-granularity": "ablate-granularity",
    "ablate-ve": "ablate-ve",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pixtime",
        description="Federated multi-granularity time series forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _MODE_BY_COMMAND:
        p = sub.add_parser(command, help=f"run the {command} experiment")
        p.add_argument("--config", type=Path, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, help="override the output directory")

    g = sub.add_parser("gen-synthetic", help="write a synthetic dataset as CSV")
    g.add_argument("--config", type=Path, help="JSON with n_vars/length/seed fields")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path, required=True, help="output CSV path")
    g.add_argument("--n-vars", type=int, default=8)
    g.add_argument("--length", type=int, default=4000)
    return parser


def _read_json(path: Path):
    """The JSON value in `path`; a file json cannot decode is a config error:
    malformed, not UTF-8, an integer too long for int() (all ValueErrors),
    or nested past the decoder's recursion limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def _gen_synthetic(args) -> int:
    spec = {"n_vars": args.n_vars, "length": args.length, "seed": args.seed}
    if args.config is not None:
        block = _read_json(args.config)
        spec = {**spec, **block} if isinstance(block, dict) else block
    # the experiment config check covers the synthetic block; its other
    # fields keep their valid defaults
    ExperimentConfig.from_dict({"dataset": {"synthetic": spec}})
    dataset = generate_synthetic(**spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.values.shape[0]} rows x {dataset.values.shape[1]} columns to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-synthetic":
            return _gen_synthetic(args)
        raw = {}
        if args.config is not None:
            raw = _read_json(args.config)
            if not isinstance(raw, dict):
                raise ConfigError(f"{args.config}: a config must be a JSON object")
        raw["mode"] = _MODE_BY_COMMAND[args.command]
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["out_dir"] = str(args.out)
        config = ExperimentConfig.from_dict(raw)
        result = run_experiment(config)
        print(json.dumps(result.metrics, indent=2, sort_keys=True))
        print(f"artifacts in {result.out_dir} ({result.duration_s:.1f}s)")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PixTimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
