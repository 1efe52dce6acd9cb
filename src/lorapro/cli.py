"""Command-line entry point: run, compare, selfcheck."""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, parse_config_file
from .errors import LoraProError
from .harness import compare, run
from .selfcheck import run_selfcheck


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorapro",
        description="Adapter training with adjusted gradients: runs, comparisons, self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single training run")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_run.add_argument("--out", default=None, help="override [run] out_dir")

    p_cmp = sub.add_parser("compare", help="run several methods from one initialization")
    p_cmp.add_argument("--config", required=True, help="path to a key = value config file")
    p_cmp.add_argument(
        "--methods", required=True, help="comma-separated method names (at least two)"
    )
    p_cmp.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_cmp.add_argument("--out", default=None, help="override [run] out_dir")

    p_chk = sub.add_parser("selfcheck", help="run the numerical certification suite")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--json", action="store_true", help="emit a machine-readable report")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file of ``run`` or ``compare`` with its ``--seed``/``--out`` applied."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    config = parse_config_file(args.config)
    return config.with_overrides(**{k: v for k, v in overrides.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run(_load_config(args))
            print(f"final_loss={result.final_loss!r}")
            print(f"metrics: {result.csv_path}")
            print(f"summary: {result.summary_path}")
            print(f"checkpoint: {result.checkpoint_path}")
            return 0
        if args.command == "compare":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            result = compare(_load_config(args), methods)
            for label in result.labels:
                print(f"{label}: final_loss={result.results[label].final_loss!r}")
            print(json.dumps(result.verdicts, indent=2, sort_keys=True))
            print(f"comparison: {result.csv_path}")
            return 0
        # selfcheck
        report = run_selfcheck(seed=args.seed)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            for line in report.lines():
                print(line)
        return 0 if report.passed else 1
    except (LoraProError, OSError) as exc:  # bad input or an unreadable/unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
