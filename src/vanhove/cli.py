"""Command-line interface.

Subcommands mirror the experiment kinds: evolve, weak-limit, wigner,
cosmo, validate, oracle.  Exit status: 0 all checks pass, 1 a declared
validation or tolerance check failed, 2 configuration or setup error.
Time units assume hbar = 1 throughout.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KIND_SCHEMAS, load_config
from .errors import ConfigError, VanHoveError
from .harness import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanhove",
        description="declarative experiment runner for spectral-kernel decoherence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KIND_SCHEMAS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment config")
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument(
            "--threads", type=int, help="accepted and ignored; no computation depends on it"
        )
        p.add_argument(
            "--seed", type=int, default=None, help="overrides the config seed"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config["kind"] != args.command:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match "
                f"subcommand {args.command!r}"
            )
        result = run_experiment(config, args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VanHoveError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return 2

    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    artifacts = ", ".join(a["path"] for a in result.manifest["artifacts"])
    print(f"wrote {artifacts} + manifest.json to {args.out}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
