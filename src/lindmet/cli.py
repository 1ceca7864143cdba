"""Command-line interface.

    lindmet run --config experiment.cfg [--out results.csv] [--seed N] [--plot-data]
    lindmet t2 --linewidth-hz 2.13
    lindmet nmr --config protocol.cfg [--out nmr.csv] [--seed N]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, load_nmr_config, load_run_config
from .harness import run_experiment, run_nmr_protocol, t2_from_linewidth
from .metrology import MetrologyError
from .propagation import PropagationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindmet",
        description="Frequency-estimation metrology under Markovian noise: "
                    "QFI and sensitivity versus encoding time, with optional "
                    "simplex-optimized control pulses.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run schemes over a time grid and write a CSV")
    run.add_argument("--config", required=True, help="path to the run configuration")
    run.add_argument("--out", default=None, help="output CSV path (overrides config)")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--plot-data", action="store_true",
                     help="also write two-column gnuplot files per scheme")

    t2 = sub.add_parser("t2", help="coherence time from a spectral linewidth")
    t2.add_argument("--linewidth-hz", type=float, required=True,
                    help="width at half height of the spectrum (Hz)")

    nmr = sub.add_parser("nmr", help="run the NMR standard-vs-controlled protocol")
    nmr.add_argument("--config", required=True, help="path to the protocol configuration")
    nmr.add_argument("--out", default=None, help="output CSV path (overrides config)")
    nmr.add_argument("--seed", type=int, default=None, help="override the master seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "t2":
            try:
                print(f"{t2_from_linewidth(args.linewidth_hz):.17g}")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            return EXIT_OK
        config = (load_run_config if args.command == "run" else load_nmr_config)(args.config)
        if args.seed is not None:
            try:
                config = replace(config, optimizer=replace(config.optimizer, seed=args.seed))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if args.command == "run":
            path = run_experiment(config, out=args.out, plot_data=args.plot_data)
        else:
            path = run_nmr_protocol(config, out=args.out)
        print(f"wrote {path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PropagationError, MetrologyError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
