"""Command-line interface.

Subcommands: `run` (benchmark a config), `validate` (check a bundle,
printing violations), `plugins` (list the registry), `synth-ite` (write a
synthetic treatment bundle with its ground-truth effects).

Exit codes: 0 success, 1 validation/benchmark failure, 2 usage error.
Diagnostics go to standard error; data goes to standard output or files.
The TEMPOFRAME_LOG environment variable (error, warn, info, debug) sets
the diagnostic level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import tempoframe  # noqa: F401  (registers all shipped plugins)
from tempoframe.bench import (
    load_config,
    report_text,
    run_benchmark,
    write_truth,
)
from tempoframe.bundle import (
    locate_manifest,
    read_integer,
    read_number,
    table_line,
    validate_bundle,
    write_bundle,
)
from tempoframe.errors import ConfigError, IoError, ParseError, TempoframeError
from tempoframe.plugins import Category, list_specs
from tempoframe.treatment import synth_treatment_data

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("TEMPOFRAME_LOG", "warn"),
                            logging.WARNING)
    logger = logging.getLogger("tempoframe")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)


def _argument(read):
    """The argparse type of a bundle reader (`read_integer` or
    `read_number`): its ParseError names the argument, not the reader."""
    def parse(text: str):
        try:
            return read(text)
        except ParseError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


_integer = _argument(read_integer)
_number = _argument(read_number)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoframe",
        description="Benchmarking harness for temporal datasets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark config")
    p_run.add_argument("config", help="path to a JSON benchmark config")

    p_val = sub.add_parser("validate", help="validate a data bundle")
    p_val.add_argument("bundle", help="bundle directory or manifest path")

    p_plug = sub.add_parser("plugins", help="list registered plugins")
    p_plug.add_argument("--category", choices=[c.value for c in Category])

    p_synth = sub.add_parser(
        "synth-ite",
        help="write a synthetic treatment bundle plus its true effects")
    p_synth.add_argument("--n", type=_integer, required=True)
    p_synth.add_argument("--seed", type=_integer, required=True)
    p_synth.add_argument("--out", required=True,
                         help="bundle directory to create")
    group = p_synth.add_mutually_exclusive_group()
    group.add_argument("--tau0", type=_number,
                       help="constant treatment effect (default 3.0)")
    group.add_argument("--gamma",
                       type=lambda s: [_number(g) for g in s.split(",")],
                       help="comma-separated linear effect coefficients")
    p_synth.add_argument("--noise", type=_number, default=0.0)
    p_synth.add_argument("--dim", type=_integer, default=2)
    return parser


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, IoError) as e:
        print(f"tempoframe: {e}", file=sys.stderr)
        return 2
    try:
        report = run_benchmark(config)
        if config.output is None:
            sys.stdout.write(report_text(report))
    except TempoframeError as e:
        print(f"tempoframe: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    path = locate_manifest(args.bundle)
    if not os.path.exists(path):
        print(f"tempoframe: no bundle at {args.bundle}", file=sys.stderr)
        return 2
    try:
        violations = validate_bundle(path)
    except TempoframeError as e:
        print(f"tempoframe: {e}", file=sys.stderr)
        return 1
    for fname, v in violations:
        print(f"{fname}:{table_line(v)}: {v.code}: {v.detail}")
    return 1 if violations else 0


def _cmd_plugins(args) -> int:
    category = Category(args.category) if args.category else None
    for spec in list_specs(category):
        print(f"{spec.name}\t{spec.category.value}")
    return 0


def _cmd_synth(args) -> int:
    tau0 = 3.0 if args.tau0 is None and args.gamma is None else args.tau0
    try:
        truth = synth_treatment_data(args.n, args.seed, tau0=tau0,
                                     gamma=args.gamma, noise=args.noise,
                                     dim=args.dim)
    except TempoframeError as e:
        print(f"tempoframe: {e}", file=sys.stderr)
        return 2
    try:
        write_bundle(truth.dataset, args.out)
        write_truth(os.path.join(args.out, "truth.csv"),
                    truth.dataset.sample_ids, truth.effects)
    except TempoframeError as e:
        print(f"tempoframe: {e}", file=sys.stderr)
        return 1
    return 0


def _join_number_options(argv) -> list:
    """`argv` with each `--tau0 X`, `--gamma X` and `--noise X` written as
    `--tau0=X`: argparse takes a separate X that starts with "-" for an
    option, unless it reads as -1 or -0.5 (not -1e-3 or -1,2)."""
    out, args = [], iter(argv)
    for arg in args:
        value = (next(args, None) if arg in ("--tau0", "--gamma", "--noise")
                 else None)
        out.append(arg if value is None else f"{arg}={value}")
    return out


def cli(argv) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_number_options(argv))
    except SystemExit as e:
        return int(e.code or 0)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "plugins":
        return _cmd_plugins(args)
    return _cmd_synth(args)


def entry() -> None:
    sys.exit(cli(sys.argv[1:]))
