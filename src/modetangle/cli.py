"""Command-line front end.

    modetangle chsh --out scan.csv [--range-min A --range-max B --steps N]
    modetangle entropy-rotation --out scan.csv [...]
    modetangle interferometer --out scan.csv [...]
    modetangle oscillator --out report.json [--lambda G --truncation N]
    modetangle protocol CONFIG [--out PREFIX] [--eta E --trials N --seed S
                                --gate on|off --lambda G --truncation N]

Scans write CSV with '#' metadata lines, a header row, and values at 12
significant digits; the oscillator writes a JSON report; the protocol
writes a JSON-lines outcome log plus a JSON summary.  Outputs are
byte-stable for identical flags and seed.  Exit codes: 0 success, 2
usage or configuration error, 3 failed physics precondition.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .interferometer import momentum_chsh_scan
from .oscillator import build_model, first_order_energy, mode_overlap, truncation_problem
from .polarization import chsh_scan, mode_rotation_entropy_scan
from .protocol import (
    PhysicsPreconditionError,
    campaign_summary,
    render_outcome_log,
    run_campaign,
)
from .results import atomic_write_text, write_json, write_scan_csv
from .runconfig import _KEYS, ConfigError, parse_run_config, to_conversion_config

USAGE_ERROR = 2
PRECONDITION_ERROR = 3

REPORTED_LEVELS = 10
OVERLAP_LEVELS = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modetangle",
        description="Bell statistics, entropy scans, and mode-to-particle conversion.",
    )
    parser.add_argument("--version", action="version", version=f"modetangle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scans = (
        ("chsh", "CHSH sum and pair entropy over the separation angle", 0.0, math.pi),
        ("entropy-rotation", "mode-bipartition entropy over the rotation angle", 0.0, math.pi),
        ("interferometer", "momentum Bell scan over the station half-angle", 0.0, math.pi),
    )
    for name, help_text, lo, hi in scans:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--range-min", type=float, default=lo)
        p.add_argument("--range-max", type=float, default=hi)
        p.add_argument("--steps", type=int, default=181)
        p.add_argument("--seed", type=int, default=0, help="recorded in metadata")
        p.set_defaults(func=_SCAN_COMMANDS[name])

    p = sub.add_parser("oscillator", help="diagonalize the quartic-anharmonic model")
    p.add_argument("--out", required=True, help="JSON output path")
    p.add_argument("--lambda", dest="anharmonicity", type=float, default=0.0)
    p.add_argument("--truncation", type=int, default=64)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("protocol", help="run a seeded conversion campaign")
    p.add_argument("config", help="key=value configuration file")
    p.add_argument("--out", help="output prefix (writes PREFIX.jsonl and PREFIX.json)")
    p.add_argument("--eta", help="override detector efficiency")
    p.add_argument("--trials", help="override trial count")
    p.add_argument("--seed", help="override master seed")
    p.add_argument("--gate", choices=("on", "off"), help="override the abort gate")
    p.add_argument("--lambda", help="override anharmonicity")
    p.add_argument("--truncation", help="override basis truncation")
    p.set_defaults(func=cmd_protocol)
    return parser


def _scan_metadata(args: argparse.Namespace) -> dict:
    return {
        "tool": f"modetangle {__version__}",
        "command": args.command,
        "range_min": args.range_min,
        "range_max": args.range_max,
        "steps": args.steps,
        "seed": args.seed,
    }


def cmd_chsh(args: argparse.Namespace) -> int:
    result = chsh_scan(args.range_min, args.range_max, args.steps)
    write_scan_csv(result, args.out, _scan_metadata(args))
    return 0


def cmd_entropy_rotation(args: argparse.Namespace) -> int:
    result = mode_rotation_entropy_scan(args.range_min, args.range_max, args.steps)
    write_scan_csv(result, args.out, _scan_metadata(args))
    return 0


def cmd_interferometer(args: argparse.Namespace) -> int:
    result = momentum_chsh_scan(args.range_min, args.range_max, args.steps)
    write_scan_csv(result, args.out, _scan_metadata(args))
    return 0


_SCAN_COMMANDS = {
    "chsh": cmd_chsh,
    "entropy-rotation": cmd_entropy_rotation,
    "interferometer": cmd_interferometer,
}


def cmd_oscillator(args: argparse.Namespace) -> int:
    model = build_model(args.anharmonicity, args.truncation)
    levels = list(range(min(REPORTED_LEVELS, model.truncation)))
    overlap_levels = list(range(min(OVERLAP_LEVELS, model.truncation)))
    report = {
        "tool": f"modetangle {__version__}",
        "lambda": model.anharmonicity,
        "truncation": model.truncation,
        "eigenvalues": [model.energy(n) for n in levels],
        "first_order": [first_order_energy(n, model.anharmonicity) for n in levels],
        "overlaps": [mode_overlap(model, n) for n in overlap_levels],
        "x_squared": [model.x_squared_expectation(n) for n in overlap_levels],
        "tail_weight": model.tail_weight(levels),
    }
    write_json(report, args.out)
    problem = truncation_problem(model, levels)
    if problem is not None:
        print(f"warning: {problem}", file=sys.stderr)
    return 0


def cmd_protocol(args: argparse.Namespace) -> int:
    rc = parse_run_config(args.config)
    # each override flag is named after the config key it overrides and
    # parsed as that key would be in the file
    overrides = {
        _KEYS[key].field: _KEYS[key].parse(key, raw)
        for key, raw in vars(args).items()
        if key in _KEYS and raw is not None
    }
    rc = replace(rc, **overrides)
    out_log = rc.out_log
    out_summary = rc.out_summary
    if args.out:
        out_log = args.out + ".jsonl"
        out_summary = args.out + ".json"
    if os.path.realpath(out_log) == os.path.realpath(out_summary):
        raise ConfigError(None, f"out_log and out_summary name the same file: {out_log}")
    config = to_conversion_config(rc)
    result = run_campaign(config, rc.trials, rc.seed)
    atomic_write_text(out_log, render_outcome_log(result.outcomes))
    summary = campaign_summary(result, config, rc.seed)
    try:
        write_json(summary, out_summary)
    except OSError:
        # the log alone is half a result: leave neither file behind
        os.unlink(out_log)
        raise
    for key in ("delivered_rate", "abort_rate", "mean_entropy", "min_fidelity"):
        value = summary[key]
        print(f"{key}={'none' if value is None else format(value, '.12g')}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PhysicsPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
