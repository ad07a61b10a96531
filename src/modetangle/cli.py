"""Command-line front end.

    modetangle SCAN --out scan.csv [--range-min A --range-max B --steps N --seed S]
    modetangle oscillator --out report.json [--lambda G --truncation N]
    modetangle protocol CONFIG [--out PREFIX] [--eta E --trials N --seed S
                                --gate on|off --lambda G --truncation N]

SCAN is chsh, entropy-rotation or interferometer.  The three share one
command, cmd_scan, which runs the scan function the parser names for
each and writes CSV with '#' metadata lines, a header row, and values at
12 significant digits.  The oscillator writes a JSON report; the protocol
writes a JSON-lines outcome log plus a JSON summary.  Outputs are
byte-stable for identical flags and seed.  Exit codes: 0 success, 2
usage or configuration error, 3 failed physics precondition, 1 output
not written.

Each library module is registered as a lazy module, which runs on its
first attribute access (`importlib.util.LazyLoader`), so each command
executes only the modules it calls.  `--version`, `--help` and
`oscillator` start without numpy or inspect: the oscillator solves its
parity blocks in plain Python, through oscillator, _common and results,
which import no numpy and hold their records as NamedTuples.

main runs BLAS on one thread, for the scans and `protocol`, the commands
that load numpy: when numpy is not yet loaded, it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before
any module loads it, whatever the caller set.  The kernels here are
small (2x2 and 3x3 Schmidt spectra), and a thread pool costs them more
than it gives: starting it adds ~0.1 s of CPU time to the numpy import
(2-vCPU host).  When numpy is already loaded, as in library use, main
leaves os.environ alone and the caller's setting holds.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys

from . import __version__


def _lazy(name: str):
    """Put modetangle.<name> in sys.modules as a module that runs on first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# A command executes only the modules it reaches through these names, and
# what those import.  Every layer module is registered here, states too,
# so that bench/tracing.py finds each in sys.modules right after
# importing this one.
_common = _lazy("_common")
interferometer = _lazy("interferometer")
oscillator = _lazy("oscillator")
polarization = _lazy("polarization")
protocol = _lazy("protocol")
results = _lazy("results")
runconfig = _lazy("runconfig")
_lazy("states")

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

    # each scan names its module and function; cmd_scan looks the function up
    # only when it runs, so that --help loads no numpy
    scans = (
        ("chsh", "CHSH sum and pair entropy over the separation angle",
         polarization, "chsh_scan"),
        ("entropy-rotation", "mode-bipartition entropy over the rotation angle",
         polarization, "mode_rotation_entropy_scan"),
        ("interferometer", "momentum Bell scan over the station half-angle",
         interferometer, "momentum_chsh_scan"),
    )
    for name, help_text, module, function in scans:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--range-min", type=float, default=0.0)
        p.add_argument("--range-max", type=float, default=math.pi)
        p.add_argument("--steps", type=int, default=181)
        p.add_argument("--seed", type=int, default=0, help="recorded in metadata")
        p.set_defaults(func=cmd_scan, scan=(module, function))

    p = sub.add_parser("oscillator", help="the lowest levels of the quartic-anharmonic model")
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


def cmd_scan(args: argparse.Namespace) -> int:
    module, function = args.scan
    result = getattr(module, function)(args.range_min, args.range_max, args.steps)
    metadata = {
        "tool": f"modetangle {__version__}",
        "command": args.command,
        "range_min": args.range_min,
        "range_max": args.range_max,
        "steps": args.steps,
        "seed": args.seed,
    }
    results.atomic_write_text(args.out, results.render_scan_csv(result, metadata))
    return 0


def cmd_oscillator(args: argparse.Namespace) -> int:
    model = oscillator.build_model(args.anharmonicity, args.truncation, levels=REPORTED_LEVELS)
    levels = list(range(min(REPORTED_LEVELS, model.truncation)))
    overlap_levels = list(range(min(OVERLAP_LEVELS, model.truncation)))
    report = {
        "tool": f"modetangle {__version__}",
        "lambda": model.anharmonicity,
        "truncation": model.truncation,
        "eigenvalues": [model.energy(n) for n in levels],
        "first_order": [oscillator.first_order_energy(n, model.anharmonicity) for n in levels],
        "overlaps": [oscillator.mode_overlap(model, n) for n in overlap_levels],
        "x_squared": [model.x_squared_expectation(n) for n in overlap_levels],
        "tail_weight": model.tail_weight(levels),
    }
    results.write_json(report, args.out)
    problem = oscillator.truncation_problem(model, levels)
    if problem is not None:
        print(f"warning: {problem}", file=sys.stderr)
    return 0


def cmd_protocol(args: argparse.Namespace) -> int:
    # each override flag is named after the config key it overrides
    rc = runconfig.with_overrides(runconfig.parse_run_config(args.config), vars(args))
    out_log = rc["out_log"]
    out_summary = rc["out_summary"]
    if args.out:
        out_log = args.out + ".jsonl"
        out_summary = args.out + ".json"
    if os.path.realpath(out_log) == os.path.realpath(out_summary):
        raise runconfig.ConfigError(None, f"out_log and out_summary name the same file: {out_log}")
    config = runconfig.to_conversion_config(rc)
    result = protocol.run_campaign(config, rc["trials"], rc["seed"])
    results.atomic_write_text(out_log, protocol.render_outcome_log(result.outcomes))
    summary = protocol.campaign_summary(result, config, rc["seed"])
    try:
        results.write_json(summary, out_summary)
    except OSError:
        # the log alone is half a result: leave neither file behind.  The
        # log went through any symlink at out_log, so remove what it wrote
        os.unlink(os.path.realpath(out_log))
        raise
    for key in ("delivered_rate", "abort_rate", "mean_entropy", "min_fidelity"):
        value = summary[key]
        print(f"{key}={'none' if value is None else results.format_number(value)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    # OpenBLAS reads its thread count once, when numpy loads it
    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _common.PhysicsPreconditionError as exc:
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
