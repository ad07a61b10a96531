"""Command-line front end.

    modetangle SCAN --out scan.csv [--range-min A --range-max B --steps N --seed S]
    modetangle oscillator --out report.json [--lambda G --truncation N]
    modetangle protocol CONFIG [--out PREFIX] [--eta E --trials N --seed S
                                --gate on|off --lambda G --truncation N]

SCAN is chsh, entropy-rotation or interferometer, which share cmd_scan:
it builds the settings once with _common.scan_grid, which refuses a
range at which the scan's largest angle overflows, runs the scan
function the parser names on them, and writes CSV.  The oscillator
writes a JSON report; the protocol a JSON-lines log and a JSON summary.
Outputs are byte-stable for identical flags and seed.  Exit codes: 0
success, 2 usage or configuration error, 3 failed physics precondition,
1 output not written (a failed write, or a scan too large for memory).

Each library module is registered as a lazy module, which runs on its
first attribute access (`importlib.util.LazyLoader`), so each command
executes only the modules it calls.  `--version`, `--help` and
`oscillator` start without numpy or inspect: the oscillator solves its
parity blocks in plain Python, through oscillator, _common and results,
which import no numpy and hold their records as NamedTuples.

main runs BLAS on one thread: when numpy is not yet loaded, it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1, whatever
the caller set.  No command needs BLAS beyond a 4-vector norm, and a
thread pool adds ~0.1 s of CPU time to the numpy import (2-vCPU host).
When numpy is already loaded, as in library use, the caller's setting holds.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import re
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


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, -inf, -infinity and -nan (any case) as numbers.

    argparse's own matcher takes -1 and -.5 only, so `--range-min -1e-3`
    or `-inf` failed with "expected one argument".  The subparsers are
    built from the parser's own class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$"
        self._negative_number_matcher = re.compile(number, re.IGNORECASE)


def _output_path(value: str) -> str:
    """An --out value; one whose last component is '', '.' or '..', as in outdir/, is refused."""
    if os.path.basename(value) in ("", os.curdir, os.pardir):
        raise argparse.ArgumentTypeError(f"expected a file path, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="modetangle",
        description="Bell statistics, entropy scans, and mode-to-particle conversion.",
    )
    parser.add_argument("--version", action="version", version=f"modetangle {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each scan names its module and function, which cmd_scan looks up only when
    # it runs so that --help loads no numpy
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
        p.add_argument("--out", type=_output_path, required=True, help="CSV output path")
        p.add_argument("--range-min", type=float, default=0.0)
        p.add_argument("--range-max", type=float, default=math.pi)
        p.add_argument("--steps", type=int, default=181)
        p.add_argument("--seed", type=int, default=0, help="recorded in metadata")
        p.set_defaults(func=cmd_scan, scan=(module, function))

    p = sub.add_parser("oscillator", help="the lowest levels of the quartic-anharmonic model")
    p.add_argument("--out", type=_output_path, required=True, help="JSON output path")
    p.add_argument("--lambda", dest="anharmonicity", type=float, default=0.0)
    p.add_argument("--truncation", type=int, default=64)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("protocol", help="run a seeded conversion campaign")
    p.add_argument("config", help="key=value configuration file")
    p.add_argument("--out", type=_output_path, help="output prefix (writes PREFIX.jsonl and PREFIX.json)")
    p.add_argument("--eta", help="override detector efficiency")
    p.add_argument("--trials", help="override trial count")
    p.add_argument("--seed", help="override master seed")
    p.add_argument("--gate", metavar="{on,off}", help="override the abort gate")
    p.add_argument("--lambda", help="override anharmonicity")
    p.add_argument("--truncation", help="override basis truncation")
    p.set_defaults(func=cmd_protocol)
    return parser


def cmd_scan(args: argparse.Namespace) -> int:
    module, function = args.scan
    grid = _common.scan_grid(args.range_min, args.range_max, args.steps)
    result = getattr(module, function)(grid)
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
    for path in (out_log, out_summary):  # refused before the campaign runs
        results.check_writable(path)
    result = protocol.run_campaign(config)
    summary = protocol.campaign_summary(result, config)
    log = protocol.render_outcome_log(result.outcomes)
    # the summary waits in its temp file until the log has replaced an older
    # one, so a failed write of either leaves an earlier pair as it was
    results.write_json(summary, out_summary, before_rename=lambda: results.atomic_write_text(out_log, log))
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
    except MemoryError as exc:
        print(f"error: out of memory, output not written: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
