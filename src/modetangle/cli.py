"""Command-line front end.

    modetangle SCAN --out scan.csv [--range-min A --range-max B --steps N --seed S]
    modetangle oscillator --out report.json [--lambda G --truncation N]
    modetangle protocol CONFIG [--out PREFIX] [--eta E --trials N --seed S
                                --gate on|off --lambda G --truncation N]

SCAN is chsh, entropy-rotation or interferometer, which share cmd_scan:
it checks the settings with _scans.scan_grid, which refuses a range at
which the scan's largest angle overflows before any file is opened, then
builds, runs, renders and writes one CHUNK-step slice at a time, so that
no scan holds its grid or its CSV whole.  The oscillator writes a JSON
report; the protocol a JSON-lines log and a JSON summary.
Outputs are byte-stable for identical flags and seed.  Exit codes: 0
success, 2 usage or configuration error, such as a scan of more than
2**32 steps, 3 failed physics precondition, 1 output not written (a
failed write, or memory ran out), 143 stopped by SIGTERM (see run).

Each library module is registered as a lazy module, which runs on its
first attribute access (`importlib.util.LazyLoader`), so each command
executes only the modules it calls.  No command loads numpy, and
`--version`, `--help` and `oscillator` start without inspect too: the
oscillator solves its parity blocks in plain Python, through oscillator,
_common and results, which hold their records as NamedTuples.  chsh and
interferometer take S from math.cos, and their pair entropies are the
constant 1 bit; entropy-rotation takes its entropies from math.sin,
math.log and math.log1p.  protocol draws its trials from random.Random
and its pair entropies from math.hypot, math.log and math.log1p.  So no
command starts OpenBLAS's thread pool, and main sets no thread count.

A process enters through run(), as the `modetangle` script and
`python -m modetangle` both do.  It raises the young-generation GC
threshold from 700 to YOUNG_GC_THRESHOLD, turns SIGTERM into
SystemExit(143), then calls main, then gc.freeze(), then sys.exit.
Both settings pay: a 5e4-trial campaign runs 7 young collections in main
at 700 and none at the raised threshold, and without the threshold and
the freeze the median fresh child took 134 ms for 122 ms, chsh 69 ms for
59 ms (Python 3.11, 2-vCPU Xeon, 40 interleaved children each; without
the freeze alone, 140 and 66 ms).  Collection stays on, so cycles a long
run leaves are still freed and memory stays bounded, which gc.disable()
would not promise.  The freeze lets the collections of interpreter
shutdown skip the objects the modules left.  Shutdown still flushes,
closes and runs atexit.
SIGTERM, as `timeout` sends it, would otherwise end the process where it
stands and strand a write's temp file, as large as the rows a long scan
had written; as SystemExit it unwinds through results.atomic_write_text,
which removes the file, as Ctrl-C's KeyboardInterrupt does.  main itself
changes neither the threshold, the freeze nor the handler, since tests,
the benchmark's tracer and library callers call it in process.
"""

from __future__ import annotations

import _signal  # signal's C core, loaded at interpreter start; signal's enum tables cost ~1 ms a child
import argparse
import gc
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
_scans = _lazy("_scans")
interferometer = _lazy("interferometer")
oscillator = _lazy("oscillator")
polarization = _lazy("polarization")
protocol = _lazy("protocol")
results = _lazy("results")
runconfig = _lazy("runconfig")
_lazy("states")

USAGE_ERROR = 2
PRECONDITION_ERROR = 3

# objects allocated, less those freed, between young collections in a
# process run(); a command allocates fewer, and so runs none
YOUNG_GC_THRESHOLD = 100_000

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
    # it runs, so that --help executes neither
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
    grid = _scans.scan_grid(args.range_min, args.range_max, args.steps)
    module, function = args.scan
    scan = getattr(module, function)
    metadata = {
        "tool": f"modetangle {__version__}",
        "command": args.command,
        "range_min": args.range_min,
        "range_max": args.range_max,
        "steps": args.steps,
        "seed": args.seed,
    }

    # one CHUNK-step slice at a time, from its settings to its rows in the
    # file, so that no scan holds its grid, columns or text whole
    def chunks():
        for start in range(0, grid.steps, _common.CHUNK):
            head, rows = results.render_scan_csv(scan(grid.points(start, start + _common.CHUNK)), metadata)
            if start == 0:
                yield head
            yield rows

    results.atomic_write_text(args.out, chunks())
    return 0


def cmd_oscillator(args: argparse.Namespace) -> int:
    model = oscillator.build_model(args.anharmonicity, args.truncation, levels=REPORTED_LEVELS)
    # the truncation is at least MIN_TRUNCATION = 8, so OVERLAP_LEVELS are computed
    levels = range(len(model.eigenvalues))
    report = {
        "tool": f"modetangle {__version__}",
        "lambda": model.anharmonicity,
        "truncation": model.truncation,
        "eigenvalues": list(model.eigenvalues),
        "first_order": [oscillator.first_order_energy(n, model.anharmonicity) for n in levels],
        "overlaps": [oscillator.mode_overlap(model, n) for n in range(OVERLAP_LEVELS)],
        "x_squared": [model.x_squared_expectation(n) for n in range(OVERLAP_LEVELS)],
        "truncation_error": list(model.truncation_errors),
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


def _terminate(signum: int, frame) -> None:
    """Exit 128 + signum as SystemExit, so that a write in progress removes its temp file."""
    sys.exit(128 + signum)


def run() -> None:
    """The process entry: main on sys.argv with few young collections, then exit past a frozen heap."""
    gc.set_threshold(YOUNG_GC_THRESHOLD, *gc.get_threshold()[1:])
    _signal.signal(_signal.SIGTERM, _terminate)
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
