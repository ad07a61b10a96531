"""End-to-end benchmark of the modetangle command line.

    python3 bench/run.py --workload scan-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is loaded from the
checkout's `src/` directory, so nothing has to be installed.  One client
drives the CLI as a closed loop: each operation is one fresh
`python -m modetangle ...` child, started only after the previous one has
exited and its output files have been checked.  A run repeats whole rounds
of its workload's operations until `--seconds` have passed, and times
each operation by its fastest round (see `run_untraced`).

`--trace 0` prints the end-to-end metrics.  `--trace 1` instead calls the
CLI entry point in process, alternating untraced rounds with rounds whose
layer calls are wrapped by `tracing.py`, and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The machine record, the per-round figures and (traced runs) the spans go
to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

# numpy reads the thread cap when it loads: set it before the checks import numpy.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "tracing.py"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 100.0
SETUP_REPEATS = 3

SCAN_STEPS = 2000
CAMPAIGN_TRIALS = 50_000
LADDER_TRUNCATION = 800
FAULT_LAMBDA = 100.0
FAULT_TRUNCATION = 64


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One CLI invocation, the work it does in items, the files it writes and their check."""

    argv: list[str]
    items: int
    outputs: list[Path]
    check: Callable[[Outcome], list[str]]
    known_fault: bool = False

    def clear_outputs(self) -> None:
        """Remove the previous round's files, so that a check never reads them."""
        for path in self.outputs:
            path.unlink(missing_ok=True)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _file_check(path: Path, check: Callable[[str], list[str]]) -> Callable[[Outcome], list[str]]:
    def run(outcome: Outcome) -> list[str]:
        text = _read(path)
        if outcome.returncode != 0 or text is None:
            return [f"exit {outcome.returncode}, output {'missing' if text is None else 'present'}: {outcome.stderr.strip()}"]
        return check(text)

    return run


# ---------------------------------------------------------------- workloads


def scan_sweep(seed: int, work: Path) -> list[Op]:
    """chsh, entropy-rotation and interferometer, SCAN_STEPS points each, over seeded ranges."""
    rng = random.Random(f"scan-sweep/{seed}")
    ops = []
    for command in ("chsh", "entropy-rotation", "interferometer"):
        lo = round(rng.uniform(0.0, 0.5), 6)
        hi = round(rng.uniform(math.pi - 0.5, math.pi + 0.5), 6)
        scan_seed = rng.randrange(1_000_000)
        out = work / f"{command}.csv"
        argv = [command, "--out", str(out), "--range-min", repr(lo), "--range-max", repr(hi),
                "--steps", str(SCAN_STEPS), "--seed", str(scan_seed)]
        check = functools.partial(checks.check_scan, command, lo=lo, hi=hi, steps=SCAN_STEPS, seed=scan_seed)
        ops.append(Op(argv, SCAN_STEPS, [out], _file_check(out, check)))
    return ops


def campaign(seed: int, work: Path) -> list[Op]:
    """One generated config of CAMPAIGN_TRIALS trials, run with the gate on and with --gate off."""
    rng = random.Random(f"campaign/{seed}")
    cfg = {
        "trials": CAMPAIGN_TRIALS,
        "seed": rng.randrange(2**31),
        "eta": round(rng.uniform(0.88, 0.92), 6),
        "lambda": round(rng.uniform(0.05, 0.2), 6),
        "landing_prob": 0.5,
        "truncation": 64,
    }
    config = work / "campaign.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    ops = []
    for gate in ("on", "off"):
        prefix = work / f"gate-{gate}"
        argv = ["protocol", str(config), "--out", str(prefix)] + (["--gate", "off"] if gate == "off" else [])

        def check(outcome: Outcome, prefix=prefix, gate=gate) -> list[str]:
            log, summary = _read(prefix.with_suffix(".jsonl")), _read(prefix.with_suffix(".json"))
            if outcome.returncode != 0 or log is None or summary is None:
                return [f"protocol exit {outcome.returncode}: {outcome.stderr.strip()}"]
            return checks.check_campaign(
                log, summary, outcome.stdout, trials=cfg["trials"], seed=cfg["seed"], eta=cfg["eta"],
                landing_prob=cfg["landing_prob"], anharmonicity=cfg["lambda"],
                truncation=cfg["truncation"], gate_on=gate == "on",
            )

        ops.append(Op(argv, CAMPAIGN_TRIALS, [prefix.with_suffix(".jsonl"), prefix.with_suffix(".json")], check))
    return ops


def oscillator_ladder(seed: int, work: Path) -> list[Op]:
    """lambda = 0 and a seeded small lambda, each at N and 2N, plus the known-fault operation."""
    rng = random.Random(f"oscillator-ladder/{seed}")
    small = round(rng.uniform(0.05, 0.2), 6)
    ops = []
    for lam in (0.0, small):
        low = work / f"oscillator-{lam!r}-{LADDER_TRUNCATION}.json"
        for n in (LADDER_TRUNCATION, 2 * LADDER_TRUNCATION):
            out = work / f"oscillator-{lam!r}-{n}.json"
            check = functools.partial(checks.check_oscillator, anharmonicity=lam, truncation=n)
            if out != low:
                check = functools.partial(_check_with_lower_truncation, check, low)
            argv = ["oscillator", "--out", str(out), "--lambda", repr(lam), "--truncation", str(n)]
            ops.append(Op(argv, n, [out], _file_check(out, check)))
    # Known fault: at this truncation the CLI prints levels 0-9 far from converged, without a warning.
    out = work / "oscillator-fault.json"

    def fault_check(outcome: Outcome) -> list[str]:
        return checks.check_refusal_or_converged(
            outcome.returncode, outcome.stderr, _read(out), FAULT_LAMBDA, FAULT_TRUNCATION
        )

    argv = ["oscillator", "--out", str(out), "--lambda", repr(FAULT_LAMBDA), "--truncation", str(FAULT_TRUNCATION)]
    ops.append(Op(argv, FAULT_TRUNCATION, [out], fault_check, known_fault=True))
    return ops


def _check_with_lower_truncation(check: Callable[[str], list[str]], low: Path, text: str) -> list[str]:
    """The report's own check, plus agreement with the report at half its truncation."""
    low_text = _read(low)
    pair = checks.check_ladder_pair(low_text, text) if low_text else [f"{low.name} missing"]
    return check(text) + pair


WORKLOADS = {"scan-sweep": scan_sweep, "campaign": campaign, "oscillator-ladder": oscillator_ladder}


# ------------------------------------------------------------ child runner


@dataclass
class Child:
    outcome: Outcome
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(args: list[str], work: Path) -> Child:
    """Run `python <args>` to completion; wall time from spawn to exit, rusage from wait4."""
    stdout_path, stderr_path = work / "child.stdout", work / "child.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(proc.returncode, stdout_path.read_text(errors="replace"),
                      stderr_path.read_text(errors="replace"))
    return Child(outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def version_wall_s(work: Path) -> float:
    """Wall time of one fresh `python -m modetangle --version`."""
    child = spawn(["-m", "modetangle", "--version"], work)
    if child.outcome.returncode != 0 or not child.outcome.stdout.startswith("modetangle "):
        raise SystemExit(f"modetangle --version failed: {child.outcome.stderr.strip()}")
    return child.wall_s


# ------------------------------------------------------------------ rounds


class Tally:
    """Operations attempted and failed; `correct` turns false when any but the known fault fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op: Op, outcome: Outcome) -> None:
        self.attempted += 1
        errors = op.check(outcome)
        if errors:
            self.failed += 1
            if not op.known_fault:
                self.correct = False
                print(f"CHECK FAILED {op.argv[0]}: " + "; ".join(errors[:5]), file=sys.stderr)


def run_untraced(ops: list[Op], seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Whole rounds of child processes, timed as each operation's fastest round, summed.

    The shared machine this was tuned on alternates, for seconds at a time,
    between full speed and about 1.5x slower.  That only ever adds time, so
    the fastest of a run's repetitions is the steadiest per-run estimate of
    an operation's cost.  Set-up is sampled before the loop and again after
    every round, so its median spans the whole run.
    """
    version_wall_s(work)  # warm-up: byte-compiles the sources on a fresh checkout
    setup = [version_wall_s(work) for _ in range(SETUP_REPEATS)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        row = []
        for op in ops:
            op.clear_outputs()
            child = spawn(["-m", "modetangle", *op.argv], work)
            tally.record(op, child.outcome)
            row.append({"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb})
        rounds.append(row)
        setup.append(version_wall_s(work))

    def fastest(key: str) -> float:
        return sum(min(row[i][key] for row in rounds) for i in range(len(ops)))

    wall_s = fastest("wall_s")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (sum(op.items for op in ops) / wall_s, "items/s"),
        "peak_rss_mb": (max(op["peak_rss_mb"] for row in rounds for op in row), "MB"),
        "cpu_s": (fastest("cpu_s"), "s"),
    }
    return metrics, {"setup_s": setup, "rounds": rounds}


def run_traced(ops: list[Op], seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Alternate traced rounds (each operation a `tracing.py` child) with untraced ones.

    Layer times are the fastest traced round's, for the reason given in
    run_untraced.  trace.round_s sums each operation's fastest traced wall
    time, as wall_s does for untraced ones, and the overhead sets it against
    the same sum over this run's untraced rounds.
    """
    rounds, spans = [], []
    spans_path = work / "spans.json"
    start = time.monotonic()
    while len(rounds) < 2 or time.monotonic() - start < seconds:
        traced = len(rounds) % 2 == 0
        row = {"traced": traced, "wall_s": []}
        if traced:
            row.update(dict.fromkeys([*tracing.TIMED, *tracing.COUNTED], 0.0))
            row.update({"cli.import_s": [], "protocol.rss_growth_mb": 0.0})
        for index, op in enumerate(ops):
            op.clear_outputs()
            if traced:
                spans_path.unlink(missing_ok=True)
                child = spawn([str(TRACE_CHILD), str(spans_path), *op.argv], work)
                record = json.loads(_read(spans_path) or '{"spans": [], "counts": {}}')
                for key, value in tracing.layer_times(record["spans"]).items():
                    row[key] += value
                for key in tracing.COUNTED:
                    row[key] += record["counts"].get(key, 0)
                row["cli.import_s"] += [end - begin for _, _, name, begin, end in record["spans"] if name == "cli.import"]
                growth = record.get("rss_growth_mb")
                if growth is not None:
                    row["protocol.rss_growth_mb"] = max(row["protocol.rss_growth_mb"], growth)
                spans += [[len(rounds), index, *span] for span in record["spans"]]
            else:
                child = spawn(["-m", "modetangle", *op.argv], work)
            tally.record(op, child.outcome)
            row["wall_s"].append(child.wall_s)
        rounds.append(row)
    traced_rounds = [r for r in rounds if r["traced"]]
    traced_s, untraced_s = (
        sum(min(r["wall_s"][i] for r in rounds if r["traced"] == traced) for i in range(len(ops)))
        for traced in (True, False)
    )
    metrics = {"cli.import_s": (statistics.median(t for r in traced_rounds for t in r["cli.import_s"]), "s")}
    for key in tracing.TIMED:
        metrics[key] = (min(r[key] for r in traced_rounds), "s")
    for key in tracing.COUNTED:
        unit = "bytes" if key == "results.bytes_written" else "count"
        metrics[key] = (int(statistics.median_low(r[key] for r in traced_rounds)), unit)
    metrics["protocol.rss_growth_mb"] = (statistics.median(r["protocol.rss_growth_mb"] for r in traced_rounds), "MB")
    metrics["trace.round_s"] = (traced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return metrics, {"rounds": rounds, "spans": spans}


# ------------------------------------------------------------------ record


def git_commit() -> str:
    """The checkout's commit, read from `.git` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "modetangle" / "cli.py").is_file():
        print(f"error: no modetangle sources under {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        ops = WORKLOADS[args.workload](args.seed, work)
        tally = Tally()
        run = run_traced if args.trace else run_untraced
        metrics, details = run(ops, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_ROOT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine, **details, "result": result}
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        # one line per span: round, operation, span id, parent span id, name, start, end
        with open(OUT_ROOT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in spans)

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(details['rounds'])} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
