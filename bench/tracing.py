"""Spans and counts around modetangle's public functions, for the traced run.

Run as a script, this file is the child of one traced operation:

    python bench/tracing.py SPANS_JSON chsh --out scan.csv --steps 3000

It imports `modetangle.cli` in a fresh interpreter, replaces each function
listed in LAYERS, in every modetangle module that holds a reference to it,
with a pass-through wrapper, runs the CLI entry point in process, and exits
with the CLI's exit code.  The wrappers only record spans (id, parent span,
name, start, end) and bump the layer's counters; the spans stay in memory
until the child writes them, with the counts, to SPANS_JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Callable

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
MB = 1024.0 * 1024.0


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE_BYTES


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Spans, as (id, parent, name, start, end) tuples, and per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.rss_base: int | None = None
        self.rss_growth_mb: float | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, Callable]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("modetangle") and m]
        for module_name, attr, span_name, before, after in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _wrap(self, span_name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._originals):
            setattr(module, key, original)
        self._originals.clear()


def _wrap(tracer: Tracer, name: str, fn: Callable, before, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count(key: str) -> Callable:
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.counts[key] += 1

    return after


def _count_truncation(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["oscillator.basis_states"] += result.truncation


def _count_trials(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["protocol.trials"] += result.n_trials


def _count_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["results.bytes_written"] += os.path.getsize(args[0])


def _rss_before(tracer: Tracer, args: tuple) -> None:
    tracer.rss_base = current_rss_bytes()


def _rss_after_render(tracer: Tracer, args: tuple, result) -> None:
    if tracer.rss_base is not None:
        tracer.rss_growth_mb = (peak_rss_bytes() - tracer.rss_base) / MB
    tracer.counts["protocol.payload_lines"] += sum(o.delivered_state is not None for o in args[0])


# (defining module, function, span name, before hook, after hook)
LAYERS = [
    ("modetangle.runconfig", "parse_run_config", "runconfig.parse_run_config", None, None),
    ("modetangle.runconfig", "to_conversion_config", "runconfig.to_conversion_config", None, None),
    ("modetangle.states", "partial_trace", "states.partial_trace", None, _count("states.partial_trace_calls")),
    ("modetangle.states", "von_neumann_entropy", "states.von_neumann_entropy", None, _count("states.entropy_calls")),
    ("modetangle.states", "renyi_entropy", "states.renyi_entropy", None, _count("states.entropy_calls")),
    ("modetangle.polarization", "chsh_scan", "polarization.chsh_scan", None, None),
    ("modetangle.polarization", "mode_rotation_entropy_scan", "polarization.mode_rotation_entropy_scan", None, None),
    ("modetangle.interferometer", "momentum_chsh_scan", "interferometer.momentum_chsh_scan", None, None),
    ("modetangle.results", "render_scan_csv", "results.render_scan_csv", None, None),
    ("modetangle.results", "atomic_write_text", "results.atomic_write_text", None, _count_bytes),
    ("modetangle.results", "write_json", "results.write_json", None, None),
    ("modetangle.oscillator", "build_model", "oscillator.build_model", None, _count_truncation),
    ("modetangle.protocol", "run_campaign", "protocol.run_campaign", _rss_before, _count_trials),
    ("modetangle.protocol", "render_outcome_log", "protocol.render_outcome_log", None, _rss_after_render),
]

# per-layer time metric -> spans whose time it sums (outermost span of the group only)
TIMED = {
    "runconfig.parse_s": {"runconfig.parse_run_config", "runconfig.to_conversion_config"},
    "states.partial_trace_s": {"states.partial_trace"},
    "states.entropy_s": {"states.von_neumann_entropy", "states.renyi_entropy"},
    "polarization.chsh_scan_s": {"polarization.chsh_scan"},
    "polarization.rotation_scan_s": {"polarization.mode_rotation_entropy_scan"},
    "interferometer.momentum_scan_s": {"interferometer.momentum_chsh_scan"},
    "results.render_csv_s": {"results.render_scan_csv"},
    "results.write_s": {"results.atomic_write_text", "results.write_json"},
    "oscillator.build_model_s": {"oscillator.build_model"},
    "protocol.run_campaign_s": {"protocol.run_campaign"},
    "protocol.render_log_s": {"protocol.render_outcome_log"},
}

COUNTED = [
    "states.partial_trace_calls",
    "states.entropy_calls",
    "results.bytes_written",
    "oscillator.basis_states",
    "protocol.trials",
    "protocol.payload_lines",
]


def layer_times(spans: list) -> dict[str, float]:
    """Seconds per TIMED metric in one child's spans, counting a span only when no ancestor is in its group."""
    by_id = {span[0]: span for span in spans}
    totals = dict.fromkeys(TIMED, 0.0)
    for metric, group in TIMED.items():
        for _, parent_id, name, start, end in spans:
            if name not in group:
                continue
            parent = by_id.get(parent_id)
            while parent is not None and parent[2] not in group:
                parent = by_id.get(parent[1])
            if parent is None:
                totals[metric] += end - start
    return totals


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, ("modetangle.cli",), {})
    tracer.install()
    try:
        code = tracer.call(f"cli.{cli_argv[0]}", cli.main, (cli_argv,), {})
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "rss_growth_mb": tracer.rss_growth_mb}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
