"""Flat key=value run configuration for the conversion command.

Lines hold one `key = value` pair.  Blank lines are ignored, and so is
a '#' with the rest of its line when the '#' starts the line or follows
whitespace; a '#' inside a value, as in `out_log = runs/#3/log.jsonl`,
is part of the value.  Unknown keys are hard errors that name the key,
as are values outside their documented ranges.  The three adiabatic_*
scales are all-or-none; when present they arm the campaign's physics
gate.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace

from .oscillator import AdiabaticBudget, map_modes_to_eigenfunctions
from .protocol import AncillaConfig, ConversionConfig

__all__ = ["ConfigError", "RunConfig", "parse_run_config", "to_conversion_config"]

ROOT_HALF = 1.0 / math.sqrt(2.0)

_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key when known."""

    def __init__(self, key: str | None, message: str):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


@dataclass(frozen=True)
class RunConfig:
    trials: int = 1000
    seed: int = 0
    eta: float = 0.9
    gate_on: bool = True
    anharmonicity: float = 0.1
    truncation: int = 64
    level_a: int = 1
    level_b: int = 2
    landing_prob: float = 0.5
    detect_amp: float = ROOT_HALF
    alpha: float = ROOT_HALF
    beta: float = ROOT_HALF
    clock_period: float = 10.0
    travel_plus_register_time: float = 3.0
    and_gate_time: float = 1.0
    adiabatic_delta_e: float | None = None
    adiabatic_h_tilde: float | None = None
    adiabatic_t_meas: float | None = None
    adiabatic_threshold: float = 10.0
    out_log: str = "outcomes.jsonl"
    out_summary: str = "summary.json"


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"expected a finite number, got {raw!r}")
    return value


def _parse_str(key: str, raw: str) -> str:
    return raw


def _parse_gate(key: str, raw: str) -> bool:
    if raw == "on":
        return True
    if raw == "off":
        return False
    raise ConfigError(key, f"expected 'on' or 'off', got {raw!r}")


# key -> (attribute, converter)
_PARSERS = {
    "trials": ("trials", _parse_int),
    "seed": ("seed", _parse_int),
    "eta": ("eta", _parse_float),
    "gate": ("gate_on", _parse_gate),
    "lambda": ("anharmonicity", _parse_float),
    "truncation": ("truncation", _parse_int),
    "level_a": ("level_a", _parse_int),
    "level_b": ("level_b", _parse_int),
    "landing_prob": ("landing_prob", _parse_float),
    "detect_amp": ("detect_amp", _parse_float),
    "alpha": ("alpha", _parse_float),
    "beta": ("beta", _parse_float),
    "clock_period": ("clock_period", _parse_float),
    "travel_plus_register_time": ("travel_plus_register_time", _parse_float),
    "and_gate_time": ("and_gate_time", _parse_float),
    "adiabatic_delta_e": ("adiabatic_delta_e", _parse_float),
    "adiabatic_h_tilde": ("adiabatic_h_tilde", _parse_float),
    "adiabatic_t_meas": ("adiabatic_t_meas", _parse_float),
    "adiabatic_threshold": ("adiabatic_threshold", _parse_float),
    "out_log": ("out_log", _parse_str),
    "out_summary": ("out_summary", _parse_str),
}


def parse_run_config(path: str | os.PathLike) -> RunConfig:
    """Read and validate a key=value file into a RunConfig."""
    values: dict[str, object] = {}
    if not os.path.exists(path):
        raise ConfigError(None, f"no such configuration file: {os.fspath(path)}")
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = _COMMENT.split(raw_line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(None, f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw_value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(key, "unknown configuration key")
            if not raw_value:
                raise ConfigError(key, "missing value")
            attr, convert = _PARSERS[key]
            if attr in values:
                raise ConfigError(key, "key given more than once")
            values[attr] = convert(key, raw_value)
    config = replace(RunConfig(), **values)
    _validate(config)
    return config


def _validate(rc: RunConfig) -> None:
    if rc.trials < 1:
        raise ConfigError("trials", f"must be at least 1, got {rc.trials}")
    if rc.seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {rc.seed}")
    if not 0.0 <= rc.eta <= 1.0:
        raise ConfigError("eta", f"must lie in [0, 1], got {rc.eta}")
    if rc.anharmonicity < 0.0:
        raise ConfigError("lambda", f"must be non-negative, got {rc.anharmonicity}")
    if rc.truncation < 8:
        raise ConfigError("truncation", f"must be at least 8, got {rc.truncation}")
    for key, level in (("level_a", rc.level_a), ("level_b", rc.level_b)):
        if not 0 <= level < rc.truncation:
            raise ConfigError(key, f"must lie in [0, truncation), got {level}")
    if rc.level_a == rc.level_b:
        raise ConfigError("level_b", "levels must be distinct")
    if not 0.0 <= rc.landing_prob <= 1.0:
        raise ConfigError("landing_prob", f"must lie in [0, 1], got {rc.landing_prob}")
    if abs(rc.detect_amp) > 1.0:
        raise ConfigError("detect_amp", f"magnitude must not exceed 1, got {rc.detect_amp}")
    norm = rc.alpha**2 + rc.beta**2
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError("alpha", f"alpha^2 + beta^2 must equal 1, got {norm}")
    for key in ("clock_period", "travel_plus_register_time", "and_gate_time"):
        if getattr(rc, key) <= 0.0:
            raise ConfigError(key, "must be positive")
    if rc.clock_period <= rc.travel_plus_register_time + rc.and_gate_time:
        raise ConfigError(
            "clock_period",
            "must exceed travel_plus_register_time + and_gate_time",
        )
    adiabatic = {
        "adiabatic_delta_e": rc.adiabatic_delta_e,
        "adiabatic_h_tilde": rc.adiabatic_h_tilde,
        "adiabatic_t_meas": rc.adiabatic_t_meas,
    }
    present = [k for k, v in adiabatic.items() if v is not None]
    if present and len(present) != len(adiabatic):
        missing = sorted(set(adiabatic) - set(present))[0]
        raise ConfigError(missing, "adiabatic_* scales are all-or-none")
    for key, value in adiabatic.items():
        if value is not None and value <= 0.0:
            raise ConfigError(key, f"must be positive, got {value}")
    if rc.adiabatic_threshold <= 0.0:
        raise ConfigError("adiabatic_threshold", "must be positive")
    if not rc.out_log or not rc.out_summary:
        raise ConfigError("out_log", "output paths must be non-empty")


def to_conversion_config(rc: RunConfig) -> ConversionConfig:
    """Build the campaign configuration from a validated RunConfig."""
    _validate(rc)
    scale = math.sqrt(rc.alpha**2 + rc.beta**2)
    ancilla = AncillaConfig(
        alpha=rc.alpha / scale,
        beta=rc.beta / scale,
        detect_amp=rc.detect_amp,
        eta=rc.eta,
    )
    assignment = map_modes_to_eigenfunctions(
        {"photon_1": rc.level_a, "photon_2": rc.level_b}
    )
    budget = None
    if rc.adiabatic_delta_e is not None:
        budget = AdiabaticBudget(
            delta_e=rc.adiabatic_delta_e,
            h_tilde=rc.adiabatic_h_tilde,
            t_meas=rc.adiabatic_t_meas,
            ratio_threshold=rc.adiabatic_threshold,
        )
    return ConversionConfig(
        anharmonicity_on=rc.anharmonicity,
        truncation=rc.truncation,
        assignment=assignment,
        ancilla=ancilla,
        clock_period=rc.clock_period,
        travel_plus_register_time=rc.travel_plus_register_time,
        and_gate_time=rc.and_gate_time,
        landing_prob=rc.landing_prob,
        abort_gate_on=rc.gate_on,
        adiabatic_budget=budget,
    )
