"""Flat key=value run configuration for the conversion command.

Lines hold one `key = value` pair.  Blank lines are ignored, and so is
a '#' with the rest of its line when the '#' starts the line or follows
whitespace; a '#' inside a value, as in `out_log = runs/#3/log.jsonl`,
is part of the value.  Unknown, duplicate and unparsable keys are hard
errors that name the key.

This module holds the rules of the file format, and one rule across
keys: the adiabatic_* keys are all-or-none, so a threshold or any one
scale needs all three scales, which then arm the campaign's physics
gate.  to_conversion_config checks it on the RunConfig fields, so a
RunConfig built in code meets it too.  The range of each value is
checked by the library object that uses it: AncillaConfig,
ConversionConfig, ModeAssignment and AdiabaticBudget, whose errors
to_conversion_config re-raises as a ConfigError naming the key, and
build_model and run_campaign, which refuse the truncation, the levels,
the trial count and the seed when the campaign starts.
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

_ADIABATIC_SCALES = ("adiabatic_delta_e", "adiabatic_h_tilde", "adiabatic_t_meas")

# AdiabaticBudget parameter -> the config key that feeds it
_BUDGET_KEYS = {
    "delta_e": "adiabatic_delta_e",
    "h_tilde": "adiabatic_h_tilde",
    "t_meas": "adiabatic_t_meas",
    "ratio_threshold": "adiabatic_threshold",
}

# library parameter -> the config key that feeds it, where the two differ;
# a library range error starts with the name of the parameter it refuses
_CONFIG_KEYS = {"anharmonicity_on": "lambda", **_BUDGET_KEYS}


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
    clock_period: float = 10.0
    travel_plus_register_time: float = 3.0
    and_gate_time: float = 1.0
    adiabatic_delta_e: float | None = None
    adiabatic_h_tilde: float | None = None
    adiabatic_t_meas: float | None = None
    adiabatic_threshold: float | None = None
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
    """Read a key=value file into a RunConfig; value ranges are not checked here."""
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
    return replace(RunConfig(), **values)


def to_conversion_config(rc: RunConfig) -> ConversionConfig:
    """Build the campaign configuration from a RunConfig.

    Adiabatic values set without all three scales are refused.  A value
    the library refuses is re-raised as a ConfigError naming the config
    key that feeds it.
    """
    budget_values = {
        param: getattr(rc, key)
        for param, key in _BUDGET_KEYS.items()
        if getattr(rc, key) is not None
    }
    missing = [key for key in _ADIABATIC_SCALES if getattr(rc, key) is None]
    if budget_values and missing:
        given = [_BUDGET_KEYS[param] for param in budget_values]
        raise ConfigError(
            None,
            f"{', '.join(given)} given without {', '.join(missing)}; "
            "the adiabatic_* scales are all-or-none",
        )
    try:
        budget = AdiabaticBudget(**budget_values) if budget_values else None
        return ConversionConfig(
            anharmonicity_on=rc.anharmonicity,
            truncation=rc.truncation,
            assignment=map_modes_to_eigenfunctions(
                {"photon_1": rc.level_a, "photon_2": rc.level_b}
            ),
            ancilla=AncillaConfig(detect_amp=rc.detect_amp, eta=rc.eta),
            clock_period=rc.clock_period,
            travel_plus_register_time=rc.travel_plus_register_time,
            and_gate_time=rc.and_gate_time,
            landing_prob=rc.landing_prob,
            abort_gate_on=rc.gate_on,
            adiabatic_budget=budget,
        )
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(_CONFIG_KEYS.get(name), str(exc)) from None
