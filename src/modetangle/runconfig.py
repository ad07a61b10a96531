"""Flat key=value run configuration for the conversion command.

Lines hold one `key = value` pair.  Blank lines are ignored, and so is
a '#' with the rest of its line when the '#' starts the line or follows
whitespace; a '#' inside a value, as in `out_log = runs/#3/log.jsonl`,
is part of the value.  Unknown, duplicate and unparsable keys are hard
errors that name the key.

A RunConfig holds what the file gave: the trial count, the seed, eta
and the output paths have file defaults, and every other field is None
until its key is given.  to_conversion_config passes only the given
fields to the library objects they feed, so each protocol default lives
in the object that uses it.  _KEYS maps each key to its converter, its
RunConfig field and that library parameter; with_overrides applies
command-line values with the same converters.

The adiabatic_* keys are all-or-none: a threshold or any one scale needs
all three scales, which then arm the campaign's physics gate.  The range
of each value is checked by the library object that uses it, whose
errors to_conversion_config re-raises as a ConfigError naming the key,
and by build_model and run_campaign when the campaign starts.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

from .oscillator import AdiabaticBudget, ModeAssignment, default_mode_assignment
from .protocol import AncillaConfig, ConversionConfig

__all__ = [
    "ConfigError", "RunConfig", "parse_run_config", "to_conversion_config", "with_overrides"
]

_COMMENT = re.compile(r"(?:^|\s)#")
_UNDECODABLE = re.compile("[\udc80-\udcff]")

_ADIABATIC_SCALES = ("adiabatic_delta_e", "adiabatic_h_tilde", "adiabatic_t_meas")


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key when known."""

    def __init__(self, key: str | None, message: str):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """The values of a config file; None marks a key that was not given."""

    trials: int = 1000
    seed: int = 0
    # the file's detector misses one landed photon in ten, where
    # AncillaConfig's default (eta = 1) is the ideal detector
    eta: float | None = 0.9
    gate_on: bool | None = None
    anharmonicity: float | None = None
    truncation: int | None = None
    level_a: int | None = None
    level_b: int | None = None
    landing_prob: float | None = None
    detect_amp: float | None = None
    clock_period: float | None = None
    travel_plus_register_time: float | None = None
    and_gate_time: float | None = None
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


class _Key(NamedTuple):
    field: str
    parse: Callable[[str, str], object]
    # the library object and parameter the value feeds; a ModeAssignment
    # parameter is the particle bound to the level; None for file-only keys
    owner: type | None = None
    param: str | None = None


_KEYS = {
    "trials": _Key("trials", _parse_int),
    "seed": _Key("seed", _parse_int),
    "eta": _Key("eta", _parse_float, AncillaConfig, "eta"),
    "gate": _Key("gate_on", _parse_gate, ConversionConfig, "abort_gate_on"),
    "lambda": _Key("anharmonicity", _parse_float, ConversionConfig, "anharmonicity_on"),
    "truncation": _Key("truncation", _parse_int, ConversionConfig, "truncation"),
    "level_a": _Key("level_a", _parse_int, ModeAssignment, "photon_1"),
    "level_b": _Key("level_b", _parse_int, ModeAssignment, "photon_2"),
    "landing_prob": _Key("landing_prob", _parse_float, ConversionConfig, "landing_prob"),
    "detect_amp": _Key("detect_amp", _parse_float, AncillaConfig, "detect_amp"),
    "clock_period": _Key("clock_period", _parse_float, ConversionConfig, "clock_period"),
    "travel_plus_register_time": _Key(
        "travel_plus_register_time", _parse_float, ConversionConfig, "travel_plus_register_time"
    ),
    "and_gate_time": _Key("and_gate_time", _parse_float, ConversionConfig, "and_gate_time"),
    "adiabatic_delta_e": _Key("adiabatic_delta_e", _parse_float, AdiabaticBudget, "delta_e"),
    "adiabatic_h_tilde": _Key("adiabatic_h_tilde", _parse_float, AdiabaticBudget, "h_tilde"),
    "adiabatic_t_meas": _Key("adiabatic_t_meas", _parse_float, AdiabaticBudget, "t_meas"),
    "adiabatic_threshold": _Key(
        "adiabatic_threshold", _parse_float, AdiabaticBudget, "ratio_threshold"
    ),
    "out_log": _Key("out_log", _parse_str),
    "out_summary": _Key("out_summary", _parse_str),
}

# library parameter -> the config key that feeds it, where the two differ;
# a library range error starts with the name of the parameter it refuses
_RENAMED = {k.param: key for key, k in _KEYS.items() if k.param not in (None, key)}


def parse_run_config(path: str | os.PathLike) -> RunConfig:
    """Read a key=value file into a RunConfig; value ranges are not checked here.

    A file that is missing, cannot be read or is not UTF-8 text is refused
    with a ConfigError that names it.
    """
    name = os.fspath(path)
    try:
        # an undecodable byte comes through as a lone surrogate, found below
        # with its line number
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise ConfigError(None, f"no such configuration file: {name}") from None
    except OSError as exc:
        raise ConfigError(None, f"cannot read configuration file {name}: {exc.strerror}") from None
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        if _UNDECODABLE.search(raw_line):
            raise ConfigError(None, f"{name}: line {lineno}: not UTF-8 text")
        line = _COMMENT.split(raw_line, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(None, f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(key, "unknown configuration key")
        if not raw_value:
            raise ConfigError(key, "missing value")
        field = _KEYS[key].field
        if field in values:
            raise ConfigError(key, "key given more than once")
        values[field] = _KEYS[key].parse(key, raw_value)
    return replace(RunConfig(), **values)


def with_overrides(rc: RunConfig, raw: Mapping[str, str | None]) -> RunConfig:
    """rc with each given value in raw parsed as its key would be in a file; non-keys pass."""
    return replace(rc, **{
        _KEYS[key].field: _KEYS[key].parse(key, value)
        for key, value in raw.items() if key in _KEYS and value is not None
    })


def to_conversion_config(rc: RunConfig) -> ConversionConfig:
    """Build the campaign configuration from the given fields of a RunConfig.

    Adiabatic values set without all three scales are refused.  A value
    the library refuses is re-raised as a ConfigError naming the config
    key that feeds it.
    """
    args: dict[type, dict[str, object]] = {
        AdiabaticBudget: {}, ModeAssignment: {}, AncillaConfig: {}, ConversionConfig: {}
    }
    for k in _KEYS.values():
        value = getattr(rc, k.field)
        if k.owner is not None and value is not None:
            args[k.owner][k.param] = value
    budget = args[AdiabaticBudget]
    missing = [key for key in _ADIABATIC_SCALES if getattr(rc, key) is None]
    if budget and missing:
        raise ConfigError(
            None,
            f"{', '.join(_RENAMED[param] for param in budget)} given without "
            f"{', '.join(missing)}; the adiabatic_* scales are all-or-none",
        )
    config_args = args[ConversionConfig]
    try:
        if budget:
            config_args["adiabatic_budget"] = AdiabaticBudget(**budget)
        if args[ModeAssignment]:
            levels = {**dict(default_mode_assignment().pairs), **args[ModeAssignment]}
            config_args["assignment"] = ModeAssignment(tuple(levels.items()))
        if args[AncillaConfig]:
            config_args["ancilla"] = AncillaConfig(**args[AncillaConfig])
        return ConversionConfig(**config_args)
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(_RENAMED.get(name), str(exc)) from None
