"""Flat key=value run configuration for the conversion command.

Lines hold one `key = value` pair.  Blank lines are ignored, and so is
a '#' with the rest of its line when the '#' starts the line or follows
whitespace; a '#' inside a value, as in `out_log = runs/#3/log.jsonl`,
is part of the value.  Unknown, duplicate and unparsable keys are hard
errors that name the key.

A run configuration is a plain mapping from config key to parsed value.
parse_run_config gives the file's keys over the file defaults (the
trial count, the seed, eta and the output paths); every other key is
absent until given.  to_conversion_config passes only the keys present:
the adiabatic_* keys to an AdiabaticBudget and the other library keys
to ConversionConfig, so each protocol default lives in the object that
uses it.  _KEYS maps each key to its converter and that
library parameter; with_overrides applies command-line values with the
same converters.

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
from typing import Callable, Mapping, NamedTuple

from .protocol import AdiabaticBudget, ConversionConfig

__all__ = ["ConfigError", "parse_run_config", "to_conversion_config", "with_overrides"]

_COMMENT = re.compile(r"(?:^|\s)#")
_UNDECODABLE = re.compile("[\udc80-\udcff]")

_ADIABATIC_SCALES = ("adiabatic_delta_e", "adiabatic_h_tilde", "adiabatic_t_meas")


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key when known.

    A refusal of the two levels carries the level keys given, joined by ', '.
    """

    def __init__(self, key: str | None, message: str):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


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
    parse: Callable[[str, str], object]
    # the library object and parameter the value feeds; None for file-only keys
    owner: type | None = None
    param: str | None = None


_KEYS = {
    "trials": _Key(_parse_int),
    "seed": _Key(_parse_int),
    "eta": _Key(_parse_float, ConversionConfig, "eta"),
    "gate": _Key(_parse_gate, ConversionConfig, "abort_gate_on"),
    "lambda": _Key(_parse_float, ConversionConfig, "anharmonicity_on"),
    "truncation": _Key(_parse_int, ConversionConfig, "truncation"),
    "level_a": _Key(_parse_int, ConversionConfig, "level_a"),
    "level_b": _Key(_parse_int, ConversionConfig, "level_b"),
    "landing_prob": _Key(_parse_float, ConversionConfig, "landing_prob"),
    "detect_amp": _Key(_parse_float, ConversionConfig, "detect_amp"),
    "clock_period": _Key(_parse_float, ConversionConfig, "clock_period"),
    "travel_plus_register_time": _Key(_parse_float, ConversionConfig, "travel_plus_register_time"),
    "and_gate_time": _Key(_parse_float, ConversionConfig, "and_gate_time"),
    "adiabatic_delta_e": _Key(_parse_float, AdiabaticBudget, "delta_e"),
    "adiabatic_h_tilde": _Key(_parse_float, AdiabaticBudget, "h_tilde"),
    "adiabatic_t_meas": _Key(_parse_float, AdiabaticBudget, "t_meas"),
    "adiabatic_threshold": _Key(_parse_float, AdiabaticBudget, "ratio_threshold"),
    "out_log": _Key(_parse_str),
    "out_summary": _Key(_parse_str),
}

# library parameter -> the config key that feeds it.  A library range
# error starts with the name of the parameter it refuses, or with |name|,
# or with "levels" when it refuses the two levels, named by the keys given
_PARAM_KEYS = {k.param: key for key, k in _KEYS.items() if k.owner is not None}
_REFUSED_NAME = re.compile(r"\|?(\w*)")

_FILE_DEFAULTS = {
    "trials": 1000,
    "seed": 0,
    # the file's detector misses one landed photon in ten, where
    # ConversionConfig's default (eta = 1) is the ideal detector
    "eta": 0.9,
    "out_log": "outcomes.jsonl",
    "out_summary": "summary.json",
}


def parse_run_config(path: str | os.PathLike) -> dict[str, object]:
    """Read a key=value file over the file defaults; value ranges are not checked here.

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
        if key in values:
            raise ConfigError(key, "key given more than once")
        values[key] = _KEYS[key].parse(key, raw_value)
    return {**_FILE_DEFAULTS, **values}


def with_overrides(rc: Mapping[str, object], raw: Mapping[str, str | None]) -> dict[str, object]:
    """rc with each given value in raw parsed as its key would be in a file; non-keys pass."""
    return {**rc, **{
        key: _KEYS[key].parse(key, value)
        for key, value in raw.items() if key in _KEYS and value is not None
    }}


def to_conversion_config(rc: Mapping[str, object]) -> ConversionConfig:
    """Build the campaign configuration from the keys present in rc.

    An unknown key, and adiabatic values set without all three scales,
    are refused.  A value the library refuses is re-raised as a
    ConfigError naming the config key that feeds it, or the level keys
    given when the two levels are refused.
    """
    args: dict[type, dict[str, object]] = {AdiabaticBudget: {}, ConversionConfig: {}}
    for key, value in rc.items():
        if key not in _KEYS:
            raise ConfigError(key, "unknown configuration key")
        k = _KEYS[key]
        if k.owner is not None:
            args[k.owner][k.param] = value
    budget = args[AdiabaticBudget]
    missing = [key for key in _ADIABATIC_SCALES if key not in rc]
    if budget and missing:
        # name the given keys in table order, whatever order rc holds them in
        given = [key for key in _KEYS if key in rc and _KEYS[key].owner is AdiabaticBudget]
        raise ConfigError(
            None,
            f"{', '.join(given)} given without "
            f"{', '.join(missing)}; the adiabatic_* scales are all-or-none",
        )
    config_args = args[ConversionConfig]
    try:
        if budget:
            config_args["adiabatic_budget"] = AdiabaticBudget(**budget)
        return ConversionConfig(**config_args)
    except ValueError as exc:
        name = _REFUSED_NAME.match(str(exc)).group(1)
        if name == "levels":
            key = ", ".join(lv for lv in ("level_a", "level_b") if lv in rc)
        else:
            key = _PARAM_KEYS.get(name)
        raise ConfigError(key, str(exc)) from None
