"""Flat key=value run configuration for the conversion command.

Lines hold one `key = value` pair.  Blank lines are ignored, and so is
a '#' with the rest of its line when the '#' starts the line or follows
whitespace; a '#' inside a value, as in `out_log = runs/#3/log.jsonl`,
is part of the value.  A line with no '=' or no key names its line;
unknown, duplicate and unparsable keys are hard errors that name the key.

A run configuration is a plain mapping from config key to parsed value.
parse_run_config gives the file's keys over the file defaults (eta and
the output paths); every other key is absent until given.
to_conversion_config passes every key present but the two output paths
to ConversionConfig, so each protocol default, trials and seed included,
and each rule between keys such as the all-or-none adiabatic_* scales,
lives in the object that uses it.  _KEYS maps each key to its converter,
what a refusal of the value says was expected, and the ConversionConfig
parameter it feeds; _parse reads it for the file's values and for the
command-line values with_overrides applies.

The converters only parse: the range of each value, finiteness
included, is checked by ConversionConfig, whose errors
to_conversion_config re-raises as a ConfigError naming the key, and by
build_model when the campaign starts.  A file that starts with a UTF-8
byte order mark is read as one without it.
"""

from __future__ import annotations

import os
import re
from typing import Mapping

from .protocol import ConversionConfig

__all__ = ["ConfigError", "parse_run_config", "to_conversion_config", "with_overrides"]

_COMMENT = re.compile(r"(?:^|\s)#")
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key when known.

    A refusal of the two levels carries the level keys given, joined by ', '.
    """

    def __init__(self, key: str | None, message: str):
        self.key = key
        super().__init__(message if key is None else f"{key}: {message}")


_ON_OFF = {"on": True, "off": False}

# key -> (converter, what a refusal says was expected, the ConversionConfig
# parameter the value feeds; None for the file-only output paths)
_KEYS = {
    "trials": (int, "an integer", "trials"),
    "seed": (int, "an integer", "seed"),
    "eta": (float, "a number", "eta"),
    "gate": (_ON_OFF.__getitem__, "'on' or 'off'", "abort_gate_on"),
    "lambda": (float, "a number", "anharmonicity_on"),
    "truncation": (int, "an integer", "truncation"),
    "level_a": (int, "an integer", "level_a"),
    "level_b": (int, "an integer", "level_b"),
    "landing_prob": (float, "a number", "landing_prob"),
    "detect_amp": (float, "a number", "detect_amp"),
    "clock_period": (float, "a number", "clock_period"),
    "travel_plus_register_time": (float, "a number", "travel_plus_register_time"),
    "and_gate_time": (float, "a number", "and_gate_time"),
    "adiabatic_delta_e": (float, "a number", "adiabatic_delta_e"),
    "adiabatic_h_tilde": (float, "a number", "adiabatic_h_tilde"),
    "adiabatic_t_meas": (float, "a number", "adiabatic_t_meas"),
    "adiabatic_threshold": (float, "a number", "adiabatic_threshold"),
    "out_log": (str, None, None),
    "out_summary": (str, None, None),
}

# library parameter -> the config key that feeds it.  A library range
# error starts with the name of the parameter it refuses, or with |name|,
# or with "levels" when it refuses the two levels, named by the keys given
_PARAM_KEYS = {param: key for key, (_, _, param) in _KEYS.items() if param is not None}
_REFUSED_NAME = re.compile(r"\|?(\w*)")

_FILE_DEFAULTS = {
    # the file's detector misses one landed photon in ten, where
    # ConversionConfig's default (eta = 1) is the ideal detector
    "eta": 0.9,
    "out_log": "outcomes.jsonl",
    "out_summary": "summary.json",
}


def _parse(key: str, raw: str) -> object:
    """raw converted as key's value; a value its converter refuses is a ConfigError."""
    convert, expected, _ = _KEYS[key]
    try:
        return convert(raw)
    except (ValueError, KeyError):
        raise ConfigError(key, f"expected {expected}, got {raw!r}") from None


def parse_run_config(path: str | os.PathLike) -> dict[str, object]:
    """Read a key=value file over the file defaults; value ranges are not checked here.

    A file that is missing, cannot be read or is not UTF-8 text is refused
    with a ConfigError that names it.
    """
    name = os.fspath(path)
    try:
        # an undecodable byte comes through as a lone surrogate, found below
        # with its line number; utf-8-sig drops a leading byte order mark
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
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
        key, sep, raw_value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ConfigError(None, f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _KEYS:
            raise ConfigError(key, "unknown configuration key")
        if not raw_value:
            raise ConfigError(key, "missing value")
        if key in values:
            raise ConfigError(key, "key given more than once")
        values[key] = _parse(key, raw_value)
    return {**_FILE_DEFAULTS, **values}


def with_overrides(rc: Mapping[str, object], raw: Mapping[str, str | None]) -> dict[str, object]:
    """rc with each given value in raw parsed as its key would be in a file; non-keys pass."""
    return {**rc, **{
        key: _parse(key, value)
        for key, value in raw.items() if key in _KEYS and value is not None
    }}


def to_conversion_config(rc: Mapping[str, object]) -> ConversionConfig:
    """Build the campaign configuration from the keys present in rc.

    An unknown key is refused.  A value the library refuses is re-raised
    as a ConfigError naming the config key that feeds it, or the level
    keys given when the two levels are refused.
    """
    args = {}
    for key, value in rc.items():
        if key not in _KEYS:
            raise ConfigError(key, "unknown configuration key")
        _, _, param = _KEYS[key]
        if param is not None:
            args[param] = value
    try:
        return ConversionConfig(**args)
    except ValueError as exc:
        name = _REFUSED_NAME.match(str(exc)).group(1)
        if name == "levels":
            key = ", ".join(lv for lv in ("level_a", "level_b") if lv in rc)
        else:
            key = _PARAM_KEYS.get(name)
        raise ConfigError(key, str(exc)) from None
