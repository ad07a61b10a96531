"""Scan results and deterministic file output.

CSV files carry '#'-prefixed metadata lines, then one header row, then
data rows at 12 significant digits.  All writes go to a temp file in the
target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping, Sequence


def format_number(value: float) -> str:
    return format(float(value), ".12g")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Rows of (parameter, derived columns) with the parameter strictly increasing."""

    parameter_name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        rows = tuple(tuple(map(float, row)) for row in self.rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        if not columns:
            raise ValueError("a scan needs at least one column")
        if columns[0] != self.parameter_name:
            raise ValueError("first column must be the scan parameter")
        if len(rows) < 2:
            raise ValueError("a scan needs at least two rows")
        for row in rows:
            if len(row) != len(columns):
                raise ValueError("row arity does not match the column list")
        params = [row[0] for row in rows]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("scan parameter must be strictly increasing")

    @classmethod
    def from_columns(cls, columns: Sequence[str], values: Sequence) -> "ScanResult":
        """Build from one 1-D numpy array per column, the scan parameter first."""
        return cls(columns[0], tuple(columns), tuple(zip(*(v.tolist() for v in values))))

    def column(self, name: str) -> list[float]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path via a same-directory temp file and rename.

    The file gets mode 0o666 less the umask, as open() would give it, not
    the 0o600 of the temp file.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_current_umask())
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _current_umask() -> int:
    # The umask can only be read by setting it; restore it at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def render_scan_csv(result: ScanResult, metadata: Mapping[str, object]) -> str:
    lines = [f"# {key}={_metadata_str(value)}" for key, value in sorted(metadata.items())]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def write_scan_csv(
    result: ScanResult, path: str | os.PathLike, metadata: Mapping[str, object]
) -> None:
    atomic_write_text(path, render_scan_csv(result, metadata))


def write_json(obj: object, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _metadata_str(value: object) -> str:
    if isinstance(value, float):
        return format_number(value)
    return str(value)
