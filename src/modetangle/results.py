"""Scan results and deterministic file output.

CSV files carry '#'-prefixed metadata lines, then one header row, then
data rows at 12 significant digits.  All writes go to a temp file in the
target directory followed by an atomic rename; a long text can be handed
over as an iterable of chunks.  A symlink is written through, and a
target that exists but is no regular file is refused.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from typing import Iterable, Mapping, NamedTuple, Sequence


# the one number format: CSV cells, float metadata and printed protocol rates
_NUMBER = "%.12g"


def format_number(value: float) -> str:
    return _NUMBER % float(value)


class ScanResult(NamedTuple):
    """Named columns of floats, the scan parameter first."""

    columns: tuple[str, ...]
    values: tuple[list[float], ...]

    @classmethod
    def from_columns(cls, columns: Sequence[str], values: Sequence) -> "ScanResult":
        """Build from one 1-D numpy array per column."""
        return cls(tuple(columns), tuple(v.tolist() for v in values))


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of its chunks, to path via a temp file and rename.

    Chunks are written as they come, so a long text need never be held
    whole.  The file gets mode 0o666 less the umask, as open() would give
    it, not the 0o600 of the temp file.  A symlink at path stays, and the
    file it resolves to is replaced.  A path that exists but is no
    regular file, such as a FIFO or /dev/stdout, is refused and left
    alone.  An OSError names path, not the temp file.
    """
    chunks = [text] if isinstance(text, str) else text
    target = os.path.realpath(path)
    tmp = None
    try:
        # asked of path, not target: stat follows /dev/stdout into /proc,
        # where realpath can name a pipe that is no file
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(errno.EEXIST, "exists and is not a regular file")
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_current_umask())
            handle.writelines(chunks)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # name the file asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _current_umask() -> int:
    # The umask can only be read by setting it; restore it at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def render_scan_csv(result: ScanResult, metadata: Mapping[str, object]) -> str:
    lines = [f"# {key}={_metadata_str(value)}" for key, value in sorted(metadata.items())]
    lines.append(",".join(result.columns))
    # one template per row: the columns hold floats already
    row_template = ",".join([_NUMBER] * len(result.columns))
    lines.extend(row_template % row for row in zip(*result.values))
    return "\n".join(lines) + "\n"


def write_json(obj: object, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _metadata_str(value: object) -> str:
    if isinstance(value, float):
        return format_number(value)
    return str(value)
