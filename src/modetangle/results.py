"""Scan CSV rendering and deterministic file output.

CSV files carry '#'-prefixed metadata lines, then one header row, then
data rows at 12 significant digits, one per step of a scan's columns.
All writes go to a temp file in the target directory followed by an
atomic rename; a long text can be handed over as an iterable of chunks.
A symlink is written through, and a target that exists but is no
regular file, or ends in a separator, is refused.  write_json imports
json itself, since only the oscillator and protocol write JSON and a
scan need not load it.
"""

from __future__ import annotations

import errno
import os
import tempfile
from typing import Callable, Iterable, Mapping, Sequence

from ._common import CHUNK


# the one number format: CSV cells, float metadata and printed protocol rates
_NUMBER = "%.12g"


def format_number(value: float) -> str:
    return _NUMBER % float(value)


def atomic_write_text(
    path: str | os.PathLike, text: str | Iterable[str], before_rename: Callable[[], None] | None = None
) -> None:
    """Write text, or an iterable of its chunks, to path via a temp file and rename.

    Chunks are written as they come, so a long text need never be held
    whole.  The file gets mode 0o666 less the umask, as open() would give
    it, not the 0o600 of the temp file.  A symlink at path stays, and the
    file it resolves to is replaced.  A path that exists but is no
    regular file, such as a FIFO or /dev/stdout, is refused and left
    alone.  before_rename, if given, runs once the temp file is written
    and before it replaces path; what it raises leaves path as it was.
    An OSError of the write or the rename names path, not the temp file.
    """
    chunks = [text] if isinstance(text, str) else text
    fd, tmp = _temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_current_umask())
            handle.writelines(chunks)
        if before_rename is not None:
            before_rename()
        os.replace(tmp, os.path.realpath(path))
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        # an error that names another file is before_rename's, and passes as it is
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def check_writable(path: str | os.PathLike) -> None:
    """Raise the OSError that atomic_write_text(path, ...) would raise before writing; write nothing."""
    fd, tmp = _temp_file(path)
    os.close(fd)
    os.unlink(tmp)


def _temp_file(path: str | os.PathLike) -> tuple[int, str]:
    """mkstemp's (fd, name) for a temp file beside the file path resolves to; an OSError names path."""
    try:
        if not os.path.basename(path):
            raise OSError(errno.EISDIR, "ends in a separator and names no file")
        # path, not its realpath, which for /dev/stdout can name a pipe in /proc
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(errno.EEXIST, "exists and is not a regular file")
        return tempfile.mkstemp(dir=os.path.dirname(os.path.realpath(path)), prefix=".tmp-", suffix="~")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def _current_umask() -> int:
    # The umask can only be read by setting it; restore it at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def render_scan_csv(columns: Mapping[str, Sequence[float] | float], metadata: Mapping[str, object]) -> list[str]:
    """The CSV of a scan's named columns as a list of chunks: the head, then CHUNK rows each.

    A column is a sequence of floats, or one float that every row holds,
    such as a constant pair entropy, formatted once into the row template.
    """
    lines = [f"# {key}={_metadata_str(value)}" for key, value in sorted(metadata.items())]
    lines.append(",".join(columns))
    chunks = ["\n".join(lines) + "\n"]
    values = list(columns.values())
    row_template = ",".join([format_number(v) if isinstance(v, float) else _NUMBER for v in values]) + "\n"
    values = [v for v in values if not isinstance(v, float)]
    for start in range(0, len(values[0]), CHUNK):
        cells = [v[start:start + CHUNK] for v in values]
        chunks.append("".join([row_template % row for row in zip(*cells)]))
    return chunks


def write_json(
    obj: object, path: str | os.PathLike, before_rename: Callable[[], None] | None = None
) -> None:
    import json

    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", before_rename)


def _metadata_str(value: object) -> str:
    if isinstance(value, float):
        return format_number(value)
    return str(value)
