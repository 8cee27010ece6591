"""Deterministic text I/O: CSV tables written from their columns, and
atomic files.

Every float is serialized with 17 significant digits so that
float(text) == x exactly, each column has one cell format, and all
writes go through an atomic replace so partially written outputs never
appear on disk.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading

import numpy as np

from ..errors import ConfigError

_CHUNK_ROWS = 4096  # lines per string that write_csv hands to the file
_READ_CHARS = 2**18  # characters per read of a worker's file: at most 1 MiB of UTF-8


def atomic_write_text(path, text) -> None:
    """Write text (a str, or an iterable of str written in turn) to path via
    a temp file + rename in the same directory, so that path is untouched
    on any error; an output path that cannot be written raises ConfigError."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path!r}: {exc.strerror or exc}") from None
        raise


def write_csv(path, header, columns, workers=1) -> None:
    """Write a CSV table given as its columns, each a (J,) or (J, c) array
    (c cells a row) or a sequence of J cells.

    Each column has one printf-style format, chosen by its dtype: %d for
    integer and bool columns (and for an object column of Python ints,
    such as seeds beyond int64), %s for strings (quoted as the csv module
    quotes them) and %.17g for everything else, which equals
    format(float(x), ".17g") for every float64.  Lines are formatted and
    go to disk in chunks of _CHUNK_ROWS, so no text of the whole table is
    ever held.

    A table of two or more full chunks is split into up to `workers` parts
    of whole chunks.  A forked worker formats each part after the first into
    a temp file beside path, copied in once it exits 0; this process formats
    the other parts (a bad cell raises as inline), or the whole table without
    os.fork or beside another thread.  The bytes are the same at any count.
    """
    columns = [np.asarray(col) for col in columns]
    # the format of each column, once for each of its cells in a row
    specs = [spec for col in columns
             for spec in [_spec(col)] * (col.shape[1] if col.ndim == 2 else 1)]
    rows = len(columns[0])
    count = min(workers, rows // _CHUNK_ROWS)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        count = 1  # a fork beside another thread may copy a lock that thread holds
    bounds = [_CHUNK_ROWS * (rows // _CHUNK_ROWS * p // count) for p in range(count)] + [rows]
    parts = [[None, None, a, b] for a, b in zip(bounds, bounds[1:])]  # [pid, temp file, rows a:b]
    try:
        for part in parts[1:]:
            _fork_worker(part, os.path.dirname(path) or ".", columns, specs)
        atomic_write_text(path, _table_text(header, columns, specs, parts))
    finally:
        for pid, tmp, _, _ in parts:
            if pid is not None:  # a worker still running after an error here
                import signal  # here: not paid by every cold start
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def _fork_worker(part, directory, columns, specs) -> None:
    """Fork a worker writing part's rows to a new temp file in directory; note both in part."""
    with contextlib.suppress(OSError):
        fd, part[1] = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as fh:  # written by the worker alone
            part[0] = os.fork()
            if part[0] == 0:  # the worker formats only and never returns: exit 1 on any error
                with contextlib.suppress(BaseException):
                    fh.writelines(_csv_chunks(columns, specs, *part[2:]))
                    fh.close()
                    os._exit(0)
                os._exit(1)


def _table_text(header, columns, specs, parts):
    """The header, then each part's text: its worker's file if it exits 0, else formatted here."""
    yield ",".join(map(_quote, header)) + "\n"
    for part in parts:
        pid, tmp, start, stop = part
        if pid is not None:
            part[0], status = None, os.waitpid(pid, 0)[1]
            if status == 0:
                with open(tmp, newline="") as fh:
                    yield from iter(lambda: fh.read(_READ_CHARS), "")
                continue
        yield from _csv_chunks(columns, specs, start, stop)


def _csv_chunks(columns, specs, start, stop):
    """The text of rows start:stop, up to _CHUNK_ROWS lines a string, in the
    format specs gives each cell of a row."""
    fmt = ",".join(specs)
    for first in range(start, stop, _CHUNK_ROWS):
        rows = slice(first, min(first + _CHUNK_ROWS, stop))
        cells = [cell for col in columns for cell in np.atleast_2d(col[rows].T).tolist()]
        cells = [list(map(_quote, c)) if spec == "%s" else c for spec, c in zip(specs, cells)]
        yield "\n".join(fmt % row for row in zip(*cells)) + "\n"


def _spec(column) -> str:
    kind = column.dtype.kind
    if kind in "biu" or (kind == "O" and all(isinstance(c, (int, np.integer)) for c in column.flat)):
        return "%d"
    if kind == "U":
        return "%s"
    return "%.17g"


def _quote(cell: str) -> str:
    """A string cell as csv.writer writes it: quoted when it holds the
    delimiter, the quote character or the line terminator."""
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell
