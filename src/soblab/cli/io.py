"""Deterministic text I/O: CSV tables written from their columns, and
atomic files.

Every float is serialized with 17 significant digits so that
float(text) == x exactly, each column has one cell format, and all
writes go through an atomic replace so partially written outputs never
appear on disk.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..errors import ConfigError

_CHUNK_ROWS = 4096  # lines per string that write_csv hands to the file


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


def write_csv(path, header, columns) -> None:
    """Write a CSV table given as its columns, each a (J,) or (J, c) array
    (c cells a row) or a sequence of J cells.

    Each column has one printf-style format, chosen by its dtype: %d for
    integer and bool columns (and for an object column of Python ints,
    such as seeds beyond int64), %s for strings (quoted as the csv module
    quotes them) and %.17g for everything else, which equals
    format(float(x), ".17g") for every float64.  Lines are formatted and
    go to disk in chunks of _CHUNK_ROWS, so no text of the whole table is
    ever held.
    """
    atomic_write_text(path, _csv_chunks(header, [np.asarray(col) for col in columns]))


def _csv_chunks(header, columns):
    # the format of each column, once for each of its cells in a row
    specs = [spec for col in columns
             for spec in [_spec(col)] * (col.shape[1] if col.ndim == 2 else 1)]
    fmt = ",".join(specs)
    yield ",".join(map(_quote, header)) + "\n"
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [cell for col in columns
                 for cell in np.atleast_2d(col[start : start + _CHUNK_ROWS].T).tolist()]
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
