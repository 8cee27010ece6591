"""Deterministic text I/O: CSV writes and atomic files.

Every float is serialized with 17 significant digits so that
float(text) == x exactly, and all writes go through an atomic
replace so partially written outputs never appear on disk.
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


def write_csv(path, header, rows) -> None:
    """Write a CSV with floats in round-trip form; ints stay ints.

    Each row is formatted by one printf-style format chosen from its cell
    types: %d for ints, bools and numpy integers, %s for strings (quoted
    as the csv module quotes them) and %.17g for everything else, which
    equals format(float(x), ".17g") for every float64.  Lines go to disk
    in chunks of _CHUNK_ROWS, so memory does not grow with the rows.
    """
    atomic_write_text(path, _csv_chunks(header, rows))


def array_rows(*columns):
    """Rows of arrays side by side for write_csv: each column is (J,) or
    (J, c) for c cells a row, turned into Python scalars _CHUNK_ROWS rows
    at a time, so no whole-column lists exist."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        parts = [np.atleast_2d(col[start : start + _CHUNK_ROWS].T).tolist() for col in columns]
        yield from zip(*[cells for part in parts for cells in part])


def _csv_chunks(header, rows):
    formats = {}
    lines = [",".join(map(_quote, header))]
    for row in rows:
        types = tuple(map(type, row))
        spec = formats.get(types)
        if spec is None:
            specs = [_spec(t) for t in types]
            spec = formats[types] = (",".join(specs), "%s" in specs)
        fmt, has_str = spec
        if has_str:
            row = [_quote(c) if isinstance(c, str) else c for c in row]
        lines.append(fmt % tuple(row))
        if len(lines) == _CHUNK_ROWS:
            yield "\n".join(lines) + "\n"
            lines = []
    if lines:
        yield "\n".join(lines) + "\n"


def _spec(cell_type) -> str:
    if issubclass(cell_type, (int, np.integer)):
        return "%d"
    if issubclass(cell_type, str):
        return "%s"
    return "%.17g"


def _quote(cell: str) -> str:
    """A string cell as csv.writer writes it: quoted when it holds the
    delimiter, the quote character or the line terminator."""
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell
