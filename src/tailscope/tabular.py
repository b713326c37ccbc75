"""The one number format, for CSV files and key=value files.

Floats are written as ``%.17g``, which reads back to the same double, and
integers as ``%d``.  A CSV file is a header line, then one row per record.
Records are formatted a chunk at a time, with one ``%`` on the record
template repeated for the chunk; the bytes are those of formatting each
record on its own.  A key=value file holds one ``key=value`` line per pair.
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError

__all__ = ["CHUNK", "write_records", "write_csv", "write_keyvals", "read_csv"]

CHUNK = 1 << 15  # records formatted per call


def write_records(fh, template: str, columns, sep: str = "") -> None:
    """Write ``template % row`` for each row of equal-length columns, joined by sep."""
    cols = [np.asarray(c) for c in columns]
    width, n = len(cols), cols[0].shape[0]
    for start in range(0, n, CHUNK):
        m = min(CHUNK, n - start)
        fields = [None] * (m * width)
        for j, c in enumerate(cols):
            fields[j::width] = c[start:start + m].tolist()
        fh.write((sep if start else "") + sep.join([template] * m) % tuple(fields))


def write_csv(path, header: str, columns) -> None:
    """Write columns under a header line: integer columns as %d, all others as %.17g."""
    cols = [np.asarray(c) for c in columns]
    formats = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in cols]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_records(fh, ",".join(formats) + "\n", cols)


def write_keyvals(path, pairs) -> None:
    """One key=value line per pair, in order: floats as %.17g, anything else by
    ``str``, and the items of a list, tuple or array the same way, joined by commas."""
    with open(path, "w") as fh:
        for key, value in pairs:
            items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
            fields = ["%.17g" % v if isinstance(v, float) else str(v) for v in items]
            fh.write(f"{key}={','.join(fields)}\n")


def read_csv(path, header: str) -> np.ndarray:
    """Floats from the first field of each row, as a 1-D array.

    Lines are stripped and skipped when their first field is empty or is
    ``header``; later fields are ignored.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh.read().split("\n")]
    # no list kept per row: the garbage collector would rescan them all
    fields = [f for f in [ln.split(",", 1)[0] for ln in lines] if f and f != header]
    try:
        return np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        for tok in fields:
            try:
                float(tok)
            except ValueError as exc:
                raise ParseError(f"{path}: bad value {tok!r}") from exc
        raise
