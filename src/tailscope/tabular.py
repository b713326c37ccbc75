"""The one number format, for CSV files and key=value files.

Floats are written as ``%.17g``, which reads back to the same double, and
integers as ``%d``.  A CSV file is a header line, then one row per record.
Records are formatted a chunk at a time, with one ``%`` on the record
template repeated for the chunk; the bytes are those of formatting each
record on its own.  A key=value file holds one ``key=value`` line per pair.

A CSV float column is formatted in numpy, to the bytes of ``"%.17g" % v``.
For 1e-4 <= |v| < 1e17, ``%.17g`` writes fixed notation: the 17 significant
digits D = round(|v| 10^p) with p = 16 - E, where E = floor(log10 |v|),
with the point placed by E and trailing fraction zeros (and then a bare
point) stripped.  The digits are exact because:

- 10^p is a double for p <= 22, so Dekker's error-free product (T. J.
  Dekker, "A floating-point technique for extending the available
  precision", Numer. Math. 18, 1971; split by 2^27 + 1, no fused
  multiply-add) gives |v| 10^p exactly as hi + err;
- a D of 17 digits exceeds 2^53, so hi is an integer and D is hi + err
  rounded half to even, exact in int64, ties included;
- E from log10 may be off by one near a power of ten: one too high gives
  D <= 10^16, one too low D >= 10^17, as does a D that rounds up to the
  next power of ten.  So D is used only when 10^16 < D < 10^17, where E
  is right.

Every other value goes through Python's own ``%.17g``, one by one: the
exponent form, 0, subnormals, inf, NaN and the D outside those bounds.

The digits become bytes through a '0000'-'9999' table.  The rows are
sorted by E and sign, each such group is laid out once with the stripped
zeros as trailing NUL bytes, and the rows are put back in order in an
``S`` array, whose ``tolist`` gives each field as bytes without the NULs.
The records are joined by one bytes ``%`` per chunk.
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
    ints = [np.issubdtype(c.dtype, np.integer) for c in cols]
    template = b",".join(b"%d" if i else b"%s" for i in ints) + b"\n"
    width, n = len(cols), cols[0].shape[0]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, CHUNK):
            m = min(CHUNK, n - start)
            fields = [None] * (m * width)
            for j, c in enumerate(cols):
                part = c[start:start + m]
                fields[j::width] = part.tolist() if ints[j] else _g17(part)
            fh.write(template * m % tuple(fields))


_SPLITTER = 134217729.0  # 2^27 + 1
_POW10 = np.array([float(10**p) for p in range(21)])  # exact doubles
_LONGEST = len("-0.00012345678901234567")


def _split(a):
    """Dekker's split: a == hi + lo, each half of 26 significant bits or fewer."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _quads() -> np.ndarray:
    """'0000'..'9999' as four bytes each, then the same with trailing zeros as NUL."""
    quads = np.empty((2, 10000, 4), np.uint8)
    quads[0] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    kept = quads[0] > ord("0")
    for j in (2, 1, 0):
        kept[:, j] |= kept[:, j + 1]
    quads[1] = quads[0] * kept
    return quads.view(np.uint32).ravel()


_POW10_HI, _POW10_LO = _split(_POW10)
_QUADS = _quads()


def _g17(x: np.ndarray) -> list:
    """``b"%.17g" % v`` for each v of x, as a list of bytes."""
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    ah, al = _split(a)
    bh, bl = _POW10_HI[16 - e], _POW10_LO[16 - e]
    hi = a * _POW10[16 - e]
    err = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)
    whole = np.floor(err)
    frac = err - whole
    d = hi.astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))
    fixed &= (d > 10**16) & (d < 10**17)
    d[~fixed] = 10**16 + 1  # laid out like the others, then replaced

    # sort by (E, sign), so that each group is a slice
    key = ((e + 4) * 2 + (x < 0)).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    lead, rest = np.divmod(d[order], 10**16)
    quads = np.empty((x.size, 4), np.intp)
    quads[:, 0], quads[:, 1] = np.divmod(rest // 10**8, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(rest % 10**8, 10**4)
    tail = np.ones(x.size, bool)  # every quad after this one is zero
    for q in quads.T[::-1]:
        zero = q == 0
        q += 10000 * tail  # the form with trailing zeros as NUL
        tail &= zero
    buf = np.zeros((x.size, 6), np.uint32)
    buf[:, 1:5] = _QUADS[quads]
    # the lead digit in the last byte of the first word: 17 digits and a NUL
    digits = buf.view(np.uint8)[:, 3:21]
    digits[:, 0] = lead + ord("0")

    out = np.zeros((x.size, _LONGEST), np.uint8)
    counts = np.bincount(key, minlength=42)
    stops = np.cumsum(counts)
    for k in np.flatnonzero(counts).tolist():
        rows = slice(stops[k] - counts[k], stops[k])
        exp, neg = k // 2 - 4, k % 2
        o, g = out[rows, neg:], digits[rows]
        if neg:
            out[rows, 0] = ord("-")
        if exp < 0:
            o[:, :1 - exp] = np.frombuffer(b"0.000"[:1 - exp], np.uint8)
            o[:, 1 - exp:18 - exp] = g[:, :17]
        else:  # zeros of the integer part stay; a point only before a digit
            o[:, :exp + 1] = np.maximum(g[:, :exp + 1], ord("0"))
            o[:, exp + 1] = np.where(g[:, exp + 1], ord("."), 0)
            o[:, exp + 2:18] = g[:, exp + 1:17]
    fields = np.empty(x.size, f"S{_LONGEST}")
    fields[order] = out.view(fields.dtype).ravel()
    fields = fields.tolist()
    slow = np.flatnonzero(~fixed)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        fields[i] = b"%.17g" % v
    return fields


def write_keyvals(path, pairs) -> None:
    """One key=value line per pair, in order: floats as %.17g, anything else by
    ``str``, and the items of a list, tuple or array the same way, joined by commas."""
    with open(path, "w") as fh:
        for key, value in pairs:
            items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
            fields = ["%.17g" % v if isinstance(v, float) else str(v) for v in items]
            fh.write(f"{key}={','.join(fields)}\n")


# the comma, and the ASCII whitespace that str.strip removes but for "\n" and
# "\r": text mode has turned every line end into "\n"
_NOT_A_FIELD = ", \t\x0b\x0c\x1c\x1d\x1e\x1f"


def read_csv(path, header: str) -> np.ndarray:
    """Floats from the first field of each row, as a 1-D array.

    Lines are stripped and skipped when their first field is empty or is
    ``header``; later fields are ignored.  Text with no comma and no
    whitespace but its newlines, in ASCII, is all first fields already, so
    only then are the lines taken as they are.
    """
    with open(path) as fh:
        text = fh.read()
    plain = text.isascii() and not any(c in text for c in _NOT_A_FIELD)
    lines = text.split("\n")
    del text  # the lines hold its characters again
    if not plain:
        # no list kept per row: the garbage collector would rescan them all
        lines = [ln.strip().split(",", 1)[0] for ln in lines]
    fields = [f for f in lines if f and f != header]
    try:
        return np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        for tok in fields:
            try:
                float(tok)
            except ValueError as exc:
                raise ParseError(f"{path}: bad value {tok!r}") from exc
        raise
