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

``read_csv`` reads the file once as bytes.  A plain file, ASCII with no
comma and no control or space byte but its newlines, is all first fields
already.  Its lines, less the empty ones and the header, are read a chunk
at a time by a decimal kernel after W. D. Clinger ("How to read floating
point numbers accurately", PLDI 1990).  It takes the 24 bytes that end
each line as three 8-byte words, and reads a line that is an optional
``-`` and then digits with at most one point:

- the point's gap is closed by a masked one-byte shift, and the digits
  become an integer D, eight at a time (D. Lemire's SWAR step); with q
  digits after the point the value is D / 10^q;
- 10^q is a double for q <= 22, so for D <= 2^53 the value is one IEEE
  division, rounded once: exact;
- for a larger D (below 10^18), Q = fl(fl(D) / 10^q) is within 1.5 ulp of
  D / 10^q.  The remainder D - Q 10^q is exact in doubles: Dekker's
  product gives Q 10^q as hi + err, D is fl(D) plus an int64 rest, and
  fl(D) - hi is exact by Sterbenz's lemma.  So the remainder over 10^q,
  r, is known to about 1e-15 ulp, and Q + r rounds to the double nearest
  D / 10^q unless that is within the error of a half-ulp.  The line is
  certified only when r is more than 1e-6 ulp from every half-ulp, and Q
  at least two ulps inside its binade, so that its neighbours have its ulp.

Every other line goes through ``float``: longer than 24 bytes, more than
22 digits after the point or 18 after the leading zeros, an exponent,
``inf``, ``nan``, ``_``, ``+``, an uncertified row (exact ties among them).
The first line that ``float`` refuses, in file order, is the ``bad value``.
Any other file is read as text, as ``open`` decodes it, with each line
stripped and cut at its first comma; a file that does not decode is a
``ParseError`` that names it.
"""
from __future__ import annotations

import io

import numpy as np

from .errors import ParseError

__all__ = ["CHUNK", "write_records", "write_csv", "write_keyvals", "read_csv"]

CHUNK = 1 << 15  # records formatted, or lines read, per call


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
_POW10 = np.array([float(10**p) for p in range(23)])  # exact doubles
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

_WIDTH = 24  # the longest line the kernel reads: three 8-byte words
_ROW = np.dtype((np.void, _WIDTH))
_ZEROS = np.uint64(0x3030303030303030)  # b"00000000"
_ONES = np.uint64(0x0101010101010101)
_BIG = np.uint64(0x7676767676767676)  # added to a byte of at most 9, sets no top bit
_TOPS = np.uint64(0x8080808080808080)
_PAIRS = np.uint64(0x000000FF000000FF)


def _masks():
    """For n = 0..24, the last n and the first n bytes of a row, as (3, 25)
    tables of little-endian words: column n is the mask of n bytes."""
    n, col = np.arange(_WIDTH + 1)[:, None], np.arange(_WIDTH)
    last = np.where(col >= _WIDTH - n, 255, 0).astype(np.uint8)
    first = np.where(col < n, 255, 0).astype(np.uint8)
    return last.view("<u8").T.copy(), first.view("<u8").T.copy()


_LAST, _FIRST = _masks()
# word j times its multiplier has, in its top byte, 8j + i + 1 for the one
# byte i of the word that is 1, and 0 when all are 0
_PLACE = np.array([int.from_bytes(bytes(8 * j + 8 - i for i in range(8)), "little")
                   for j in range(3)], np.uint64)[:, None]


def _decimals(data: bytes, ends: np.ndarray, lens: np.ndarray):
    """Read the lines ``data[ends - lens:ends]`` as decimals: (values, exact).

    values[i] is ``float``'s double of line i where exact[i] is set, and means
    nothing elsewhere.  Every line must end at byte 24 or later.
    """
    rows = np.ndarray((len(data) - _WIDTH + 1,), _ROW, data, strides=(1,))
    words = np.ascontiguousarray(rows[ends - _WIDTH].view("<u8").reshape(-1, 3).T)
    neg = np.frombuffer(data, np.uint8)[ends - lens] == ord("-")
    n = np.minimum(lens - neg, _WIDTH)  # the bytes after the sign
    # each digit byte as its value, the point as 0x1e, the bytes before as 0
    z = (words ^ _ZEROS) & _LAST.take(n, axis=1)
    dots = (z.view(np.uint8) == (ord(".") ^ 0x30)).view("<u8")
    count = (dots.sum(0) * _ONES) >> 56
    at = ((dots * _PLACE) >> 56).sum(0).astype(np.intp)  # the point's column + 1
    # close the point's gap: each byte up to it moves one column right
    moved = z << 8
    moved[1:] |= z[:-1] >> 56
    z ^= (z ^ moved) & _FIRST.take(at, axis=1, mode="clip")
    q = np.where(at > 0, _WIDTH - at, 0)  # digits after the point
    exact = (~((z + _BIG) & _TOPS).any(0) & (count <= 1) & (n > count)
             & (lens <= _WIDTH) & (q <= 22))
    # eight digits per word to their value (Lemire's SWAR step), then D
    v = z * 10 + (z >> 8)
    v = ((v & _PAIRS) * (100 + (1000000 << 32))
         + ((v >> 16) & _PAIRS) * (1 + (10000 << 32))) >> 32
    exact &= v[0] < 100  # at most 18 digits after the leading zeros
    d = ((v[0] * 10**8 + v[1]) * 10**8 + v[2]).astype(np.int64)
    d[~exact], q[~exact] = 0, 0  # plain numbers for the rows left to float()
    # D / 10^q rounded once; exact for D <= 2^53 (Clinger's fast path)
    dh = d.astype(np.float64)
    p = _POW10[q]
    x = dh / p
    # else D - x 10^q exactly, from Dekker's product x 10^q = hi + err and D = dh + dl
    hi = x * p
    xh, xl = _split(x)
    err = xl * _POW10_LO[q] - (((hi - xh * _POW10_HI[q]) - xl * _POW10_HI[q])
                               - xh * _POW10_LO[q])
    dl = (d - dh.astype(np.int64)).astype(np.float64)
    fix = ((dh - hi) + (dl - err)) / p
    mant, e = np.frexp(x)
    ulps = np.abs(np.ldexp(fix, 53 - e))
    slow = d > 2**53
    exact &= ~slow | ((np.abs(ulps - np.floor(ulps) - 0.5) > 1e-6)
                      & (mant >= 0.5 + 2**-52) & (mant <= 1 - 2**-52))
    x = np.where(slow, x + fix, x)
    np.negative(x, out=x, where=neg)
    return x, exact


def _plain_lines(data: bytes, header: str):
    """The end and length of each line of data that is neither empty nor
    ``header``, or None unless data is plain: ASCII with no comma and no
    control or space byte but newlines."""
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if np.count_nonzero(buf.view(np.int8) < 33) != ends.size or b"," in data:
        return None
    ends = np.append(ends, len(data))  # the last line, empty if data ends in a newline
    lens = np.diff(ends, prepend=-1) - 1
    keep = lens > 0
    head = header.encode()
    same = np.flatnonzero(lens == len(head)) if head else []
    if len(same):
        lines = np.ndarray((len(data) - len(head) + 1,), f"S{len(head)}", data, strides=(1,))
        keep[same[lines[ends[same] - len(head)] == head]] = False
    return ends[keep], lens[keep]


def _float(path, tok: str) -> float:
    try:
        return float(tok)
    except ValueError as exc:
        raise ParseError(f"{path}: bad value {tok!r}") from exc


def read_csv(path, header: str) -> np.ndarray:
    """Floats from the first field of each row, as a 1-D array.

    Lines are stripped and skipped when their first field is empty or is
    ``header``; later fields are ignored.  A plain file (``_plain_lines``) is
    all first fields already: its lines are read by the decimal kernel a chunk
    at a time, and any line the kernel does not certify by ``float``.
    """
    with open(path, "rb") as fh:
        # newlines before the file: each line then ends at byte 24 or later
        data = b"\n" * _WIDTH + fh.read()
    lines = _plain_lines(data, header)
    if lines is None:
        return _read_text(path, data[_WIDTH:], header)
    ends, lens = lines
    out = np.empty(ends.size)
    for start in range(0, ends.size, CHUNK):
        part = slice(start, start + CHUNK)
        values, exact = _decimals(data, ends[part], lens[part])
        for i in np.flatnonzero(~exact).tolist():
            end = ends[start + i]
            values[i] = _float(path, data[end - lens[start + i]:end].decode())
        out[part] = values
    return out


def _read_text(path, data: bytes, header: str) -> np.ndarray:
    """read_csv on text as open() decodes it, with every line end as "\n".

    Text with no comma and no whitespace but its newlines, in ASCII, is all
    first fields already, so only then are the lines taken as they are.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text "
                         f"(byte {exc.object[exc.start]:#04x})") from exc
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
            _float(path, tok)
        raise
