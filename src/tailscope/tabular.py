"""The one number format, for CSV files, key=value files and SVG marks.

Floats are written as ``%.17g``, which reads back to the same double, and
integers as ``%d``; SVG coordinates, screen pixels, as ``%.2f``.  A CSV
file is a header line, then one row per record.  A key=value file holds one
``key=value`` line per pair.

Rows of records are written CHUNK records at a time (``write_rows``), and
each chunk becomes one ``(m, W)`` matrix of bytes, one row per record, with
no Python object per field.  A row is a list of segments: literal bytes,
the same in every row (a CSV file's ``,`` and ``\n``, an SVG circle's
``<circle cx="`` and the rest), and fields, each a block of fixed-width
columns: 24 bytes (three little-endian words) for ``%.17g``, whose longest
output is 24 bytes; one word for ``%d`` where 0 <= v < 10^8 and for
``%.2f`` below 1e5, and where a chunk holds any other value, as many words
as the longest of Python's texts needs; and for a field of a few distinct
texts, each laid out once and gathered by index, as many words as the
longest needs.  Rows may be joined by a separator, as a polyline's
vertices are by spaces.  A field's unused bytes are NUL, and they may sit
anywhere in it: no byte of a number, a literal or a separator is ever 0,
so dropping every NUL of the matrix (``rows[rows != 0]``) leaves the lines.

A float column is formatted in numpy, to the bytes of ``"%.17g" % v``.
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

A ``%.2f`` field takes its keys D = rint(100 v) from ``cents``, which the
SVG writer also compares to thin a polyline.  For 0 <= v < 1e7 the product
100 v is off the exact one by less than 1e-7, so where it lies more than
1e-6 from a half-integer rint rounds the exact decimal as ``%.2f`` does,
and D's digits, the point before the last two, are the text.  A D below
1e7 is the digit word (below) with its units at byte 5, whose first byte
is then a NUL: bytes 1-5 move one byte down, and the point takes byte 5.
Every other value, a half-cent neighbour, -0.0, a negative, 1e5 or more,
or not finite, goes through Python's ``%.2f``.

The digits become bytes eight at a time in a word, by multiply-shift
divisions on its lanes (the reverse of the reader's SWAR step below).  The
field holds the sign, the zeros of a number below 1 and the 17 digits, in
that order.  A byte smear over the last 16 digits keeps each byte that is,
or is followed by, a digit other than 0, so the trailing zeros of the
fraction become NUL.  One masked byte shift then moves the integer part one
byte left, and the point takes the byte it frees when a digit follows it.
The one digit word of ``%d`` and ``%.2f`` holds the eight digits of a
d < 10^8, each leading zero before a given units byte a NUL: byte 7 for
``%d``, byte 5 for ``%.2f``.  An integer outside [0, 10^8) goes through
Python's ``%d``, and ``_python_fields`` writes Python's text of each value
a kernel leaves, for all three formats.

A file of more than one chunk has its chunks formatted on a pool of threads,
one per CPU this process may run on (``os.sched_getaffinity``), while the
calling thread writes them in file order, with at most two chunks per
worker in flight.  The numpy steps release the interpreter lock, so the
workers run side by side, and each chunk's bytes are those of formatting
it alone, so the file does not depend on the number of workers.  A file of
one chunk, or any file on one CPU, is formatted on the calling thread, with
no pool.  ``randset`` runs its replicate cells on the same pool.

The input rules live here, for ``read_csv``, ``pipeline.load_csv`` and the
CLI's config files: a file is read once as bytes, less one leading UTF-8
byte order mark; text is decoded as ``open`` decodes it, a block at a time,
and a byte that does not decode is a ``ParseError`` that names the file;
tokens become floats in one call, and the first that ``float`` refuses is named.

A CSV file is plain when it is ASCII with no quote or NUL byte, has the
header's number of commas on every line, and has a carriage return only
directly before a newline, as part of the line end.  ``_plain_cells`` finds
the start and end of each of its cells in one numpy pass.  ``read_csv`` also
needs one column and no space or control byte but the line ends;
``pipeline.load_csv`` picks its columns out of the cells.

The value cells of a plain file are read a chunk at a time, on the
writer's pool, by a decimal kernel after W. D. Clinger ("How to read
floating point numbers accurately", PLDI 1990); ``_decimal_cells`` runs
that loop.  The kernel takes the 24 bytes that end each cell as three
8-byte words, and reads a cell that is an optional ``-`` and then digits
with at most one point:

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
  D / 10^q unless that is within the error of a half-ulp.  The cell is
  certified only when r is more than 1e-6 ulp from every half-ulp, and Q
  at least two ulps inside its binade, so that its neighbours have its ulp.

Every other cell goes through ``float``: longer than 24 bytes, more than
22 digits after the point or 18 after the leading zeros, an exponent,
``inf``, ``nan``, ``_``, ``+``, a space, an uncertified row (exact ties
among them).  These run on the calling thread, in file order, so the first
cell that ``float`` refuses is the ``bad value``, named by its file line
where ``load_csv`` gives the lines.  ``read_csv`` reads any other file as
text, with each line stripped and cut at its first comma.
"""
from __future__ import annotations

import codecs
import io
import os
from collections import deque
from functools import partial

import numpy as np

from .errors import ParseError

__all__ = ["CHUNK", "cents", "write_rows", "write_csv", "write_keyvals", "read_csv"]

# records formatted, or lines read, per call; each worker thread's malloc
# arena keeps about 280 bytes a record after its first chunk
CHUNK = 1 << 14


def write_csv(path, header: str, columns) -> None:
    """Write columns under a header line: integer columns as %d, all others as %.17g."""
    segments = []
    for c in map(np.asarray, columns):
        segments += [("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g", c), b","]
    segments[-1] = b"\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        write_rows(fh, segments)


def write_rows(fh, segments, sep: bytes = b"") -> None:
    """Write one row per record to the binary file fh, the rows joined by sep.

    A row is its segments in order.  A bytes segment is itself; any other
    is a field of equal-length columns:

    - ``("%d", v)`` and ``("%.17g", v)``;
    - ``("%.2f", v, cents(v))``, the keys computed once by the caller;
    - ``("%s", i, texts)``: texts[i], each text laid out once.
    """
    fields = [s if isinstance(s, bytes) else _field(*s) for s in segments]
    n = next(len(f[1][0]) for f in fields if not isinstance(f, bytes))
    _in_order(partial(_rows, [*fields, sep], n), range(0, n, CHUNK), fh.write, n > CHUNK)


def _field(fmt: str, *columns):
    """A field's kernel, from its columns' slices to (k, m) words, and its columns."""
    if fmt == "%s":
        index, texts = columns
        return partial(np.take, _text_fields(texts), axis=1), (index,)
    return {"%d": _int_fields, "%.17g": _float_fields, "%.2f": _cent_fields}[fmt], columns


def _workers() -> int:
    """One worker per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _in_order(work, parts, take, pooled: bool) -> None:
    """``take(work(p))`` for each p of parts, in order.

    If pooled and ``_workers()`` is more than one, work runs on a pool of
    that many threads, with at most two parts per worker in flight, and take
    on the calling thread.  Iterating parts must not fail: callers check
    their plan before they call.  The error raised, unchanged, is the first
    in order of take and work, as a plain loop over the parts would raise
    it.  The pool is joined before this returns or raises.
    """
    workers = _workers() if pooled else 1
    if workers == 1:
        for p in parts:
            take(work(p))
        return
    from concurrent.futures import ThreadPoolExecutor  # about 4 ms to import

    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for p in parts:
            if len(pending) == 2 * workers:
                take(pending.popleft().result())
            pending.append(pool.submit(work, p))
        while pending:
            take(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


def _rows(fields, n: int, start: int) -> np.ndarray:
    """Records start to start + CHUNK as rows of bytes, each followed by the
    last field, the separator, but the last of all n."""
    stop = min(start + CHUNK, n)
    parts = [f if isinstance(f, bytes) else f[0](*(c[start:stop] for c in f[1]))
             for f in fields]
    rows = np.empty((stop - start, sum(len(p) if isinstance(p, bytes) else 8 * p.shape[0]
                                       for p in parts)), np.uint8)
    at = 0
    for p in parts:
        if isinstance(p, bytes):
            rows[:, at:at + len(p)] = np.frombuffer(p, np.uint8)
            at += len(p)
        else:
            rows[:, at:at + 8 * p.shape[0]].view("<u8")[...] = p.T
            at += 8 * p.shape[0]
    out = rows[rows != 0]
    return out[:out.size - len(fields[-1])] if stop == n else out


_SPLITTER = 134217729.0  # 2^27 + 1
_POW10 = np.array([float(10**p) for p in range(23)])  # exact doubles
# three words: the longest %.17g, "-1.7976931348623157e+308", and the longest
# line the decimal kernel reads
_WIDTH = 24
_ZEROS = np.uint64(0x3030303030303030)  # b"00000000"
_ONES = np.uint64(0x0101010101010101)
_TOPS = np.uint64(0x8080808080808080)
_LOWS = np.uint64(0x7F7F7F7F7F7F7F7F)


def _split(a):
    """Dekker's split: a == hi + lo, each half of 26 significant bits or fewer."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, p):
    """Dekker's product of a and 10^p, p <= 22: (hi, err), a 10^p == hi + err exactly."""
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(p), _POW10_LO.take(p)
    hi = a * _POW10.take(p)
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _masks():
    """For n = 0..24, the last n and the first n bytes of a row, as (3, 25)
    tables of little-endian words: column n is the mask of n bytes."""
    n, col = np.arange(_WIDTH + 1)[:, None], np.arange(_WIDTH)
    last = np.where(col >= _WIDTH - n, 255, 0).astype(np.uint8)
    first = np.where(col < n, 255, 0).astype(np.uint8)
    return last.view("<u8").T.copy(), first.view("<u8").T.copy()


_LAST, _FIRST = _masks()


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8 as the bytes of a
    little-endian word, most significant first, each byte a value 0-9.

    Each step splits every lane of the word in two by a multiply-shift
    division: v into two 4-digit lanes, then four 2-digit lanes, then
    eight digits.  A lane x with quotient q = x // c becomes
    q + ((x - q c) << w), that is (x << w) - q ((c << w) - 1).
    """
    q = v * 109951163
    q >>= 40  # v // 10^4
    v = v << 32
    q *= (10000 << 32) - 1
    v -= q
    np.multiply(v, 10486, out=q)
    q >>= 20
    q &= 0x0000007F0000007F  # each lane // 100
    v <<= 16
    q *= (100 << 16) - 1
    v -= q
    np.multiply(v, 103, out=q)
    q >>= 10
    q &= 0x000F000F000F000F  # each lane // 10
    v <<= 8
    q *= (10 << 8) - 1
    v -= q
    return v


def _nonzero_bytes(s: np.ndarray) -> np.ndarray:
    """0xFF for each byte of s that is not 0, for bytes of at most 0x80."""
    return (((s + _LOWS) & _TOPS) >> 7) * 255


def _layouts():
    """Per p = 16 - E = 0..20: the prefix word (the zeros between the sign
    and the lead digit), the bytes of the last 16 digits that are in the
    integer part, the bytes that move one left to make room for the point,
    and the point's byte; the last three as (words, 21) tables."""
    e = 16 - np.arange(21)
    prefix = np.array([int.from_bytes(b"\0" * (7 - k) + b"0" * k, "little")
                       for k in np.maximum(-e, 0)], np.uint64)
    head = _FIRST[1:, 8 + np.clip(e, 0, 16)]
    return prefix, head, _FIRST[:, 8 + e], _FIRST[:, 8 + e] ^ _FIRST[:, 7 + e]


_PREFIX, _HEAD, _SHIFT, _SPOT = _layouts()


def _digits17(x: np.ndarray):
    """(D, p, fixed) for each v of x: D = round(|v| 10^p), the 17 digits of
    ``%.17g``, where fixed is set, with p = 16 - E."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    a[~fixed] = 1.0
    p = (16 - np.clip(np.floor(np.log10(a)), -4, 16)).astype(np.intp)
    hi, err = _times_pow10(a, p)
    whole = np.floor(err)
    frac = err - whole
    d = hi.astype(np.int64) + whole.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))
    fixed &= (d > 10**16) & (d < 10**17)
    return d.view(np.uint64), p, fixed


def _float_fields(x: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each v of x as a 24-byte field padded with NUL
    bytes, as (3, x.size) little-endian words."""
    x = x.astype(np.float64, copy=False)
    d, p, fixed = _digits17(x)
    # byte 2 holds the sign, 7 the lead digit and 8-23 the other 16 digits,
    # each trailing zero of the fraction a NUL; the zeros of a number below
    # 1 sit before the lead digit
    lead = d // 10**16
    d -= lead * 10**16
    words = np.empty((3, x.size), np.uint64)
    words[1] = d // 10**8
    words[2] = d - words[1] * 10**8
    tail = _ascii8(words[1:])
    seen = tail | (tail >> 8)  # a byte is not 0 when it or one after it is not 0
    seen |= seen >> 16
    seen |= seen >> 32
    seen[0] |= (seen[1] & 0xFF) * _ONES
    words[1:] = (tail + _ZEROS) & (_nonzero_bytes(seen) | _HEAD.take(p, axis=1))
    words[0] = _PREFIX.take(p) | (lead + ord("0")) << 56
    words[0] |= (x < 0).view(np.uint8) * np.uint64(ord("-") << 16)
    # the point goes after byte 7 + E: the bytes up to it move one left, and
    # the point takes byte 7 + E if a digit, or the first zero, follows it
    moved = words >> 8
    moved[:-1] |= words[1:] << 56
    words ^= (words ^ moved) & _SHIFT.take(p, axis=1)
    spot = _SPOT.take(p, axis=1)
    dots = (words >> 5) & spot & _ONES  # 1 where that byte is a digit
    words ^= (words ^ dots * ord(".")) & spot
    return _python_fields(words, b"%.17g", x, np.flatnonzero(~fixed))


def _digit_word(d: np.ndarray, units: int) -> np.ndarray:
    """The eight decimal digits of each d < 10^8 as the ASCII bytes of a
    little-endian word, most significant first, as (1, d.size) words: each
    leading zero before byte units a NUL."""
    digits = _ascii8(d.reshape(1, -1))
    seen = digits | np.uint64(1 << 8 * units)  # not 0 from the first digit that shows
    seen |= seen << 8
    seen |= seen << 16
    seen |= seen << 32
    digits += _ZEROS
    digits &= _nonzero_bytes(seen)
    return digits


def _int_fields(x: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` for each v of x, padded with NUL bytes, as (k, x.size)
    little-endian words: one word when every 0 <= v < 10^8, and else as
    many as the longest of Python's texts for the others needs."""
    d = x.astype(np.uint64)  # a negative v is 2^64 + v
    slow = np.flatnonzero(d >= 10**8)
    d[slow] = 0
    return _python_fields(_digit_word(d, 7), b"%d", x, slow)


def cents(v: np.ndarray) -> np.ndarray:
    """``rint(v * 100)`` as int32 where ``"%.2f" % v`` is those digits with
    the point before the last two, and -1 elsewhere.

    That holds for 0 <= v < 1e7, -0.0 aside, whose product v * 100 lies more
    than 1e-6 from a half-integer: the product's rounding error is below
    1e-7 there, so rint rounds the exact decimal of v times 100, as ``%.2f``
    does, ties included.  Every other v, non-finite ones too, is -1.  The
    products are taken CHUNK values at a time, so their temporaries stay in
    cache and the keys of n values take 4n bytes.
    """
    keys = np.empty(v.shape, np.int32)
    for start in range(0, v.size, CHUNK):
        part = slice(start, start + CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):  # huge and non-finite v
            t = np.multiply(v[part], 100.0, dtype=np.float64)
            key = np.rint(t)
            t -= key
        unsure = np.abs(t, out=t) > 0.5 - 1e-6
        # as unsigned integers the bits of +0.0 <= key < 1e9 are below those
        # of 1e9, and those of -0.0, a negative key, inf or NaN (where t is
        # NaN) not
        unsure |= key.view(np.uint64) >= _CENT_TOP
        key[unsure] = -1.0
        keys[part] = key
    return keys


_CENT_TOP = np.float64(1e9).view(np.uint64)


def _cent_fields(x: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``b"%.2f" % v`` for each v of x, given keys = cents(x), padded with NUL
    bytes, as (k, x.size) little-endian words: one word when every key is
    below 1e7, and else as many as the longest of Python's texts needs."""
    d = keys.astype(np.uint64)  # a key of -1 is 2^64 - 1
    slow = np.flatnonzero(d >= 10**7)
    d[slow] = 0
    # with the units at byte 5, bytes 1-5 move one byte down and the point
    # takes byte 5, before the cents
    digits = _digit_word(d, 5)
    digits = (digits >> 8 & _FIRST[0, 5]) | (digits & ~_FIRST[0, 6]) | np.uint64(ord(".") << 40)
    return _python_fields(digits, b"%.2f", x, slow)


def _python_fields(words: np.ndarray, fmt: bytes, x: np.ndarray, slow: np.ndarray):
    """words, with column i replaced by Python's ``fmt % x[i]`` padded with
    NUL bytes for each i of slow: as many words as the longest text needs,
    and at least as many as words has."""
    if slow.size:
        text = _text_fields([fmt % v for v in x[slow].tolist()], 8 * len(words))
        if len(text) > len(words):
            words = np.vstack([words, np.zeros((len(text) - len(words), x.size), np.uint64)])
        words[:, slow] = text
    return words


def _text_fields(texts: list, width: int = 8) -> np.ndarray:
    """Each of the byte strings as one field padded with NUL bytes, as (k,
    len(texts)) little-endian words: as many as the longest needs, and at
    least width bytes."""
    size = -(-max([width, *map(len, texts)]) // 8) * 8
    text = b"".join(t.ljust(size, b"\0") for t in texts)
    return np.frombuffer(text, "<u8").reshape(-1, size // 8).T


def write_keyvals(path, pairs) -> None:
    """One key=value line per pair, in order: floats as %.17g, anything else by
    ``str``, and the items of a list, tuple or array the same way, joined by commas."""
    with open(path, "w") as fh:
        for key, value in pairs:
            items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
            fields = ["%.17g" % v if isinstance(v, float) else str(v) for v in items]
            fh.write(f"{key}={','.join(fields)}\n")


_BIG = np.uint64(0x7676767676767676)  # added to a byte of at most 9, sets no top bit
_PAIRS = np.uint64(0x000000FF000000FF)
# word j times its multiplier has, in its top byte, 8j + i + 1 for the one
# byte i of the word that is 1, and 0 when all are 0
_PLACE = np.array([int.from_bytes(bytes(8 * j + 8 - i for i in range(8)), "little")
                   for j in range(3)], np.uint64)[:, None]


def _byte_rows(data: bytes, starts: np.ndarray, size: int) -> np.ndarray:
    """The size bytes of data from each offset of starts, as (n, size) uint8 rows."""
    view = np.ndarray((len(data) - size + 1,), np.dtype((np.void, size)), data, strides=(1,))
    return view[starts].view(np.uint8).reshape(-1, size)


def _decimals(data: bytes, ends: np.ndarray, lens: np.ndarray):
    """Read the cells ``data[ends - lens:ends]`` as decimals: (values, exact).

    values[i] is ``float``'s double of cell i where exact[i] is set, and means
    nothing elsewhere.  Every cell must end at byte 24 or later.
    """
    words = np.ascontiguousarray(_byte_rows(data, ends - _WIDTH, _WIDTH).view("<u8").T)
    # an empty cell has no sign, and may end the data
    neg = (lens > 0) & (np.frombuffer(data, np.uint8).take(ends - lens, mode="clip") == ord("-"))
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
    hi, err = _times_pow10(x, q)
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


def _plain_cells(data: bytes) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(width, starts, ends) of a plain CSV file: its number of columns, and
    cell k, row by row from the header, is ``data[starts[k]:ends[k]]``; None
    for any other file."""
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    size = buf.size - data.endswith(b"\n")  # a final newline ends the last line
    body = buf[:size]
    if b"," in data:
        ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
        last = np.append(body[ends] == ord("\n"), True)  # the last line ends too
        width = int(np.argmax(last)) + 1  # the header's commas, and its line end
        if last.size % width or not (last.reshape(-1, width)
                                     == (np.arange(width) == width - 1)).all():
            return None
    else:
        ends, width = np.flatnonzero(body == ord("\n")), 1
    ends = np.append(ends, size)
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    if b"\r" in data:
        # every CR ends the last cell of a row, before its newline, and is
        # left out of it; clipped, a cell that ends at offset 0 reads itself
        cr = buf.take(ends[width - 1::width] - 1, mode="clip") == ord("\r")
        if data.endswith(b"\r") or np.count_nonzero(cr) != np.count_nonzero(buf == ord("\r")):
            return None
        ends[width - 1::width] -= cr
    return width, starts, ends


def _read_bytes(path) -> bytes:
    """The bytes of the file at path, less one leading UTF-8 byte order mark."""
    with open(path, "rb") as fh:
        return fh.read().removeprefix(codecs.BOM_UTF8)


def _text_lines(path, data: bytes, newline=None):
    """data's lines as ``open`` reads them, lazily; a byte it cannot decode is a ParseError."""
    try:
        yield from io.TextIOWrapper(io.BytesIO(data), newline=newline)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text "
                         f"(byte {exc.object[exc.start]:#04x})") from exc


def _float(path, tok, where: str = "") -> float:
    """float(tok); a token it refuses is the ParseError "path: {where}bad value 'tok'"."""
    try:
        return float(tok)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {where}bad value {tok!r}") from exc


def _floats(path, tokens: list, lines=None) -> np.ndarray:
    """The tokens as floats in one call; the first float refuses is named, by lines[i] if given."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except (TypeError, ValueError):
        for i, tok in enumerate(tokens):
            _float(path, tok, "" if lines is None else f"line {lines[i]}: ")
        raise


def read_csv(path, header: str) -> np.ndarray:
    """Floats from the first field of each row, as a 1-D array.

    Lines are stripped and skipped when their first field is empty or is
    ``header``; later fields are ignored.  One leading UTF-8 byte order mark
    is dropped.  A plain file of one column, with no space or control byte
    but its line ends, is all first fields already: its cells are read by
    ``_decimal_cells``.  Any other file is read as text (``_text_lines``).
    """
    data = _read_bytes(path)
    width, starts, ends = _plain_cells(data) or (0, 0, 0)
    # the bytes of no cell, the line ends, are all the control and space bytes
    if (width != 1 or np.count_nonzero(np.frombuffer(data, np.uint8) < 33)
            != len(data) - (ends.sum() - starts.sum())):
        # no list kept per row: the garbage collector would rescan them all
        fields = [ln.strip().split(",", 1)[0] for ln in _text_lines(path, data)]
        return _floats(path, [f for f in fields if f and f != header])
    keep = ends > starts
    head = header.encode()
    same = np.flatnonzero(ends - starts == len(head)) if head else []
    if len(same):
        rows = _byte_rows(data, starts[same], len(head)).view(f"S{len(head)}")
        keep[same[rows[:, 0] == head]] = False
    starts, ends = starts[keep], ends[keep]
    return _decimal_cells(path, data, starts, ends)


def _decimal_cells(path, data: bytes, starts: np.ndarray, ends: np.ndarray,
                   lines=None) -> np.ndarray:
    """float() of each cell ``data[starts[i]:ends[i]]``, in file order: the decimal kernel
    reads them a chunk at a time, on the writer's pool when there is more
    than one, and ``float`` each cell the kernel does not certify, on the
    calling thread in file order, so the first it refuses is named, by
    lines[i] if given."""
    if ends.size and ends[0] < _WIDTH:  # the kernel reads the 24 bytes that end each cell
        data, starts, ends = bytes(_WIDTH) + data, starts + _WIDTH, ends + _WIDTH
    out = np.empty(ends.size)

    def read(start):
        part = slice(start, start + CHUNK)
        return part, *_decimals(data, ends[part], ends[part] - starts[part])

    def take(chunk):
        part, values, exact = chunk
        for i in np.flatnonzero(~exact).tolist():
            j = part.start + i
            values[i] = _float(path, data[starts[j]:ends[j]].decode(),
                               "" if lines is None else f"line {lines[j]}: ")
        out[part] = values

    _in_order(read, range(0, ends.size, CHUNK), take, ends.size > CHUNK)
    return out
