"""The one number format, for CSV files and key=value files.

Floats are written as ``%.17g``, which reads back to the same double, and
integers as ``%d``.  A CSV file is a header line, then one row per record.
A key=value file holds one ``key=value`` line per pair.

A CSV file is written CHUNK records at a time, and each chunk becomes one
``(m, W)`` matrix of bytes, one row per record, with no Python object per
field.  Each column is a block of fixed-width fields: 24 bytes (three
little-endian words) for ``%.17g``, whose longest output is 24 bytes, and
eight digits per word for ``%d``, as many words as the chunk's largest |v|
needs, after a sign word if any v < 0.  A ``,`` byte follows each block
and a ``\n`` the last.  A field's unused bytes are NUL, and they may sit
anywhere in it: no byte of a number, a separator or a newline is ever 0,
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

The digits become bytes eight at a time in a word, by multiply-shift
divisions on its lanes (the reverse of the reader's SWAR step below).  The
field holds the sign, the zeros of a number below 1 and the 17 digits, in
that order.  A byte smear over the last 16 digits keeps each byte that is,
or is followed by, a digit other than 0, so the trailing zeros of the
fraction become NUL.  One masked byte shift then moves the integer part one
byte left, and the point takes the byte it frees when a digit follows it.
An integer column takes the same words, with each leading zero a NUL.

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

In ``read_csv`` a plain file, ASCII with no comma and no control or space
byte but its line ends (LF, or CRLF), is all first fields already.  Its
lines, less the empty ones and the header, are read a chunk at a time, on
the writer's pool, by a decimal kernel after W. D. Clinger ("How to read
floating point numbers accurately", PLDI 1990); ``_decimal_cells`` runs
that loop, for ``--input`` samples and for the value cells of the plain
files that ``pipeline.load_csv`` reads by their byte offsets.  The kernel
takes the 24 bytes that end each cell (a line less its line end, or the
bytes before a comma) as three 8-byte words, and reads a cell that is an
optional ``-`` and then digits with at most one point:

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
where ``load_csv`` gives the lines.  Any other file, one with a lone
carriage return included, is read as text, with each line stripped and cut
at its first comma.
"""
from __future__ import annotations

import codecs
import io
import os
from collections import deque
from functools import partial

import numpy as np

from .errors import ParseError

__all__ = ["CHUNK", "write_records", "write_csv", "write_keyvals", "read_csv"]

# records formatted, or lines read, per call; each worker thread's malloc
# arena keeps about 280 bytes a record after its first chunk
CHUNK = 1 << 14


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
    n = cols[0].shape[0]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        _in_order(partial(_rows, cols), range(0, n, CHUNK), fh.write, n > CHUNK)


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
    on the calling thread.  parts may be any iterable; the next part is
    drawn from it only when it can be submitted, and an error that drawing
    it raises is raised once every part before it has been taken.  So the
    error raised, unchanged, is the first in order of take, work and the
    iteration, as a plain loop over the parts would raise it.  The pool is
    joined before this returns or raises.
    """
    workers = _workers() if pooled else 1
    if workers == 1:
        for p in parts:
            take(work(p))
        return
    from concurrent.futures import ThreadPoolExecutor  # about 4 ms to import

    pool = ThreadPoolExecutor(workers)
    pending = deque()
    failed = None
    try:
        parts = iter(parts)
        while True:
            try:
                p = next(parts)
            except StopIteration:
                break
            except Exception as exc:  # raised once the parts before it are taken
                failed = exc
                break
            if len(pending) == 2 * workers:
                take(pending.popleft().result())
            pending.append(pool.submit(work, p))
        while pending:
            take(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)
    if failed is not None:
        raise failed


def _rows(cols, start: int) -> np.ndarray:
    """Records start to start + CHUNK of cols as CSV lines, in bytes."""
    fields = [_int_fields(part) if np.issubdtype(part.dtype, np.integer) else
              _float_fields(part) for part in (c[start:start + CHUNK] for c in cols)]
    rows = np.empty((fields[0].shape[1], sum(8 * f.shape[0] + 1 for f in fields)), np.uint8)
    at = 0
    for f in fields:
        rows[:, at:at + 8 * f.shape[0]].view("<u8")[...] = f.T
        at += 8 * f.shape[0] + 1
        rows[:, at - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[rows != 0]


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

    slow = np.flatnonzero(~fixed)
    if slow.size:
        text = b"".join(b"%-24.17g" % v for v in x[slow].tolist()).replace(b" ", b"\0")
        words[:, slow] = np.frombuffer(text, "<u8").reshape(-1, 3).T
    return words


def _int_fields(x: np.ndarray) -> np.ndarray:
    """``b"%d" % v`` for each v of x, padded with NUL bytes, as (k, x.size)
    little-endian words: eight digits per word, as few words as the largest
    |v| needs, after a word for the sign if any v < 0."""
    u = x.astype(np.uint64)
    neg = x < 0
    np.negative(u, out=u, where=neg)  # |v| of the least int64 too
    top = int(u.max(initial=0))
    words = np.empty((1 + (top >= 10**8) + (top >= 10**16), x.size), np.uint64)
    for j in range(len(words) - 1, 0, -1):
        q = u // 10**8
        words[j] = u - q * 10**8
        u = q
    words[0] = u
    words = _ascii8(words)
    seen = words | (words << 8)  # a byte is not 0 when it or one before it is not 0
    seen |= seen << 16
    seen |= seen << 32
    for j in range(1, len(words)):
        seen[j] |= (seen[j - 1] >> 56) * _ONES
    seen[-1] |= np.uint64(1 << 56)  # the last digit, 0 included
    words = (words + _ZEROS) & _nonzero_bytes(seen)
    if neg.any():
        words = np.vstack([neg.view(np.uint8) * np.uint64(ord("-") << 56), words])
    return words


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


def _plain_lines(data: bytes, header: str):
    """The end and length of each line of data that is neither empty nor
    ``header``, or None unless data is plain: ASCII with no comma and no
    control or space byte but its line ends, LF or CRLF, which a line's end
    and length leave out."""
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    crs = np.count_nonzero(buf.view(np.int8) < 33) - ends.size  # each must end a CRLF
    # the lines that end in CRLF; clipped, a newline at offset 0 reads itself
    crlf = np.flatnonzero(buf.take(ends - 1, mode="clip") == ord("\r")) if crs else []
    if len(crlf) != crs or b"," in data:
        return None
    ends = np.append(ends, len(data))  # the last line, empty if data ends in a newline
    lens = np.diff(ends, prepend=-1) - 1
    ends[crlf] -= 1
    lens[crlf] -= 1
    keep = lens > 0
    head = header.encode()
    same = np.flatnonzero(lens == len(head)) if head else []
    if len(same):
        rows = _byte_rows(data, ends[same] - len(head), len(head)).view(f"S{len(head)}")
        keep[same[rows[:, 0] == head]] = False
    return ends[keep], lens[keep]


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
    is dropped.  A plain file (``_plain_lines``), LF or CRLF, is all first
    fields already: its lines are read by the decimal kernel a chunk at a
    time, on the writer's pool, and any line the kernel does not certify by
    ``float``.  Any other file is read as text (``_text_lines``).
    """
    # newlines before the file: each line then ends at byte 24 or later
    data = b"\n" * _WIDTH + _read_bytes(path)
    lines = _plain_lines(data, header)
    if lines is None:
        # no list kept per row: the garbage collector would rescan them all
        fields = [ln.strip().split(",", 1)[0] for ln in _text_lines(path, data[_WIDTH:])]
        return _floats(path, [f for f in fields if f and f != header])
    return _decimal_cells(path, data, *lines)


def _decimal_cells(path, data: bytes, ends: np.ndarray, lens: np.ndarray,
                   lines=None) -> np.ndarray:
    """float() of each cell ``data[ends - lens:ends]``, every cell ending at
    byte 24 or later: the decimal kernel reads them a chunk at a time, on the
    writer's pool when there is more than one, and ``float`` each cell the
    kernel does not certify, on the calling thread in file order, so the
    first it refuses is named, by lines[i] if given."""
    out = np.empty(ends.size)

    def read(start):
        part = slice(start, start + CHUNK)
        return part, *_decimals(data, ends[part], lens[part])

    def take(chunk):
        part, values, exact = chunk
        for i in np.flatnonzero(~exact).tolist():
            j = part.start + i
            values[i] = _float(path, data[ends[j] - lens[j]:ends[j]].decode(),
                               "" if lines is None else f"line {lines[j]}: ")
        out[part] = values

    _in_order(read, range(0, ends.size, CHUNK), take, ends.size > CHUNK)
    return out
