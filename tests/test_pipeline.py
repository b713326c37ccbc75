import csv
import math
import re
import time
import warnings
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_toeplitz
from scipy.signal import lfilter

import tailscope as ts
from tailscope import pipeline, tabular
from tailscope.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)
from tailscope.tabular import CHUNK


def write_series_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def ar_series(phi, n, rng, burn=500):
    eps = rng.standard_normal(n + burn)
    return lfilter([1.0], np.concatenate([[1.0], -np.asarray(phi)]), eps)[burn:]


def daily_series(start, values):
    d0 = np.datetime64(start, "D")
    dates = d0 + np.arange(len(values))
    return ts.TimeSeries(dates, np.asarray(values, dtype=float))


def pooled_day(date):
    m = int(str(date)[5:7])
    d = int(str(date)[8:10])
    return (2, 28) if (m, d) == (2, 29) else (m, d)


# ---------------------------------------------------------------------------
# reference implementations: the per-day loops the array code replaced,
# kept verbatim; the array code must match them bit for bit


def _pool_day(month, day):
    return (2, 28) if (month, day) == (2, 29) else (month, day)


def old_deseasonalize(ts_):
    months = ts_.dates.astype("datetime64[M]").astype(int) % 12 + 1
    days = (ts_.dates - ts_.dates.astype("datetime64[M]")).astype(int) + 1
    keys = [_pool_day(m, d) for m, d in zip(months, days)]
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(ts_.values[i])
    scale = {}
    for key in sorted(groups):
        obs = np.asarray(groups[key])
        if obs.size < 2:
            raise DegenerateDataError(
                f"calendar day {key[0]:02d}-{key[1]:02d} has fewer than two observations"
            )
        s = float(np.std(obs, ddof=1))
        if s == 0.0:
            raise DegenerateDataError(
                f"calendar day {key[0]:02d}-{key[1]:02d} has zero spread"
            )
        scale[key] = s
    scaled = ts_.values / np.asarray([scale[k] for k in keys])
    return ts.TimeSeries(ts_.dates, scaled), ts.SeasonalProfile(scale)


def old_composite_dates(years, start_year):
    start = datetime(start_year, 1, 1).date()
    end = datetime(start_year + years, 1, 1).date()
    n_days = (end - start).days
    dates = np.asarray(
        [start + timedelta(days=i) for i in range(n_days)], dtype="datetime64[D]"
    )
    return dates


def old_load_csv(path, date_col="date", value_col="value", date_format="%Y-%m-%d"):
    dates: list = []
    values: list = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or date_col not in reader.fieldnames:
            raise ParseError(f"{path}: missing column {date_col!r}")
        if value_col not in reader.fieldnames:
            raise ParseError(f"{path}: missing column {value_col!r}")
        for row in reader:
            lineno = reader.line_num
            try:
                d = datetime.strptime(row[date_col].strip(), date_format).date()
            except (ValueError, AttributeError) as exc:
                raise ParseError(f"{path}: line {lineno}: bad date {row[date_col]!r}") from exc
            try:
                v = float(row[value_col])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: line {lineno}: bad value {row[value_col]!r}") from exc
            dates.append(d)
            values.append(v)
    if len(values) < 2:
        raise InsufficientDataError("need at least two rows")
    seen: set = set()
    for d in dates:
        if d in seen:
            raise ParseError(f"{path}: duplicate date {d.isoformat()}")
        seen.add(d)
    order = np.argsort(np.asarray(dates))
    dates_arr = np.asarray(dates, dtype="datetime64[D]")[order]
    values_arr = np.asarray(values, dtype=float)[order]
    if not np.all(np.isfinite(values_arr)):
        raise ParseError(f"{path}: non-finite value in series")
    return ts.TimeSeries(dates_arr, values_arr)


def outcome_and_reader(monkeypatch, path):
    """The outcome of ``ts.load_csv`` on path, then "csv.reader" if it called
    ``csv.reader``."""
    calls = []
    real = pipeline.csv.reader

    def reader(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline.csv, "reader", reader)
    try:
        return outcome(ts.load_csv, path) + ("csv.reader",) * bool(calls)
    finally:
        monkeypatch.setattr(pipeline.csv, "reader", real)


def names(path, message):
    """The pattern of a ParseError that leads with path, then says message."""
    return f"^{re.escape(str(path))}: {re.escape(message)}$"


def outcome(load, path):
    """What ``load`` does with ``path``: its arrays, or its exception."""
    try:
        series = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return series.dates.dtype, series.dates.tolist(), series.values.tolist()


# cells numpy's datetime parser reads but strptime("%Y-%m-%d") refuses, or
# reads differently, next to cells both refuse
ODD_DATES = ["2001-1-1", "2001-01-1", "0000-01-01", "-001-01-01", "10000-01-01", "NaT",
             "nat", "today", "", "2001", "2001-01", "2001-01-01T00", "2001-02-30",
             "2001-01-01\x00", "99999999999999999999-01-01", "2001-01-01T00Z",
             "2001-01-01T00+01:00"]
broad_dates = st.dates(date(1, 1, 1), date(9999, 12, 31))
narrow_dates = st.dates(date(2000, 2, 25), date(2000, 3, 2))  # dates repeat
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-5, 5).map(str)
)
pads = st.sampled_from(["", " ", "\t", "  "])


# header layouts: extra columns, repeated names (the last column of a name is
# the one read, the earlier ones hold decoys) and missing columns
HEADERS = ["date,value", "value,date", "date,value,note", "value,date,value",
           "date,date,value", "date,value,date,value", "date", "value", "x,y", ""]
DECOYS = {"date": "1999-01-01", "value": "decoy"}


@st.composite
def csv_file(draw):
    """A header, then valid ISO rows with up to three spoilt: an odd date, a
    padded date, a bad or non-finite value, a row cut short, extra fields,
    or a blank line before it."""
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    where = {name: len(names) - 1 - names[::-1].index(name) for name in names}
    n = draw(st.integers(0, 8))
    days = draw(st.lists(draw(st.sampled_from([broad_dates, narrow_dates])),
                         min_size=n, max_size=n))
    cells = []
    for d in days:
        good = {"date": d.isoformat(), "value": draw(finite_values)}
        cells.append([good.get(name, "z") if where[name] == j else DECOYS.get(name, "z")
                      for j, name in enumerate(names)])
    blank = set()
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i = draw(st.integers(0, n - 1))
        row = cells[i]
        kind = draw(st.sampled_from(["odd", "pad", "value", "short", "extra", "blank"]))
        j = where.get("value" if kind == "value" else "date", len(row))
        if kind == "odd" and j < len(row):
            row[j] = draw(st.sampled_from(ODD_DATES))
        elif kind == "pad" and j < len(row):
            row[j] = draw(pads) + row[j] + draw(pads)
        elif kind == "value" and j < len(row):
            row[j] = draw(st.sampled_from(["abc", "", "nan", "inf", " 1.5 ", "1e400"]))
        elif kind == "short":
            del row[draw(st.integers(0, max(len(row) - 1, 0))):]
        elif kind == "extra":
            row += draw(st.lists(st.sampled_from(["", "x", "2001-01-01", "7"]), min_size=1,
                                 max_size=2))
        elif kind == "blank":
            blank.add(i)
    rows = []
    for i, row in enumerate(cells):
        rows += [""] * (i in blank) + [",".join(row)]
    return header, rows


def _daily_text(n, cells=None):
    """A plain daily file of n rows from 1900-01-01, each value a random
    double's repr, but for the cells given by row."""
    days = np.arange(np.datetime64("1900-01-01"), np.datetime64("1900-01-01") + n).astype(str)
    values = [repr(v) for v in np.random.default_rng(n).standard_normal(n).tolist()]
    for i, cell in (cells or {}).items():
        values[i] = cell
    return "date,value\n" + "".join(f"{d},{v}\n" for d, v in zip(days.tolist(), values))


PLAIN_ODD_DATES = [d for d in ODD_DATES if d.isascii() and not set(d) & set(',"\r\n\0')]
decimal_cells = st.from_regex(r"-?([0-9]{1,20}\.?[0-9]{0,24}|\.[0-9]{1,24})", fullmatch=True)
odd_values = st.sampled_from(["+1.5", "1e3", " 2.5", "-0.0", "nan", "inf", "x", "", "1_0",
                              "0." + "1" * 30, "-" + "9" * 25])


@st.composite
def plain_daily_file(draw):
    """A plain file: a header from HEADERS with both columns, then up to 40
    rows of ISO dates and decimals, with up to two odd values and one odd or
    padded date, and a final newline or not."""
    header = draw(st.sampled_from([h for h in HEADERS if {"date", "value"} <= set(h.split(","))]))
    names = header.split(",")
    n = draw(st.integers(0, 40))
    first = draw(st.integers(1, date(9999, 12, 31).toordinal() - n))
    cells = [{"date": date.fromordinal(first + i).isoformat(),
              "value": draw(st.one_of(finite_values, decimal_cells))} for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        cells[draw(st.integers(0, n - 1))]["value"] = draw(odd_values)
    if n and draw(st.booleans()):
        row = cells[draw(st.integers(0, n - 1))]
        row["date"] = draw(st.one_of(st.sampled_from(PLAIN_ODD_DATES),
                                     pads.map(lambda pad: pad + row["date"])))
    rows = [",".join(row.get(name, "z") for name in names) for row in cells]
    return "\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))


def old_iso_dates(raw):
    """The datetime64 cast that read ISO dates before the digit reader."""
    try:
        text = [d.strip() for d in raw]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dates = np.array(text, dtype=str).astype("datetime64[D]")
    except (ValueError, AttributeError, Warning):
        return None
    in_range = (dates >= np.datetime64("0001-01-01")) & (dates <= np.datetime64("9999-12-31"))
    if not in_range.all() or dates.astype(str).tolist() != text:
        return None
    return dates


@st.composite
def iso_like_cells(draw):
    """A canonical date, padded, with up to two characters replaced, inserted
    or deleted; or an odd cell."""
    if draw(st.booleans()):
        return draw(st.sampled_from(ODD_DATES))
    cell = draw(st.one_of(broad_dates, narrow_dates, st.dates(date(1900, 2, 27), date(1900, 3, 1))))
    cell = list(cell.isoformat())
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(cell)))
        c = draw(st.sampled_from("0123456789-/ T:\u0661\u00a0"))
        kind = draw(st.sampled_from(["set", "insert", "delete"]))
        if kind == "insert" or i == len(cell):
            cell.insert(i, c)
        elif kind == "set":
            cell[i] = c
        else:
            del cell[i]
    return draw(pads) + "".join(cell) + draw(pads)


class TestLoadCsv:
    @settings(max_examples=400)
    @given(file=csv_file())
    def test_matches_per_row_parser(self, file, tmp_path_factory):
        # equal arrays, or the same exception with the same message
        header, rows = file
        p = write_series_csv(tmp_path_factory.mktemp("rows") / "s.csv", rows, header)
        assert outcome(ts.load_csv, p) == outcome(old_load_csv, p)

    def test_bad_value_before_bad_date_is_reported_first(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-01,1", "2001-01-02,oops", "2001-1-3,3", "2001-01-04,4"]
        )
        with pytest.raises(ParseError, match=names(p, "line 3: bad value 'oops'")):
            ts.load_csv(p)
        assert outcome(ts.load_csv, p) == outcome(old_load_csv, p)

    def test_bad_date_before_bad_value_is_reported_first(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-01,1", " 0000-01-02,2", "2001-01-03,x"]
        )
        with pytest.raises(ParseError, match=names(p, "line 3: bad date ' 0000-01-02'")):
            ts.load_csv(p)

    def test_bad_value_names_its_file_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("date,value\n2001-01-01,1.0\n\n\n2001-01-02,abc\n")
        with pytest.raises(ParseError, match=names(p, "line 5: bad value 'abc'")):
            ts.load_csv(p)

    def test_bad_date_names_its_file_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("date,value\n\n01/01/2001,1.0\n\n02/13/2001,2.0\n")
        with pytest.raises(ParseError, match=names(p, "line 5: bad date '02/13/2001'")):
            ts.load_csv(p, date_format="%d/%m/%Y")
        p.write_text("date,value\n\n01/01/2001,1.0\n\n02/01/2001,x\n")
        with pytest.raises(ParseError, match=names(p, "line 5: bad value 'x'")):
            ts.load_csv(p, date_format="%d/%m/%Y")

    def test_timezone_suffix_is_a_bad_date_without_a_warning(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1", "2001-01-02T00Z,2"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match=names(p, "line 3: bad date '2001-01-02T00Z'")):
                ts.load_csv(p)
        assert not caught, [str(w.message) for w in caught]

    def test_iso_column_is_cast_in_one_call(self):
        # the fast path takes canonical ISO dates and refuses every odd cell
        got = pipeline._iso_dates(["2001-01-01", " 0001-01-01\t", "9999-12-31"])
        assert got.dtype == np.dtype("datetime64[D]")
        assert got.astype(str).tolist() == ["2001-01-01", "0001-01-01", "9999-12-31"]
        for cell in ODD_DATES + [None]:
            assert pipeline._iso_dates(["2001-01-01", cell]) is None, repr(cell)

    @pytest.mark.parametrize("text", [
        "date,value\r\n2001-01-01,1\r\n2001-01-02,2\r\n",  # CRLF line ends
        'date,value\n2001-01-01,"1,5"\n2001-01-02,2\n',  # a quoted field
        'date,value\n"2001-01-01",1\n2001-01-02,2\n',
        "date,value\n2001-01-01,1\x00\n2001-01-02,2\n",  # a NUL byte
        "date,value\n2001-01-01,\u00a01\n2001-01-02,2\n",  # a non-ASCII cell
        "date,value\n2001-01-01,1\n2001-01-02,2",  # no final newline
        "date,value\n2001-01-01,1\n2001-01-02,2\n\n",  # a trailing blank line
        "\ndate,value\n2001-01-01,1\n2001-01-02,2\n",  # a leading blank line
        "date,value\n",  # header only
        "date,value",
        "",
        "\n",
        "d,v\n1,2,3\n4\n",  # ragged rows whose comma totals match
        "date,value\n2001-01-01,1,3\n2001-01-02\n",
        "date\n\n2001-01-01\n",  # one column: a blank line is an empty cell
        "\ndate\n2001-01-01\n",
        "value,date\n1,2001-01-01\n2,2001-01-02\n",
        # plain files whose cells the byte path reads, or hands to csv.reader
        "date,value\n2001-01-01,1.0000000000000000000000001\n2001-01-02,-0.000000000000000000001\n",
        "date,value\n2001-01-01,+1.5\n2001-01-02,1e3\n2001-01-03, 2.5\n2001-01-04,-0.0\n",
        "date,value\n2001-01-01,1\n2001-01-02,nan\n",
        "date,value\n2001-01-01,inf\n2001-01-02,2\n",
        "date,value\n2001-01-01,1\n 2001-01-02,2\n",  # a date padded with a space
        "date,value\n2001-01-01,1\n2001-01-02 ,2\n",
        "date,value\n2001-01-01,1\n2001-01-021,2\n",  # an 11-byte date
        "date,value\n2001-01-01,1\n2001-01-02,x\n2001-01-32,3\n",
        "date,value,date\n1999-01-01,1,2001-01-01\n1999-01-01,2,2001-01-02",  # repeated name
        # an empty value cell, last in a file with no final newline, or first
        "date,value\n2001-01-01,1\n2001-01-02,",
        "value,date\n1,2001-01-01\n,2001-01-02\n",
        "d,v\n",  # a header shorter than a date, and no rows
        "d,v",
        *(pytest.param(_daily_text(n), id=f"{n}-rows") for n in
          (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1)),
        # the first bad value named in the second and in the third chunk, with
        # values only float() reads before it
        pytest.param(_daily_text(2 * CHUNK + 5, {3: "+1.5", CHUNK + 7: "x", 2 * CHUNK + 2: "y"}),
                     id="bad-in-chunk-2"),
        pytest.param(_daily_text(2 * CHUNK + 5, {CHUNK + 7: "1e3", 2 * CHUNK + 2: "y"}),
                     id="bad-in-chunk-3"),
    ])
    def test_plain_layout_guards(self, text, tmp_path):
        # each file is either plain or read by csv.reader; both read it as
        # the row-by-row reference does
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        for cols in ({}, {"date_col": "d", "value_col": "v"}, {"value_col": "date"}):
            assert (outcome(lambda q: ts.load_csv(q, **cols), p)
                    == outcome(lambda q: old_load_csv(q, **cols), p)), cols

    @settings(max_examples=200)
    @given(text=plain_daily_file(), chunk=st.sampled_from([1, 2, 3, 7, CHUNK]))
    def test_plain_files_match_per_row_parser_at_any_chunk_size(self, text, chunk,
                                                                 tmp_path_factory):
        p = tmp_path_factory.mktemp("plain") / "s.csv"
        p.write_bytes(text.encode())
        assert tabular._plain_cells(p.read_bytes()) is not None
        with mock.patch.object(tabular, "CHUNK", chunk):
            assert outcome(ts.load_csv, p) == outcome(old_load_csv, p)

    def test_bad_header_is_reported_before_a_later_undecodable_byte(self, tmp_path):
        # the text is decoded as csv.reader asks for it, a block at a time
        p = tmp_path / "s.csv"
        p.write_bytes(b'"day",value\n' + b"2001-01-01,1.5\n" * 1000 + b"caf\xe9\n")
        with pytest.raises(ParseError, match=names(p, "missing column 'date'")):
            ts.load_csv(p)
        with pytest.raises(ParseError, match=names(p, "not utf-8 text (byte 0xe9)")):
            ts.load_csv(p, date_col="day")

    def test_cell_past_the_csv_field_limit_is_read_by_csv_reader(self, tmp_path, monkeypatch):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1", "2001-01-02," + "2" * 200_000])
        # the file is plain, but csv.reader refuses the long cell
        assert tabular._plain_cells(p.read_bytes()) is not None
        want = outcome(old_load_csv, p)
        assert outcome_and_reader(monkeypatch, p) == want + ("csv.reader",)

    def test_crlf_file_does_not_reach_csv_reader(self, tmp_path, monkeypatch):
        # as spreadsheet programs write a daily series
        p = tmp_path / "s.csv"
        p.write_bytes(_daily_text(3 * CHUNK).replace("\n", "\r\n").encode())
        lf = tmp_path / "lf.csv"
        lf.write_text(_daily_text(3 * CHUNK))
        want = ts.load_csv(lf)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a CRLF plain file")

        monkeypatch.setattr(pipeline.csv, "reader", refuse)
        got = ts.load_csv(p)
        assert got.dates.tolist() == want.dates.tolist()
        assert got.values.view(np.uint64).tolist() == want.values.view(np.uint64).tolist()

    @pytest.mark.parametrize("text", [
        "date,value\n2001-01-01,1\r2001-01-02,2\n2001-01-03,3\n",  # a lone CR
        "date,value\r\n2001-01-01,1\r\n2001-01-02,2\r",  # a final CR
        "date,value\n2001-01-01,1\r,\n2001-01-02,2\n",  # a CR before a comma
        'date,value\n2001-01-01,"1"\n2001-01-02,2\n',  # a quote
        "date,value\n2001-01-01,1\x00\n2001-01-02,2\n",  # a NUL byte
    ], ids=["lone-cr", "final-cr", "cr-comma", "quote", "nul"])
    def test_off_the_byte_path(self, text, tmp_path, monkeypatch):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        assert tabular._plain_cells(text.encode()) is None
        want = outcome(old_load_csv, p)
        assert outcome_and_reader(monkeypatch, p) == want + ("csv.reader",)

    @settings(max_examples=200)
    @given(text=st.one_of(plain_daily_file(),
                          csv_file().map(lambda f: f[0] + "\n" + "\n".join(f[1]) + "\n")))
    def test_crlf_reads_as_lf(self, text, tmp_path_factory):
        # the same dates and value bits, or the same error, with either line end
        p = tmp_path_factory.mktemp("crlf") / "s.csv"
        got = []
        for data in (text, text.replace("\n", "\r\n")):
            p.write_bytes(data.encode())
            try:
                series = ts.load_csv(p)
            except Exception as exc:  # noqa: BLE001 - the exception is the outcome
                got.append((type(exc), str(exc)))
                continue
            got.append((series.dates.tolist(), series.values.view(np.uint64).tolist()))
        assert got[0] == got[1]

    def test_plain_file_does_not_reach_csv_reader(self, tmp_path, monkeypatch):
        start = np.datetime64("1990-01-01")
        rows = [f"{start + i},{i * 0.25!r}" for i in range(1000)]
        p = write_series_csv(tmp_path / "s.csv", rows)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader or a string path called on a plain file")

        # nor are its cells made strings: the bytes give the dates and values
        for module, name in ((pipeline.csv, "reader"), (pipeline, "_iso_dates"),
                             (pipeline, "_floats")):
            monkeypatch.setattr(module, name, refuse)
        series = ts.load_csv(p)
        assert series.n == 1000
        assert series.values.tolist() == [i * 0.25 for i in range(1000)]
        assert series.dates[-1] == start + 999

    def test_iso_dates_match_strptime_on_every_day_of_leap_and_common_years(self):
        days = [date(y, 1, 1) + timedelta(i) for y in (1, 1600, 1800, 1900, 2000, 2023, 2024,
                                                       2100, 2400, 9999)
                for i in range(365)]
        assert pipeline._iso_dates([d.isoformat() for d in days]).tolist() == days
        for cell in ["2001-02-29", "2002-02-29", "1900-02-29", "1800-02-29", "2100-02-29",
                     "0100-02-29", "2000-02-30", "2001-04-31", "2001-12-32",
                     "2001-00-10", "2001-13-01", "2001-01-00", "2001-01-0a", "2001/01/01",
                     "2001-01-01 01", "2001-01-\u0661\u0661", "\u0662001-01-01"]:
            assert pipeline._iso_dates(["2001-01-01", cell]) is None, cell

    @settings(max_examples=300)
    @given(cells=st.lists(iso_like_cells(), min_size=1, max_size=4))
    def test_iso_dates_accept_what_the_datetime64_cast_read_back(self, cells):
        got = pipeline._iso_dates(cells)
        old = old_iso_dates(cells)
        assert (got is None) == (old is None)
        if got is not None:
            assert got.dtype == old.dtype and got.tolist() == old.tolist()

    def test_round_trip(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-01,1.5", "2001-01-02,2.5", "2001-01-04,-3.0"]
        )
        series = ts.load_csv(p)
        assert series.n == 3
        np.testing.assert_array_equal(series.values, [1.5, 2.5, -3.0])
        assert str(series.dates[0]) == "2001-01-01"
        assert str(series.dates[2]) == "2001-01-04"

    def test_shuffled_rows_come_back_sorted(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv", ["2001-01-03,3", "2001-01-01,1", "2001-01-02,2"]
        )
        series = ts.load_csv(p)
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_duplicate_date(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1", "2001-01-01,2"])
        with pytest.raises(ParseError, match="duplicate"):
            ts.load_csv(p)

    def test_duplicate_names_first_repeat_in_file_order(self, tmp_path):
        rows = ["2001-01-03,1", "2001-01-05,2", "2001-01-04,3", "2001-01-05,4",
                "2001-01-03,5"]
        p = write_series_csv(tmp_path / "s.csv", rows)
        with pytest.raises(ParseError, match="duplicate date 2001-01-05$"):
            ts.load_csv(p)

    def test_duplicate_rejection_no_slower_than_load(self, tmp_path):
        start = np.datetime64("1900-01-01")
        days = np.arange(start, start + 50_000)
        rows = [f"{d},{i % 7}" for i, d in enumerate(days)]
        clean = write_series_csv(tmp_path / "clean.csv", rows)
        rows[-2] = f"{days[-100]},0"
        dup = write_series_csv(tmp_path / "dup.csv", rows)

        def best_of(fn, reps=3):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        def reject():
            with pytest.raises(ParseError, match=f"duplicate date {days[-100]}"):
                ts.load_csv(dup)

        t_load = best_of(lambda: ts.load_csv(clean))
        t_reject = best_of(reject)
        assert t_reject <= 3 * t_load, f"reject {t_reject:.3f}s vs load {t_load:.3f}s"

    def test_bad_date(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-13-01,1", "2001-01-02,2"])
        with pytest.raises(ParseError, match="bad date"):
            ts.load_csv(p)

    def test_bad_value(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,abc", "2001-01-02,2"])
        with pytest.raises(ParseError, match="bad value"):
            ts.load_csv(p)

    def test_non_finite_value(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,nan", "2001-01-02,2"])
        with pytest.raises(ParseError, match="non-finite"):
            ts.load_csv(p)

    def test_missing_columns(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["1.0", "2.0"], header="value")
        with pytest.raises(ParseError, match="date"):
            ts.load_csv(p)
        p2 = write_series_csv(tmp_path / "t.csv", ["2001-01-01"], header="date")
        with pytest.raises(ParseError, match="value"):
            ts.load_csv(p2)

    def test_too_few_rows(self, tmp_path):
        p = write_series_csv(tmp_path / "s.csv", ["2001-01-01,1"])
        with pytest.raises(InsufficientDataError):
            ts.load_csv(p)

    def test_custom_columns_and_format(self, tmp_path):
        p = write_series_csv(
            tmp_path / "s.csv",
            ["02/01/2001,4.0", "01/01/2001,3.0"],
            header="day,flow",
        )
        series = ts.load_csv(p, date_col="day", value_col="flow", date_format="%d/%m/%Y")
        np.testing.assert_array_equal(series.values, [3.0, 4.0])


class TestDeseasonalize:
    def test_unit_std_input_unchanged(self):
        # two non-leap years; each calendar day's pair differs by sqrt(2),
        # so every per-day sample std is exactly 1
        rng = np.random.default_rng(0)
        base = rng.normal(size=365)
        values = np.concatenate([base, base + np.sqrt(2.0)])
        series = daily_series("2001-01-01", values)
        scaled, profile = ts.deseasonalize(series)
        np.testing.assert_allclose(scaled.values, values, rtol=1e-12)
        assert profile.lookup(7, 15) == pytest.approx(1.0)

    def test_doubling_one_day_is_invariant(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=730) + 5.0
        series = daily_series("2001-01-01", values)
        before, _ = ts.deseasonalize(series)
        doubled = values.copy()
        march1 = [i for i, d in enumerate(series.dates) if str(d)[5:] == "03-01"]
        doubled[march1] *= 2.0
        after, _ = ts.deseasonalize(daily_series("2001-01-01", doubled))
        np.testing.assert_allclose(after.values, before.values, rtol=1e-12)

    def test_output_per_day_std_is_one(self):
        # four years including a leap day; recompute pooled per-day stds
        rng = np.random.default_rng(2)
        n = (np.datetime64("2005-01-01") - np.datetime64("2001-01-01")).astype(int)
        series = daily_series("2001-01-01", rng.gamma(2.0, size=n) * rng.uniform(0.5, 3.0))
        scaled, _ = ts.deseasonalize(series)
        groups = {}
        for d, v in zip(scaled.dates, scaled.values):
            groups.setdefault(pooled_day(d), []).append(v)
        for key, obs in groups.items():
            assert np.std(obs, ddof=1) == pytest.approx(1.0, abs=1e-12), key

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        series = daily_series("2001-01-01", rng.lognormal(size=1095))
        once, _ = ts.deseasonalize(series)
        twice, profile = ts.deseasonalize(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=1e-10)
        for s in profile.scale.values():
            assert s == pytest.approx(1.0, rel=1e-12)

    def test_feb29_pooled_with_feb28(self):
        rng = np.random.default_rng(4)
        n = (np.datetime64("2005-01-01") - np.datetime64("2003-01-01")).astype(int)
        series = daily_series("2003-01-01", rng.normal(size=n))
        _, profile = ts.deseasonalize(series)
        assert profile.lookup(2, 29) == profile.lookup(2, 28)
        assert (2, 29) not in profile.scale

    def test_single_observation_day(self):
        series = daily_series("2001-01-01", [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError, match="fewer than two"):
            ts.deseasonalize(series)

    def test_zero_spread_day(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=730)
        values[0] = values[365] = 7.0  # both Jan 1 observations equal
        with pytest.raises(DegenerateDataError, match="zero spread"):
            ts.deseasonalize(daily_series("2001-01-01", values))


class TestYuleWalker:
    def test_matches_direct_toeplitz_solve(self):
        rng = np.random.default_rng(6)
        x = ar_series([0.6, -0.2, 0.1], 5000, rng)
        n = x.size
        xc = x - x.mean()
        r = np.array([xc[: n - h] @ xc[h:] / n for h in range(41)])
        for p in (1, 2, 5, 17, 40):
            direct = solve_toeplitz(r[:p], r[1 : p + 1])
            fit = ts.yule_walker(x, p)
            np.testing.assert_allclose(fit.coefficients, direct, atol=1e-8)

    def test_ar1_recovery(self):
        x = ar_series([0.5], 100_000, np.random.default_rng(7))
        fit = ts.yule_walker(x, 1)
        assert fit.coefficients[0] == pytest.approx(0.5, abs=0.02)
        assert fit.noise_variance == pytest.approx(1.0, abs=0.05)

    def test_ar2_recovery(self):
        x = ar_series([0.5, -0.3], 100_000, np.random.default_rng(8))
        fit = ts.yule_walker(x, 2)
        np.testing.assert_allclose(fit.coefficients, [0.5, -0.3], atol=0.05)
        assert fit.order == 2
        assert fit.mean == pytest.approx(x.mean())

    def test_white_noise_phi1_near_zero(self):
        n = 20_000
        x = np.random.default_rng(9).standard_normal(n)
        fit = ts.yule_walker(x, 1)
        assert abs(fit.coefficients[0]) < 3.0 / np.sqrt(n)

    @pytest.mark.parametrize("j", [520, -520, -560])
    def test_fit_is_the_same_at_any_power_of_two_scale(self, j):
        # the lag products are summed after power-of-two scaling: raw, they
        # overflowed at 2^520 and vanished at 2^-560 ("series has zero
        # variance"), and at 2^-520 the coefficients drifted
        x = ar_series([0.5, -0.3], 5000, np.random.default_rng(14))
        ref = ts.yule_walker(x, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ts.yule_walker(x * 2.0**j, 2)
            assert np.array_equal(ts.acf(x * 2.0**j, 10), ts.acf(x, 10))
            assert ts.select_order_aic(x * 2.0**j, 5) == ts.select_order_aic(x, 5)
        assert np.array_equal(fit.coefficients, ref.coefficients)
        # the noise variance scales by 4^j: inf or 0 where that leaves the doubles
        with np.errstate(over="ignore"):
            assert fit.noise_variance == np.ldexp(ref.noise_variance, 2 * j)
        assert fit.mean == math.ldexp(ref.mean, j)

    @pytest.mark.parametrize("v", [1e300, -1e300, 1e-300, 5e-324, 0.0])
    def test_constant_series_is_degenerate_without_a_warning(self, v):
        # the centred series is exact zeros: no scale to compare with, and
        # squaring 1e300 would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="zero variance"):
                ts.yule_walker(np.full(100, v), 2)
            with pytest.raises(DegenerateDataError, match="zero variance"):
                ts.aic_table(np.full(100, v), 2)

    @pytest.mark.parametrize("pair, mean", [((1.7e308, 1.6e308), 1.65e308),
                                            ((1e308, -1e308), 0.0)])
    def test_series_near_the_largest_double(self, pair, mean):
        # the mean and the centring are taken after power-of-two scaling: raw,
        # the sum overflowed ("series has zero variance", or NaN coefficients)
        x = np.array(pair * 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = ts.yule_walker(x, 2)
        assert np.array_equal(fit.coefficients, ts.yule_walker(x * 2.0**-600, 2).coefficients)
        np.testing.assert_allclose(fit.coefficients, [-0.99497487437186, -0.00502512562814],
                                   rtol=1e-12)
        assert fit.mean == pytest.approx(mean)

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.yule_walker([1.0, 2.0, 3.0], 0)
        with pytest.raises(InsufficientDataError):
            ts.yule_walker([1.0, 2.0], 2)
        with pytest.raises(DegenerateDataError):
            ts.yule_walker(np.ones(100), 1)


    # multiplying by 2^j is exact, and the lag products are summed after
    # power-of-two scaling, so the fit and the autocorrelations read the same
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-900, 505),
           phi=st.sampled_from([[0.5], [0.5, -0.3], [0.9, -0.2, 0.1]]))
    def test_fit_and_acf_bitwise_equal_at_any_power_of_two_scale(self, seed, j, phi):
        x = ar_series(phi, 400, np.random.default_rng(seed))
        scaled = x * 2.0**j
        assert np.array_equal(scaled * 2.0**-j, x)  # every value stayed normal
        p = len(phi)
        assert np.array_equal(ts.yule_walker(scaled, p).coefficients,
                              ts.yule_walker(x, p).coefficients)
        assert np.array_equal(ts.acf(scaled, 20), ts.acf(x, 20))


class TestAicSelection:
    def test_table_matches_definition(self):
        rng = np.random.default_rng(10)
        x = ar_series([0.4], 3000, rng)
        n = x.size
        table = ts.aic_table(x, 6)
        assert table.shape == (7,)
        assert table[0] == pytest.approx(n * np.log(np.var(x)) + 0.0)
        for p in range(1, 7):
            sig2 = ts.yule_walker(x, p).noise_variance
            assert table[p] == pytest.approx(n * np.log(sig2) + 2 * p)

    def test_select_is_argmin(self):
        rng = np.random.default_rng(11)
        x = ar_series([0.5, -0.3], 10_000, rng)
        table = ts.aic_table(x, 8)
        assert ts.select_order_aic(x, 8) == int(np.argmin(table))

    def test_p_max_zero(self):
        assert ts.select_order_aic(np.random.default_rng(12).standard_normal(50), 0) == 0

    def test_white_noise_rate(self):
        # the 2-point AIC penalty leaves a lasting overfit probability
        # (~28% with ten spurious candidate orders), so the correct-order
        # rate plateaus near 0.72 no matter how long the series is
        rng = np.random.default_rng(424242)
        sel = np.array([ts.select_order_aic(rng.standard_normal(2000), 10) for _ in range(50)])
        assert 0.55 <= np.mean(sel == 0) <= 0.90

    def test_ar2_rate_and_no_underfit(self):
        rng = np.random.default_rng(515151)
        sel = []
        for _ in range(50):
            x = ar_series([0.5, -0.3], 100_000, rng)
            sel.append(ts.select_order_aic(x, 10))
        sel = np.array(sel)
        assert np.mean(sel == 2) >= 0.70
        assert sel.min() >= 2  # a strong AR(2) signal is never underfit

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.aic_table([1.0, 2.0], -1)
        with pytest.raises(InsufficientDataError):
            ts.aic_table([1.0, 2.0], 5)
        with pytest.raises(DegenerateDataError):
            ts.aic_table(np.full(50, 3.3), 2)


class TestResiduals:
    def test_matches_hand_loop(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=30)
        model = ts.ARModel(3, np.array([0.4, -0.2, 0.1]), 1.0, float(x.mean()))
        got = ts.residuals(x, model)
        xc = x - x.mean()
        want = [
            xc[t] - 0.4 * xc[t - 1] + 0.2 * xc[t - 2] - 0.1 * xc[t - 3]
            for t in range(3, 30)
        ]
        np.testing.assert_allclose(got, want, atol=1e-14)
        assert got.size == 27

    def test_order_zero_is_mean_centered(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        model = ts.ARModel(0, np.empty(0), 1.0, 3.0)
        np.testing.assert_allclose(ts.residuals(x, model), x - 3.0)

    def test_true_model_leaves_white_residuals(self):
        n = 50_000
        x = ar_series([0.7], n, np.random.default_rng(14))
        model = ts.ARModel(1, np.array([0.7]), 1.0, float(x.mean()))
        rho = ts.acf(ts.residuals(x, model), 1)
        assert abs(rho[1]) < 3.0 / np.sqrt(n)

    def test_constant_series_zero_coefficient(self):
        model = ts.ARModel(1, np.array([0.0]), 0.0, 5.0)
        np.testing.assert_array_equal(ts.residuals(np.full(10, 5.0), model), np.zeros(9))

    def test_short_series(self):
        model = ts.ARModel(3, np.array([0.1, 0.1, 0.1]), 1.0, 0.0)
        with pytest.raises(InsufficientDataError):
            ts.residuals([1.0, 2.0, 3.0], model)


class TestAcf:
    def test_lag_zero_is_one(self):
        assert ts.acf([1.0, 4.0, 2.0, 8.0], 0)[0] == 1.0

    def test_alternating_series(self):
        n = 1000
        x = np.resize([1.0, -1.0], n)
        rho = ts.acf(x, 1)
        # biased normalization: rho(1) = -(n-1)/n exactly
        assert rho[1] == pytest.approx(-(n - 1) / n, abs=1e-12)
        assert abs(rho[1] + 1.0) <= 2.0 / n

    def test_hand_case(self):
        rho = ts.acf([1.0, 2.0, 3.0, 4.0], 1)
        assert rho[1] == pytest.approx(0.25)

    def test_iid_noise_mostly_inside_band(self):
        n = 10_000
        rho = ts.acf(np.random.default_rng(15).standard_normal(n), 20)
        inside = np.abs(rho[1:]) < 3.0 / np.sqrt(n)
        assert inside.mean() >= 0.95

    def test_errors(self):
        with pytest.raises(ParameterError):
            ts.acf([1.0, 2.0], -1)
        with pytest.raises(InsufficientDataError):
            ts.acf([1.0, 2.0], 2)
        with pytest.raises(DegenerateDataError):
            ts.acf(np.ones(10), 1)


class TestSyntheticComposite:
    def test_calendar_layout(self):
        comp = ts.synthetic_composite(2, [0.5], ts.Exponential(1), ts.RandomSeed(1))
        assert comp.n == 730  # 2001-2002, no leap day
        assert str(comp.dates[0]) == "2001-01-01"
        assert str(comp.dates[-1]) == "2002-12-31"
        assert np.all(np.diff(comp.dates).astype(int) == 1)

    def test_deterministic_and_stream_sensitive(self):
        a = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 1))
        b = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 1))
        c = ts.synthetic_composite(2, [0.5], ts.Pareto(5), ts.RandomSeed(3, 2))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_innovations_are_centered(self):
        comp = ts.synthetic_composite(4, [0.0], ts.Exponential(1), ts.RandomSeed(4))
        day_of_year = (comp.dates - comp.dates.astype("datetime64[Y]")).astype(int)
        latent = comp.values / (1.0 + 0.75 * np.sin(2.0 * math.pi * day_of_year / 365.25))
        assert abs(latent.mean()) < 0.05 * latent.std()

    def test_seasonal_scale_shows_in_profile(self):
        comp = ts.synthetic_composite(6, [0.5], ts.Exponential(1), ts.RandomSeed(5))
        _, profile = ts.deseasonalize(comp)
        # sin profile peaks in early April and bottoms out in early October
        assert profile.lookup(4, 1) > 3.0 * profile.lookup(10, 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ts.synthetic_composite(1, [0.5], ts.Exponential(1), ts.RandomSeed(0))
        with pytest.raises(ParameterError):
            # infinite-mean law cannot be centered
            ts.synthetic_composite(3, [0.5], ts.Pareto(1), ts.RandomSeed(0))

    def test_end_to_end_recovery(self):
        # long record so the per-day scale estimates are tight: the fitted
        # AR(2) lands within 0.05 and the residual tail keeps its shape
        comp = ts.synthetic_composite(200, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(21, 9))
        scaled, _ = ts.deseasonalize(comp)
        fit = ts.yule_walker(scaled.values, 2)
        np.testing.assert_allclose(fit.coefficients, [0.5, -0.3], atol=0.05)
        res = ts.residuals(scaled.values, fit)
        sample = ts.order_statistics(res)
        pts = ts.me_plot(sample, max(2, int(0.005 * sample.n)), int(0.2 * sample.n))
        xi = ts.ls_fit(pts, "me").xi_hat
        assert xi == pytest.approx(0.2, abs=0.1)


class TestCalendarAgainstReference:
    def assert_same_deseasonalize(self, series):
        new_scaled, new_profile = ts.deseasonalize(series)
        old_scaled, old_profile = old_deseasonalize(series)
        assert new_scaled.values.tobytes() == old_scaled.values.tobytes()
        assert new_scaled.dates.tobytes() == old_scaled.dates.tobytes()
        assert list(new_profile.scale.items()) == list(old_profile.scale.items())

    def test_200_year_composite(self):
        comp = ts.synthetic_composite(200, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(3, 13))
        assert comp.n == 73_048
        self.assert_same_deseasonalize(comp)

    def test_feb29_pooling_2003_to_2008(self):
        rng = np.random.default_rng(9)
        n = (np.datetime64("2009-01-01") - np.datetime64("2003-01-01")).astype(int)
        series = daily_series("2003-01-01", rng.gamma(2.0, size=n))
        self.assert_same_deseasonalize(series)
        _, profile = ts.deseasonalize(series)
        assert (2, 29) not in profile.scale and len(profile.scale) == 365

    @pytest.mark.parametrize("start_year", [1, 1900, 2001])
    def test_composite_dates_and_values(self, start_year):
        # the composite starts on 2001-01-01; its values, put on the six years
        # from each start (2191 days, one Feb 29), deseasonalize as the reference does
        comp = ts.synthetic_composite(6, [0.5], ts.Exponential(1), ts.RandomSeed(4))
        assert comp.dates.dtype == old_composite_dates(6, 2001).dtype
        assert comp.dates.tobytes() == old_composite_dates(6, 2001).tobytes()
        want = old_composite_dates(6, start_year)
        assert want.size == comp.n
        self.assert_same_deseasonalize(ts.TimeSeries(want, comp.values))

    @pytest.mark.parametrize("start, n, tweak, message", [
        # 2001-03-01 .. 2002-08-31: Jan 1 is seen once, and sorts first
        ("2001-03-01", 549, None, "calendar day 01-01 has fewer than two observations"),
        ("2001-01-01", 1461, "05-07", "calendar day 05-07 has zero spread"),
    ])
    def test_degenerate_day_messages(self, start, n, tweak, message):
        rng = np.random.default_rng(10)
        series = daily_series(start, rng.normal(size=n))
        if tweak is not None:
            same = [i for i, d in enumerate(series.dates) if str(d)[5:] == tweak]
            series.values[same] = 2.5
        for fn in (ts.deseasonalize, old_deseasonalize):
            with pytest.raises(DegenerateDataError) as info:
                fn(series)
            assert str(info.value) == message


class TestAnalyzeSeries:
    def test_matches_the_stages_it_chains(self):
        comp = ts.synthetic_composite(20, [0.5, -0.3], ts.Pareto(5), ts.RandomSeed(2, 5))
        an = ts.analyze_series(comp, 4)
        scaled, profile = ts.deseasonalize(comp)
        aic = ts.aic_table(scaled.values, 4)
        order = int(np.argmin(aic))
        assert order >= 1 and an.model.order == order
        fit = ts.yule_walker(scaled.values, order)
        resid = ts.residuals(scaled.values, fit)
        assert an.profile == profile
        assert an.aic.tobytes() == aic.tobytes()
        assert an.model.coefficients.tobytes() == fit.coefficients.tobytes()
        assert (an.model.noise_variance, an.model.mean) == (fit.noise_variance, fit.mean)
        assert an.residuals.tobytes() == resid.tobytes()
        assert an.acf.tobytes() == ts.acf(resid, 40).tobytes()
        assert an.trim == ts.default_trim(resid.size)
        pts = ts.me_plot(ts.order_statistics(resid), *an.trim)
        assert an.me_points.points.tobytes() == pts.points.tobytes()
        assert an.me_fit == ts.ls_fit(pts, "me")

    def test_order_zero_fallback_on_white_noise(self):
        rng = np.random.default_rng(3)
        n = (np.datetime64("2004-01-01") - np.datetime64("1999-01-01")).astype(int)
        series = daily_series("1999-01-01", rng.normal(size=n))
        an = ts.analyze_series(series, 3)
        x = ts.deseasonalize(series)[0].values
        assert an.aic.tobytes() == ts.aic_table(x, 3).tobytes()
        assert an.model.order == 0
        assert an.model.coefficients.size == 0
        assert an.model.noise_variance == np.var(x)
        assert an.model.mean == x.mean()
        np.testing.assert_array_equal(an.residuals, x - x.mean())

    def test_gap_is_degenerate(self):
        rng = np.random.default_rng(8)
        series = daily_series("2001-01-01", rng.normal(size=800))
        keep = np.arange(series.n) != 100
        gappy = ts.TimeSeries(series.dates[keep], series.values[keep])
        with pytest.raises(DegenerateDataError, match=r"1 missing day\(s\) in 2001-01-01\.\."):
            ts.analyze_series(gappy, 3)
