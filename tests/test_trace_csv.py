"""Trace CSV format: exact _CSV_FLOAT cells out, the accepted syntax in.

The references here are the per-row and per-field loops the vectorised
writer and the sliced parser replaced; both must agree with them
exactly, bytes out and bits in.
"""

import contextlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pendq import DomainError
from pendq import ringdown as rd
from pendq.core import _CSV_FLOAT, _csv_float_pairs, _csv_rows

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "ringdown_example.csv"


def _cells(values) -> list[str]:
    return _csv_rows([values], "\n").tobytes().decode("ascii").splitlines()


def _reference_rows(columns, suffix: str) -> bytes:
    """Rows of _CSV_FLOAT cells written one by one with Python's %."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    text = "".join(",".join(_CSV_FLOAT % v for v in row) + suffix for row in rows)
    return text.encode("utf-8", "surrogatepass")


def _reference_csv(trace: rd.RingdownTrace) -> str:
    lines = [rd.TRACE_HEADER]
    for t, v in zip(trace.times, trace.samples):
        lines.append(f"{_CSV_FLOAT % t},{_CSV_FLOAT % v}")
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        trace = parse(text)
    except DomainError:
        return "DomainError"
    return trace.sample_rate, trace.start_time, trace.samples.tobytes()


@contextlib.contextmanager
def _slice_chars(chars):
    """rd._CSV_SLICE_CHARS set for a block; hypothesis tests cannot take monkeypatch."""
    old = rd._CSV_SLICE_CHARS
    rd._CSV_SLICE_CHARS = chars
    try:
        yield
    finally:
        rd._CSV_SLICE_CHARS = old


# a row as trace_to_csv writes it, the rows _csv_float_pairs reads
_CELL = r"-?[0-9]\.[0-9]{8}e[+-][0-9]{2,3}"
_CANONICAL_ROW = re.compile(f"{_CELL},{_CELL}\n")


def _reference_trace(text: str) -> rd.RingdownTrace:
    """The per-line parser the sliced one replaced, checks included."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != rd.TRACE_HEADER:
        raise DomainError("header")
    rest = text.lstrip()
    # the body runs to its last non-whitespace character, which ends a row
    body = rest[len(rest.splitlines(keepends=True)[0]) :].rstrip() + "\n"
    exact = all(_CANONICAL_ROW.fullmatch(row) for row in body.splitlines(keepends=True))
    try:
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float)
    except ValueError as exc:
        raise DomainError("row") from exc
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
        raise DomainError("shape")
    if not np.all(np.isfinite(rows[:, 0])):
        raise DomainError("times")
    dt = np.diff(rows[:, 0])
    if np.any(dt <= 0.0):
        raise DomainError("order")
    step = float(np.median(dt))
    rate = 1.0 / step
    if np.any(np.abs(dt - step) > 1e-6 * step):
        # rows of 9-digit cells may stray by their rounding from the mean step
        first, last = float(rows[0, 0]), float(rows[-1, 0])
        resolution = 10.0 ** (math.floor(math.log10(max(-first, last))) - 8)
        mean = (last - first) / dt.size
        if not (exact and 10 * resolution < mean < math.inf
                and np.all(np.abs(dt - mean) <= 2 * resolution)):
            raise DomainError("uniform")
        rate = dt.size / (last - first)
    return rd.RingdownTrace(rate, rows[:, 1], start_time=float(rows[0, 0]))


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

# (k + 0.5) / 10^8 lands next to a last-digit tie; (k + 0.5) * 10 is one exactly
_NEAR_TIES = st.integers(10**8, 10**9 - 1).map(lambda k: (k + 0.5) / 1e8)
_EXACT_TIES = st.integers(10**8, 10**9 - 1).map(lambda k: (k + 0.5) * 10.0)
_SCALED_TIES = st.tuples(st.integers(10**8, 10**9 - 1), st.integers(-300, 300)).map(
    lambda p: (p[0] + 0.5) * 10.0 ** (p[1] - 8)
)
# 10^k and its float neighbours, from subnormal to 3-digit exponents
_NEAR_POWERS = st.tuples(st.integers(-320, 308), st.sampled_from([-np.inf, 0.0, np.inf])).map(
    lambda p: float(np.nextafter(10.0 ** p[0], p[1])) if p[1] else 10.0 ** p[0]
)


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e4, max_value=1e4),
            _NEAR_TIES,
            _EXACT_TIES,
            _SCALED_TIES,
            _NEAR_POWERS,
        ),
        min_size=1,
        max_size=20,
    )
)
@example([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310])
@example([1e100, -1e-100, 1.7976931348623157e308, 9.9999999995e99, 1e-99])
@example([9.999999995e-5, 9.9999999949e-5, 1e22, 1e23, 1e-14, 1e-15, 99999999.95])
@example([1234567885.0, 1234567895.0, 0.5, 1.000000005, 2.5e-8])
def test_csv_rows_matches_percent_format(values):
    assert _cells(values) == [_CSV_FLOAT % v for v in values]


# cells the row writer cannot lay out from digits: zeros, non-finite
# values, 3-digit exponents, values beyond 10^+-44 and near-ties
_SLOW = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e100, -1e-100, 1e-45, -1e53,
         99999999.95, 1.000000005, 9.999999995e-5]
_SUFFIXES = ["\n", ",suspension thermal\n", ",la\0bé\n", ",a,b\n", ",\ud800x\n"]


@pytest.mark.parametrize("slow", _SLOW)
@pytest.mark.parametrize("column", [0, 1, 2])
def test_csv_rows_slow_row_between_plain_rows(column, slow):
    plain = np.array([[1.5, -2.25e-18, 3e7], [-4.0, 5.5e-3, -6e12], [7.0, 8.0, 9.0]])
    for at in range(4):  # first, between, between, last
        columns = np.insert(plain, at, [1.25, -0.5, 2e-9], axis=0).T.copy()
        columns[column, at] = slow
        for suffix in _SUFFIXES:
            assert _csv_rows(columns, suffix).tobytes() == _reference_rows(columns, suffix)


@pytest.mark.parametrize("suffix", _SUFFIXES)
def test_csv_rows_every_sign_pattern(suffix):
    signs = np.array([[(k >> j) & 1 for j in range(3)] for k in range(8)], dtype=float)
    columns = (np.array([1.234567891e-7, 9.87654321e20, 5.0]) * (1.0 - 2.0 * signs)).T
    columns = np.concatenate([columns, columns[:, ::-1]], axis=1)
    assert _csv_rows(columns, suffix).tobytes() == _reference_rows(columns, suffix)
    assert _csv_rows(columns[:1], suffix).tobytes() == _reference_rows(columns[:1], suffix)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*[st.one_of(st.floats(), st.sampled_from(_SLOW))] * k),
            min_size=1,
            max_size=30,
        )
    ),
    st.sampled_from(_SUFFIXES),
)
def test_csv_rows_match_per_row_reference(rows, suffix):
    columns = np.array(rows, dtype=float).T
    assert _csv_rows(columns, suffix).tobytes() == _reference_rows(columns, suffix)


def test_csv_rows_all_slow_and_empty():
    columns = np.array([_SLOW, _SLOW[::-1]])
    assert _csv_rows(columns, "\n").tobytes() == _reference_rows(columns, "\n")
    assert _csv_rows([np.empty(0), np.empty(0)], "\n").size == 0


@pytest.mark.parametrize("chunk_rows", [rd._CSV_CHUNK_ROWS, 777])
def test_trace_to_csv_matches_per_row_reference(monkeypatch, chunk_rows):
    monkeypatch.setattr(rd, "_CSV_CHUNK_ROWS", chunk_rows)
    drifting = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=11,
                                      drift_uhz=50.0)
    trace = rd.RingdownTrace(50.0, drifting.samples, start_time=-1234.56789)
    assert rd.trace_to_csv(trace) == _reference_csv(trace)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("slice_chars", [1 << 20, rd._CSV_SLICE_CHARS, 1000, 1])
def test_fixture_parses_bit_identically(monkeypatch, slice_chars):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    text = FIXTURE.read_text()
    assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
    assert rd.trace_from_csv(text).samples.flags.c_contiguous


@pytest.mark.parametrize(
    "text",
    [
        "time_s,value\r\n0,1\r\n0.5,2\r\n1,3\r\n",              # CRLF
        "time_s,value\r0,1\r0.5,2\r1,3\r",                      # lone CR
        "time_s,value\n\n0,1\n\n0.5,2\n1,3\n\n",                # blank lines
        "time_s,value\n0,1\n   \n0.5,2\n\t\n1,3\n",             # whitespace-only lines
        "\n  \t\n  time_s,value  \n0,1\n0.5,2\n1,3",            # before the header, no final newline
        "time_s,value\n 0 , 1\n0.5\t,\t2 \n  1,3  \n",          # spaces around fields
        "time_s,value\u20280,1\u20280.5,2\n1,3\n",             # Unicode line separators
        "time_s,value\n0,1\n0.5,2\n1,3_0e-1\n",                 # digit grouping
        "time_s,value\n0,1\n0.5,2\n1,3\x1f",                     # U+001F at the end of the file
    ],
)
def test_trace_csv_accepted_syntax(text):
    trace = rd.trace_from_csv(text)
    assert trace.sample_rate == 2.0
    assert trace.start_time == 0.0
    assert np.array_equal(trace.samples, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "text",
    [
        "time_s,value\n# comment\n0,1\n1,2\n",
        "time_s,value\n0,1\n1,2\n# trailing comment\n",
        "# comment\ntime_s,value\n0,1\n1,2\n",
        "time_s,value\n0,1\n1,2,3\n2,3\n",                      # ragged
        "time_s,value\n0,1,5\n1,2,5\n",                         # 3 columns
        "time_s,value\n0\n1\n2\n",                              # 1 column
        "time_s,value\n0,1\n1,\n",                              # empty field
        "time_s,value\n0\x0c,1\n1,2\n",                         # form feed ends a line
        "time_s,value\n0,1\n1,2\x00\n",
        "time_s,value\n0,1\n1,2\x1f\n2,3\n",                     # U+001F inside the record
        "time_s,value\n",
        "",
    ],
)
def test_trace_csv_rejected_syntax(text):
    with pytest.raises(DomainError):
        rd.trace_from_csv(text)


def test_trace_csv_lone_cr_grows_past_newline_count(monkeypatch):
    # 1 newline but 40 rows: the preallocated buffer must grow
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 64)
    body = "\r".join(f"{k * 0.5},{math.sin(k)}" for k in range(40))
    trace = rd.trace_from_csv("time_s,value\n" + body + "\r")
    assert trace.samples.size == 40
    assert np.array_equal(trace.samples, [math.sin(k) for k in range(40)])


_TOKENS = ["0", "1", "2", "0.5", "-1", "1e0", "1_0", "nan", "inf", " ", "\t", ",", ",",
           "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "#", "\x00",
           "\x1f"]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["", " ", "\n", "\r\n \t"]),
    st.sampled_from(["time_s,value", "time_s,value ", "time_s, value"]),
    st.sampled_from(["\n", "\r\n", "\r", "\x0c", ""]),
    st.lists(st.sampled_from(_TOKENS), max_size=30),
    st.sampled_from([rd._CSV_SLICE_CHARS, 3]),
)
# U+001F ends the last row, and a slice of whitespace follows it
@example("", "time_s,value", "\n", ["\x1f", "\n", " "], 3)
# an infinite time: one row, and two rows whose step is inf - inf
@example("", "time_s,value", "\n", ["\n", "inf", ",", "0"], rd._CSV_SLICE_CHARS)
@example("", "time_s,value", "\n", ["\n", "inf", ",", "0"] * 2, rd._CSV_SLICE_CHARS)
def test_trace_from_csv_matches_per_line_reference(prefix, header, end, tokens, slice_chars):
    rows = "\n".join(f"{k * 0.25},{k}" for k in range(4))
    text = prefix + header + end + rows + "".join(tokens)
    with _slice_chars(slice_chars):
        assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("time_s,value\n0,1,5\n1,2,5\n", "got 3"),
        ("time_s,value\n0\n1\n2\n", "got 1"),
        ("time_s,value\n0,1\n1,2,3\n2,3\n", "got 3"),                # ragged
        ("time_s,value\r\n0,1,5\r\n1,2,5\r\n", "got 3"),            # per-line parse
        ("time_s,value\n0.00000000e+00,1.00000000e+00,2.00000000e+00\n"
         "1.00000000e+00,1.00000000e+00,2.00000000e+00\n", "got 3"),
    ],
)
def test_trace_csv_names_the_field_count(text, message):
    with pytest.raises(DomainError, match=r"rows need 2 fields \(time_s,value\), " + message):
        rd.trace_from_csv(text)


@pytest.mark.parametrize(
    "text",
    [
        "time_s,value\n0,1\nnan,2\n",
        "time_s,value\n0,1\n1,2\ninf,3\n",
        "time_s,value\n-inf,1\n0,2\n",
        "time_s,value\n0,1\n1e400,2\n",                                # overflows to inf
        "time_s,value\n0.00000000e+00,1.00000000e+00\n1.00000000e+400,2.00000000e+00\n",
    ],
)
def test_trace_csv_rejects_non_finite_times(text):
    with pytest.raises(DomainError, match="trace times must be finite"):
        rd.trace_from_csv(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("time_s,value\n-1e308,1\n1e308,2\n", "trace time steps must be finite, got inf"),
        # one step past the float range among finite ones is not uniform
        ("time_s,value\n-1e308,1\n1e308,2\n1.1e308,3\n1.2e308,4\n",
         "trace times must be uniformly sampled"),
    ],
)
def test_trace_csv_refuses_a_step_past_the_float_range(text, message):
    with pytest.raises(DomainError, match=message):
        rd.trace_from_csv(text)


# ---------------------------------------------------------------------------
# exact reader of canonical rows
# ---------------------------------------------------------------------------

# arbitrary finite floats, and the cells a noise-free record has at its
# cosine zeros (about 1e-17: beyond the one-op range of the reader)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=-1e-15, max_value=1e-15),
    _NEAR_TIES,
    _SCALED_TIES,
    _NEAR_POWERS,
)


def _float_columns(text):
    """Bytes of float() of every cell of the CSV rows, column by column."""
    rows = [line.split(",") for line in text.splitlines()]
    return [np.array([float(c) for c in column]).tobytes() for column in zip(*rows)]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=40))
@example([(0.0, -0.0), (5e-324, -2.2250738585072014e-308), (1e-310, -1e-17)])
@example([(1.7976931348623157e308, -1e100), (9.9999999995e99, 1e-99), (1e22, 1e23)])
@example([(6.123233995736766e-17, -1.8369701987210297e-16), (1e-14, 1e30), (1e31, 1e-15)])
def test_csv_float_pairs_match_float(pairs):
    text = "".join(f"{_CSV_FLOAT % a},{_CSV_FLOAT % b}\n" for a, b in pairs)
    columns = _csv_float_pairs(text)
    assert columns is not None
    assert [column.tobytes() for column in columns] == _float_columns(text)


_EDITS = {
    "replace": lambda text, i, c: text[:i] + c + text[i + 1 :],
    "insert": lambda text, i, c: text[:i] + c + text[i:],
    "delete": lambda text, i, c: text[:i] + text[i + 1 :],
}


@settings(max_examples=2000, deadline=None)
@given(
    st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=4),
    st.integers(min_value=0),
    st.sampled_from(sorted(_EDITS)),
    st.sampled_from(list("0123456789+-.eE,;_ /)*\t\r\n\x00\x0c\u00e9")),
)
def test_csv_float_pairs_take_only_canonical_rows(pairs, where, edit, char):
    text = "".join(f"{_CSV_FLOAT % a},{_CSV_FLOAT % b}\n" for a, b in pairs)
    text = _EDITS[edit](text, where % len(text), char)
    columns = _csv_float_pairs(text)
    rows = text.splitlines(keepends=True)
    if not all(_CANONICAL_ROW.fullmatch(row) for row in rows):
        assert columns is None
    else:
        assert columns is not None
        assert [column.tobytes() for column in columns] == _float_columns(text)


@pytest.mark.parametrize("slice_chars", [1 << 20, rd._CSV_SLICE_CHARS, 1000, 1])
@settings(max_examples=150, deadline=None)
@given(
    st.lists(_FINITE, min_size=2, max_size=120),
    st.floats(min_value=1e-3, max_value=1e6),
    st.one_of(st.floats(min_value=-1e9, max_value=1e9), st.sampled_from([0.0, -0.0, 1e-17])),
)
# 30 Hz from 240 s on: the cells' rounding moves steps by 3e-5 of a step
@example(samples=[0.5] * 100, sample_rate=30.0, start_time=240.0)
def test_trace_round_trip_matches_reference(slice_chars, samples, sample_rate, start_time):
    trace = rd.RingdownTrace(sample_rate, samples, start_time=start_time)
    text = rd.trace_to_csv(trace)
    with _slice_chars(slice_chars):
        assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
        # a 9-digit time cell resolves 10^(E-8) s, E the decimal exponent of
        # the largest |time| read: a step over ten times that (eleven, as
        # the mean step moves by up to one) always reads back, to within
        # that resolution
        times = [float(row.split(",")[0]) for row in text.splitlines()[1:]]
        resolution = 10.0 ** (math.floor(math.log10(max(-times[0], times[-1]))) - 8)
        if 1.0 / sample_rate > 11 * resolution:
            read = rd.trace_from_csv(text)
            assert abs(1.0 / read.sample_rate - 1.0 / sample_rate) <= 1.001 * resolution


@pytest.mark.parametrize("sample_rate", [9.3, 13.7, 30.0, 33.3, 1024.0])
def test_synth_records_read_back_at_any_rate(sample_rate):
    trace = rd.synthesize_ringdown(2.2, 2000.0, sample_rate, 240.0, noise_rms=0.4, seed=3)
    text = rd.trace_to_csv(trace)
    read = rd.trace_from_csv(text)
    assert abs(read.sample_rate / sample_rate - 1.0) <= 1e-8
    fit = rd.measure_q(read, 2.2, 0.5, 20.0)
    assert abs(fit.q / 2000.0 - 1.0) < 3.0 * fit.q_rel_error
    # a row missing, or the same rows not as trace_to_csv writes them,
    # still fail the 1e-6 bound
    lines = text.splitlines(keepends=True)
    with pytest.raises(DomainError, match="uniformly sampled"):
        rd.trace_from_csv("".join(lines[:1000] + lines[1001:]))
    with pytest.raises(DomainError, match="uniformly sampled"):
        rd.trace_from_csv(text.replace("\n", "\r\n"))


_TAILS = {
    "LF": lambda text: text + "\n",
    "space": lambda text: text + " ",
    "LF-LF": lambda text: text + "\n\n",
    "US": lambda text: text[:-1] + "\x1f",
    "no-final-end": lambda text: text[:-1],
}


@pytest.mark.parametrize("slice_chars", [rd._CSV_SLICE_CHARS, 1000, 1])
@pytest.mark.parametrize("tail", _TAILS.values(), ids=_TAILS.keys())
def test_whitespace_after_the_last_row_keeps_the_exact_path(slice_chars, tail):
    # 30 Hz needs the 9-digit rounding allowance, which only rows all read
    # by _csv_float_pairs get; an editor's final newline must not cost it
    text = rd.trace_to_csv(rd.synthesize_ringdown(2.2, 2000.0, 30.0, 240.0, noise_rms=0.1))
    with _slice_chars(slice_chars):
        untouched = _outcome(rd.trace_from_csv, text)
        assert untouched != "DomainError"
        assert _outcome(rd.trace_from_csv, tail(text)) == untouched
        assert _outcome(_reference_trace, tail(text)) == untouched


def test_blank_line_between_rows_leaves_the_exact_path():
    text = rd.trace_to_csv(rd.synthesize_ringdown(2.2, 2000.0, 30.0, 240.0, noise_rms=0.1))
    header, *rows = text.splitlines(keepends=True)
    after_header = header + "\n" + "".join(rows)
    between_rows = header + "".join(rows[:100]) + "\n" + "".join(rows[100:])
    for edited in (after_header, between_rows):
        with pytest.raises(DomainError, match="uniformly sampled"):
            rd.trace_from_csv(edited)


_BLANK_RUNS = {
    # slice characters, blank lines, the rows before them
    "64-chars": (64, 200, 100),
    # at the default the run follows the header, so the first slice is all blank
    "default": (rd._CSV_SLICE_CHARS, 600_000, 0),
}


@pytest.mark.parametrize("run", _BLANK_RUNS.values(), ids=_BLANK_RUNS.keys())
@pytest.mark.parametrize("end", ["\n", "\r"], ids=["LF", "CR"])
@pytest.mark.parametrize("sample_rate", [50.0, 30.0])
def test_a_slice_of_blank_lines_is_skipped(monkeypatch, run, end, sample_rate):
    slice_chars, blanks, before = run
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    parsed = []
    parse_rows = rd._parse_rows

    def spy(part):
        parsed.append(parse_rows(part))
        return parsed[-1]

    monkeypatch.setattr(rd, "_parse_rows", spy)
    trace = rd.synthesize_ringdown(2.2, 2000.0, sample_rate, 240.0, noise_rms=0.4, seed=5)
    written = rd.trace_to_csv(trace)
    header, *rows = written.splitlines(keepends=True)
    text = header + "".join(rows[:before]) + "\n" * blanks + "".join(rows[before:])
    text = text.replace("\n", end)
    outcome = _outcome(rd.trace_from_csv, text)
    assert any(p.size == 0 for p in parsed)  # a slice held blank lines alone
    assert outcome == _outcome(_reference_trace, text)
    if sample_rate == 50.0:  # 0.02 s steps are short decimals, even off the exact path
        assert outcome == _outcome(rd.trace_from_csv, written)
    else:  # the 9-digit rounding allowance is for trace_to_csv's rows alone
        assert outcome == "DomainError"


def test_long_record_reads_back_at_its_rate():
    # 2 h at 30 Hz: cells round to 1e-6 s, 3e-5 of a step; Q is not
    # asserted, a record of 3.5 tau fits biased (the noise floor)
    trace = rd.synthesize_ringdown(2.2, 2000.0, 30.0, 7200.0, noise_rms=0.4, seed=3)
    read = rd.trace_from_csv(rd.trace_to_csv(trace))
    assert abs(read.sample_rate / 30.0 - 1.0) <= 1e-8
    assert read.samples.size == trace.samples.size


@pytest.mark.parametrize(
    "sample_rate, start_time", [(50.0, 1e6), (30.0, 240.0), (9.3, 1e6)]
)
def test_missing_rows_are_refused_at_any_resolution(sample_rate, start_time):
    # one row missing moves a step by a whole sample; every other row of
    # the first two thirds missing moves each step by a third of the mean
    # one, the least any pattern of missing rows can
    trace = rd.RingdownTrace(sample_rate, np.ones(3001), start_time=start_time)
    text = rd.trace_to_csv(trace)
    # the 3000 steps span their written length to within a cell's
    # rounding, 0.01 s at most here
    span = 3000 / rd.trace_from_csv(text).sample_rate
    assert math.isclose(span, 3000 / sample_rate, rel_tol=0.0, abs_tol=0.01)
    header, *rows = text.splitlines(keepends=True)
    one_missing = rows[:1500] + rows[1501:]
    thinned = [row for i, row in enumerate(rows) if i % 2 == 0 or i >= 2000]
    for kept in (one_missing, thinned):
        with pytest.raises(DomainError, match="uniformly sampled"):
            rd.trace_from_csv(header + "".join(kept))


def test_one_missing_row_at_50_hz_is_refused():
    text = rd.trace_to_csv(rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0))
    lines = text.splitlines(keepends=True)
    assert math.isclose(rd.trace_from_csv(text).sample_rate, 50.0, rel_tol=1e-12)
    with pytest.raises(DomainError, match="uniformly sampled"):
        rd.trace_from_csv("".join(lines[:5000] + lines[5001:]))


def _crlf(line):
    return line.replace("\n", "\r\n")


def _spaced(line):
    return " " + line.replace(",", " ,\t")


def _grouped(line):
    time, value = line.split(",")
    cut = value.index("e") - 1  # between the last two significand digits
    return f"{time},{value[:cut]}_{value[cut:]}"


@pytest.mark.parametrize("slice_chars", [1 << 20, rd._CSV_SLICE_CHARS, 1000, 1])
@pytest.mark.parametrize("splice", [_crlf, _spaced, _grouped])
def test_spliced_row_matches_reference(slice_chars, splice):
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 30.0, noise_rms=0.4, seed=5)
    lines = rd.trace_to_csv(trace).splitlines(keepends=True)
    k = len(lines) // 2
    lines[k] = splice(lines[k])
    assert _csv_float_pairs(lines[k]) is None
    text = "".join(lines)
    with _slice_chars(slice_chars):
        assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)


def test_writer_output_never_reaches_loadtxt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt read rows trace_to_csv wrote")

    monkeypatch.setattr(np, "loadtxt", refuse)
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 4096)
    t = np.arange(3000) / 50.0
    traces = [
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=0.4, seed=3, drift_uhz=50.0),
        # noise-free at 2.5 Hz: a cosine zero every 5 samples, cells near 1e-17
        rd.RingdownTrace(50.0, np.exp(-t / 30.0) * np.cos(2 * np.pi * 2.5 * t), -100.0),
        # 3-digit exponents, subnormals and signed zeros
        rd.RingdownTrace(1e-3, [1e-310, -1e300, 0.0, -0.0, 5e-324, 1e-17], start_time=1e5),
    ]
    texts = [rd.trace_to_csv(trace) for trace in traces] + [FIXTURE.read_text()]
    for text in texts:
        assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)


# ---------------------------------------------------------------------------
# the step checks: counts of distinct steps, no time column
# ---------------------------------------------------------------------------

# times and steps of whole multiples of 2^-26 s are exact floats, and so
# is the mean of two steps one unit apart
_UNIT = 2.0**-26
_NEAR, _NEXT = 1 << 20, (1 << 20) + 1  # 9.5e-7 apart: uniform


def _unit_steps(steps) -> str:
    """A trace whose steps are the given whole numbers of _UNIT, in an
    order that puts every kind of step across slice edges; times in repr."""
    steps = np.random.default_rng(7).permutation(steps)
    times = ((3 << 20) + np.concatenate(([0.0], np.cumsum(steps)))) * _UNIT
    return rd.TRACE_HEADER + "\n" + "".join(f"{t!r},{k % 7}\n" for k, t in enumerate(times.tolist()))


def _jittered() -> str:
    """A 50 Hz trace whose repr times jitter by up to 2 ns: a few
    thousand distinct steps."""
    rng = np.random.default_rng(11)
    times = 1000.0 + np.arange(4000) / 50.0 + rng.uniform(-2e-9, 2e-9, 4000)
    rows = zip(times.tolist(), rng.normal(size=4000).tolist())
    return rd.TRACE_HEADER + "\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows)


_STEP_TEXTS = {
    # an even count of steps: np.median takes the mean of the two middle ones
    "even": lambda: _unit_steps([_NEAR] * 60 + [_NEXT] * 60),
    # an odd count: the middle step, whose neighbour below differs
    "odd": lambda: _unit_steps([_NEAR] * 60 + [_NEXT] * 61),
    # one step 1e-6 relative off the rest: inside, on and outside the bound
    "inside": lambda: _unit_steps([10**7] * 120 + [10**7 + 9]),
    "edge": lambda: _unit_steps([10**7] * 120 + [10**7 + 10]),
    "outside": lambda: _unit_steps([10**7] * 120 + [10**7 + 11]),
    "jitter": _jittered,
}


@pytest.mark.parametrize("slice_chars", [rd._CSV_SLICE_CHARS, 1000, 64])
@pytest.mark.parametrize("end", ["\n", "\r"], ids=["LF", "CR"])
@pytest.mark.parametrize("case", _STEP_TEXTS)
def test_step_counts_match_reference(monkeypatch, slice_chars, end, case):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    text = _STEP_TEXTS[case]().replace("\n", end)
    assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)


def test_step_counts_take_numpy_medians(monkeypatch):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 64)
    assert rd.trace_from_csv(_STEP_TEXTS["even"]()).sample_rate == 1.0 / (
        (_NEAR + _NEXT) / 2 * _UNIT
    )
    assert rd.trace_from_csv(_STEP_TEXTS["odd"]()).sample_rate == 1.0 / (_NEXT * _UNIT)
    assert rd.trace_from_csv(_STEP_TEXTS["inside"]()).sample_rate == 1.0 / (10**7 * _UNIT)
    with pytest.raises(DomainError, match="trace times must be uniformly sampled"):
        rd.trace_from_csv(_STEP_TEXTS["outside"]())


_DISTINCT_ROWS = 1 << 18


@pytest.fixture(scope="module")
def distinct_steps_text():
    """A 50 Hz trace whose repr times k 0.02 s + 1e-9 N(0, 1) s make
    most steps different (56 907 distinct values), all within 1e-6 of
    the median one."""
    rng = np.random.default_rng(2026)
    times = np.arange(_DISTINCT_ROWS) * 0.02 + 1e-9 * rng.standard_normal(_DISTINCT_ROWS)
    rows = zip(times.tolist(), rng.standard_normal(_DISTINCT_ROWS).tolist())
    return rd.TRACE_HEADER + "\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows)


@pytest.mark.parametrize("slice_chars", [rd._CSV_SLICE_CHARS, 64])
def test_distinct_steps_are_tallied_in_linear_work(monkeypatch, distinct_steps_text, slice_chars):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    sizes, merged = [], rd._merged_steps

    def spy(*pairs):
        sizes.append(sum(len(steps) for steps, _ in pairs))
        return merged(*pairs)

    monkeypatch.setattr(rd, "_merged_steps", spy)
    text = distinct_steps_text
    assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
    # a step waits for one merge, which takes less than twice what waited,
    # and the last merge takes the tally and what waits: so the merges
    # take fewer than four steps per row however many distinct steps there are
    assert sum(sizes) < 4 * _DISTINCT_ROWS


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["CR", "CRLF"])
def test_lone_cr_ends_a_slice(monkeypatch, end):
    # about three slices; a slice never ends between "\r" and "\n"
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 800.0, noise_rms=0.4, seed=2)
    text = rd.trace_to_csv(trace).replace("\n", end)
    parts, parse_rows = [], rd._parse_rows
    monkeypatch.setattr(rd, "_parse_rows", lambda part: parts.append(part) or parse_rows(part))
    assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
    assert len(parts) >= max(2, len(text) // rd._CSV_SLICE_CHARS)
    assert all(len(part) < rd._CSV_SLICE_CHARS + 40 for part in parts)
    # the last slice loses the whitespace after its last row
    assert all(part.endswith(end) for part in parts[:-1])


# ---------------------------------------------------------------------------
# the row bound: at least "a,b" and a line end per row
# ---------------------------------------------------------------------------

def _minimal_rows(end: str, final: bool) -> str:
    """Ten rows of three characters each, the shortest a row can be."""
    body = end.join(f"{k},1" for k in range(10))
    return "time_s,value" + end + body + (end if final else "")


@pytest.mark.parametrize("slice_chars", [1 << 20, rd._CSV_SLICE_CHARS, 1000, 1])
@pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
def test_shortest_rows_parse_within_the_row_bound(monkeypatch, slice_chars, final, end):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    text = _minimal_rows(end, final)
    trace = rd.trace_from_csv(text)
    assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
    assert trace.samples.size == 10
    # the unfilled rows went back: the samples own exactly what they hold
    assert trace.samples.base is None and trace.samples.flags.owndata


@pytest.mark.parametrize("slice_chars", [1 << 20, rd._CSV_SLICE_CHARS, 1000, 1])
def test_parsed_samples_own_no_oversized_buffer(monkeypatch, slice_chars):
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", slice_chars)
    text = FIXTURE.read_text()
    samples = rd.trace_from_csv(text).samples
    assert samples.base is None and samples.flags.owndata
    assert samples.nbytes == 8 * (len(text.strip().splitlines()) - 1)


def test_leading_whitespace_costs_no_copy_of_the_text():
    text = rd.trace_to_csv(rd.synthesize_ringdown(2.2, 2000.0, 50.0, 4000.0, noise_rms=0.4))
    samples, peaks = [], []
    for case in (text, "\n" + text):
        tracemalloc.start()
        try:
            samples.append(rd.trace_from_csv(case).samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(*samples)
    assert peaks[1] - peaks[0] < 0.1 * len(text)


def test_trace_to_csv_fills_its_bound_with_the_widest_rows():
    # every cell of every row is a widest cell: sign, 9 digits, 3-digit exponent
    trace = rd.RingdownTrace(1.0, np.full(1000, -1.23456789e-300), start_time=-9.87654321e300)
    text = rd.trace_to_csv(trace)
    assert text == _reference_csv(trace)
    assert len(text) == len(rd.TRACE_HEADER) + 1 + 1000 * (2 * 16 + 2)
