"""Trace CSV format: exact _CSV_FLOAT cells out, the accepted syntax in.

The references here are the per-row and per-field loops the vectorised
writer and the sliced parser replaced; both must agree with them
exactly, bytes out and bits in.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pendq import DomainError
from pendq import ringdown as rd
from pendq.core import _CSV_FLOAT

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "ringdown_example.csv"


def _cells(values) -> list[str]:
    rows = rd._csv_float_bytes(np.asarray(values, dtype=float))
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in rows]


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


def _reference_trace(text: str) -> rd.RingdownTrace:
    """The per-line parser the sliced one replaced, checks included."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != rd.TRACE_HEADER:
        raise DomainError("header")
    try:
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float)
    except ValueError as exc:
        raise DomainError("row") from exc
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.shape[0] < 2:
        raise DomainError("shape")
    dt = np.diff(rows[:, 0])
    if np.any(dt <= 0.0):
        raise DomainError("order")
    step = float(np.median(dt))
    if np.any(np.abs(dt - step) > 1e-6 * step):
        raise DomainError("uniform")
    return rd.RingdownTrace(1.0 / step, rows[:, 1], start_time=float(rows[0, 0]))


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
def test_csv_float_bytes_matches_percent_format(values):
    assert _cells(values) == [_CSV_FLOAT % v for v in values]


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

@pytest.mark.parametrize("slice_chars", [rd._CSV_SLICE_CHARS, 1000, 1])
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
           "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "#", "\x00"]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["", " ", "\n", "\r\n \t"]),
    st.sampled_from(["time_s,value", "time_s,value ", "time_s, value"]),
    st.sampled_from(["\n", "\r\n", "\r", "\x0c", ""]),
    st.lists(st.sampled_from(_TOKENS), max_size=30),
    st.sampled_from([rd._CSV_SLICE_CHARS, 3]),
)
def test_trace_from_csv_matches_per_line_reference(prefix, header, end, tokens, slice_chars):
    rows = "\n".join(f"{k * 0.25},{k}" for k in range(4))
    text = prefix + header + end + rows + "".join(tokens)
    old = rd._CSV_SLICE_CHARS
    rd._CSV_SLICE_CHARS = slice_chars
    try:
        assert _outcome(rd.trace_from_csv, text) == _outcome(_reference_trace, text)
    finally:
        rd._CSV_SLICE_CHARS = old
