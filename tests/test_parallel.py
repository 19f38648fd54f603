"""Chunk-parallel ring-down stages against the serial code they replaced.

The tone synthesis, the demodulation and the trace CSV writer run their
chunks on a thread pool each call opens; the trace CSV reader parses
its slices in order on the calling thread.  The references here are the
whole-array and per-row expressions those stages replaced; every result
must match them byte for byte, with the worker count patched to 1
(everything inline) and to 2 (the pool).
"""

import math
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from scipy import signal

from pendq import DomainError, ShapeError
from pendq import ringdown as rd
from pendq.core import _CSV_FLOAT


@pytest.fixture(params=[1, 2], ids=["workers1", "workers2"])
def workers(request, monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", request.param)
    return request.param


# ---------------------------------------------------------------------------
# references: the serial expressions
# ---------------------------------------------------------------------------

def _serial_synthesize(f0, q, sample_rate, duration, amplitude=1.0, noise_rms=0.0, seed=0,
                       drift_uhz=None):
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    tau = q / (math.pi * f0)
    rng = np.random.default_rng(seed)
    phi = 2.0 * math.pi * f0 * t
    if drift_uhz is not None and drift_uhz > 0.0:
        white = rng.standard_normal(n)
        window = min(max(3, int(round(20.0 * sample_rate))), n)
        slow = np.convolve(white, np.ones(window) / window, mode="same")
        sd = slow.std()
        if sd > 0.0:
            df = (drift_uhz * 1e-6) * slow / sd
            phi += 2.0 * math.pi * np.cumsum(df) / sample_rate
    x = amplitude * np.exp(-t / tau) * np.cos(phi)
    if noise_rms > 0.0:
        x = x + rng.normal(0.0, noise_rms, n)
    return x


def _serial_bandpass(trace, f_center, bandwidth):
    n = trace.samples.size
    edge = bandwidth / 10.0
    freqs = np.fft.rfftfreq(n, d=1.0 / trace.sample_rate)
    df = np.abs(freqs - f_center)
    gain = np.zeros_like(freqs)
    inside = df <= bandwidth / 2.0
    gain[inside] = 1.0
    on_edge = (~inside) & (df <= bandwidth / 2.0 + edge)
    gain[on_edge] = 0.5 * (1.0 + np.cos(math.pi * (df[on_edge] - bandwidth / 2.0) / edge))
    return np.fft.irfft(np.fft.rfft(trace.samples) * gain, n=n)


def _serial_envelope(trace, f0):
    t = trace.times
    w = 2.0 * math.pi * f0
    i_raw = trace.samples * np.cos(w * t)
    q_raw = trace.samples * np.sin(w * t)
    corner = f0 / 4.0
    sos = signal.butter(4, corner, btype="low", fs=trace.sample_rate, output="sos")
    i_lp = signal.sosfiltfilt(sos, i_raw)
    q_lp = signal.sosfiltfilt(sos, q_raw)
    step = max(1, int(trace.sample_rate / corner))
    return t[::step], 2.0 * np.hypot(i_lp[::step], q_lp[::step])


def _serial_csv(trace) -> str:
    lines = [rd.TRACE_HEADER]
    for t, v in zip(trace.times.tolist(), trace.samples.tolist()):
        lines.append(f"{_CSV_FLOAT % t},{_CSV_FLOAT % v}")
    return "\n".join(lines) + "\n"


def _serial_parse(text: str):
    """(sample_rate, start_time, samples bytes) of the per-line parse."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    step = float(np.median(np.diff(rows[:, 0])))
    return 1.0 / step, float(rows[0, 0]), rows[:, 1].tobytes()


def _outcome(trace):
    return trace.sample_rate, trace.start_time, trace.samples.tobytes()


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------

def test_in_order_yields_in_item_order_on_pool_threads(monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", 2)

    def work(k):
        time.sleep(0.002 * (k % 3))  # later items often finish first
        return k, threading.current_thread().name

    results = list(rd._in_order(work, range(12)))
    assert [k for k, _ in results] == list(range(12))
    assert all(name.startswith("pendq-ringdown") for _, name in results)


def test_in_order_draws_items_lazily(monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", 2)
    drawn = []

    def items():
        for k in range(20):
            drawn.append(k)
            yield k

    for k in rd._in_order(lambda k: k, items()):
        # the item consumed, plus at most 2 * _WORKERS submitted ahead
        assert len(drawn) <= k + 1 + 2 * rd._WORKERS


@pytest.mark.parametrize("n_items", [0, 1])
def test_in_order_runs_a_lone_item_inline(monkeypatch, n_items):
    monkeypatch.setattr(rd, "_WORKERS", 2)
    names = list(rd._in_order(lambda k: threading.current_thread().name, range(n_items)))
    assert names == ["MainThread"] * n_items


def test_in_order_raises_the_first_failure_in_item_order(workers):
    def work(k):
        if k in (3, 6):
            time.sleep(0.01 if k == 3 else 0.0)  # the later failure happens first
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(ValueError, match="item 3"):
        list(rd._in_order(work, range(10)))


def test_in_order_finishes_running_calls_when_the_consumer_stops(monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", 2)
    finished = []

    def work(k):
        time.sleep(0.01)
        finished.append(k)
        return k

    results = rd._in_order(work, range(100))
    assert next(results) == 0
    results.close()
    count = len(finished)
    time.sleep(0.05)
    assert len(finished) == count < 100


def _pool_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("pendq-ringdown")]


def test_no_pool_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", 2)
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 3300.0, noise_rms=0.4, seed=15)
    assert trace.samples.size > 2 * rd._CHUNK_SAMPLES
    assert _pool_threads() == []
    rd.trace_to_csv(trace)
    assert _pool_threads() == []


def test_closing_in_order_early_cancels_the_calls_not_started(monkeypatch):
    monkeypatch.setattr(rd, "_WORKERS", 2)
    started, release = [], threading.Event()

    def work(k):
        started.append(k)
        if k:  # item 0 returns at once; the next ones hold both workers
            release.wait(5.0)
        return k

    results = rd._in_order(work, range(100))
    assert next(results) == 0
    timer = threading.Timer(0.05, release.set)  # lets the held calls finish
    timer.start()
    results.close()
    timer.join()
    # items 3 and 4 were submitted but queued behind the held ones
    assert set(started) <= {0, 1, 2}
    assert _pool_threads() == []
    time.sleep(0.02)
    assert set(started) <= {0, 1, 2}


def test_many_workers_with_fast_switching_match_serial(monkeypatch):
    # more workers than cores and a short switch interval: a chunk lost,
    # misplaced or taken out of order would change the bytes
    monkeypatch.setattr(rd, "_WORKERS", 8)
    monkeypatch.setattr(rd, "_CHUNK_SAMPLES", 501)
    monkeypatch.setattr(rd, "_CSV_CHUNK_ROWS", 333)
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 4000)
    kwargs = dict(f0=2.2, q=2000.0, sample_rate=50.0, duration=240.0, noise_rms=0.4, seed=13,
                  drift_uhz=50.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = rd.synthesize_ringdown(**kwargs)
        text = rd.trace_to_csv(trace)
        parsed = rd.trace_from_csv(text)
        t, a = rd.envelope(trace, 2.2)
    finally:
        sys.setswitchinterval(interval)
    assert trace.samples.tobytes() == _serial_synthesize(**kwargs).tobytes()
    assert text == _serial_csv(trace)
    assert _outcome(parsed) == _serial_parse(text)
    t_ref, a_ref = _serial_envelope(trace, 2.2)
    assert (t.tobytes(), a.tobytes()) == (t_ref.tobytes(), a_ref.tobytes())


# ---------------------------------------------------------------------------
# synthesis, bandpass and envelope
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f0=2.2, q=2000.0, sample_rate=50.0, duration=3300.0, noise_rms=0.4, seed=3),
        dict(f0=2.2, q=2.0e6, sample_rate=50.0, duration=2700.0, amplitude=-2.5, seed=4,
             drift_uhz=50.0),
        dict(f0=1.0, q=math.inf, sample_rate=20.0, duration=7000.0, noise_rms=0.1, seed=5,
             drift_uhz=5.0),
    ],
)
def test_synthesize_matches_whole_array_expression(workers, kwargs):
    x = rd.synthesize_ringdown(**kwargs).samples
    assert x.size > 2 * rd._CHUNK_SAMPLES
    assert x.tobytes() == _serial_synthesize(**kwargs).tobytes()


def test_synthesize_matches_with_small_chunks(workers, monkeypatch):
    monkeypatch.setattr(rd, "_CHUNK_SAMPLES", 1000)
    kwargs = dict(f0=2.2, q=2000.0, sample_rate=50.0, duration=240.0, noise_rms=0.4, seed=6,
                  drift_uhz=50.0)
    assert rd.synthesize_ringdown(**kwargs).samples.tobytes() == (
        _serial_synthesize(**kwargs).tobytes()
    )


@pytest.mark.parametrize("f_center, bandwidth", [(2.2, 0.5), (2.2, 0.2), (1.0, 0.3)])
@pytest.mark.parametrize("duration", [240.0, 3300.0, 240.02])
def test_bandpass_matches_whole_spectrum_gain(f_center, bandwidth, duration):
    trace = rd.RingdownTrace(
        50.0,
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, duration, noise_rms=0.4, seed=7).samples,
        start_time=-17.25,
    )
    filtered = rd.bandpass(trace, f_center, bandwidth)
    assert filtered.samples.tobytes() == _serial_bandpass(trace, f_center, bandwidth).tobytes()
    assert filtered.start_time == trace.start_time


@pytest.mark.parametrize("start_time", [0.0, 1234.56789, -86400.02])
def test_envelope_matches_whole_array_expression(workers, start_time):
    raw = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 3300.0, noise_rms=0.4, seed=8)
    trace = rd.RingdownTrace(50.0, raw.samples, start_time=start_time)
    assert trace.samples.size > 2 * rd._CHUNK_SAMPLES
    band = rd.bandpass(trace, 2.2, 0.5)
    t, a = rd.envelope(band, 2.2)
    t_ref, a_ref = _serial_envelope(band, 2.2)
    assert t.tobytes() == t_ref.tobytes()
    assert a.tobytes() == a_ref.tobytes()


def test_envelope_matches_with_small_chunks(workers, monkeypatch):
    monkeypatch.setattr(rd, "_CHUNK_SAMPLES", 777)
    trace = rd.RingdownTrace(
        50.0, rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=9).samples,
        start_time=0.37,
    )
    t, a = rd.envelope(trace, 2.2)
    t_ref, a_ref = _serial_envelope(trace, 2.2)
    assert (t.tobytes(), a.tobytes()) == (t_ref.tobytes(), a_ref.tobytes())


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def _fallback_samples(n: int) -> np.ndarray:
    """Negative values and, every 97th row, cells the exact writer hands to %."""
    samples = rd.synthesize_ringdown(2.2, 2000.0, 50.0, n / 50.0, noise_rms=0.4, seed=10).samples
    samples = samples.copy()
    exact = [0.0, -0.0, 5e-324, -1e-150, 1.000000005, -9.9999999995e99, 1e200]
    samples[::97] = np.resize(exact, samples[::97].size)
    return samples


@pytest.mark.parametrize("chunk_rows", [rd._CSV_CHUNK_ROWS, 1000])
def test_trace_to_csv_matches_per_row_reference(workers, monkeypatch, chunk_rows):
    monkeypatch.setattr(rd, "_CSV_CHUNK_ROWS", chunk_rows)
    n = 3 * chunk_rows + chunk_rows // 3
    trace = rd.RingdownTrace(50.0, _fallback_samples(n), start_time=-1234.56789)
    assert rd.trace_to_csv(trace) == _serial_csv(trace)


def _multi_slice_text(odd_slices, rows=3000, lines_per_slice=300):
    """A trace CSV whose slices of lines_per_slice rows in odd_slices are
    written with CRLF ends and blank lines, not as trace_to_csv writes them."""
    trace = rd.RingdownTrace(50.0, _fallback_samples(rows), start_time=12.5)
    lines = rd.trace_to_csv(trace).splitlines(keepends=True)
    header, body = lines[0], lines[1:]
    out = [header]
    for k in range(0, rows, lines_per_slice):
        block = body[k : k + lines_per_slice]
        if k // lines_per_slice in odd_slices:
            block = [ln.replace("\n", "\r\n") + ("\r\n" if j % 7 == 0 else "")
                     for j, ln in enumerate(block)]
        out += block
    return "".join(out)


@pytest.mark.parametrize("odd_slices", [{4}, {9}, {0, 4, 9}])
def test_trace_from_csv_multi_slice_matches_per_line_reference(workers, monkeypatch,
                                                                odd_slices):
    text = _multi_slice_text(odd_slices)
    # a slice of about 300 rows, so the text is cut into about 10 slices
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 300 * len(text.splitlines()[5]))
    assert _outcome(rd.trace_from_csv(text)) == _serial_parse(text)
    assert _outcome(rd.trace_from_csv(text + "\r\n\n  \n")) == _serial_parse(text)


def test_trace_from_csv_raises_the_first_bad_slice(workers, monkeypatch):
    text = _multi_slice_text(set())
    lines = text.splitlines(keepends=True)
    lines[800] = "1.0,2.0,3.0\n"  # the earlier slice: three fields
    lines[2500] = "1.0,abc\n"     # a later slice: not a number
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", 300 * len(lines[5]))
    with pytest.raises(DomainError, match=r"need 2 fields \(time_s,value\), got 3"):
        rd.trace_from_csv("".join(lines))
    del lines[800]
    with pytest.raises(DomainError, match="malformed trace CSV row"):
        rd.trace_from_csv("".join(lines))


def test_day_of_chunks_round_trips(workers):
    # 6 chunks of rows and several slices of text
    trace = rd.synthesize_ringdown(2.2, 2.0e6, 50.0, 7864.0, noise_rms=0.4, seed=12)
    text = rd.trace_to_csv(trace)
    assert len(text) > 8 * rd._CSV_SLICE_CHARS
    assert _outcome(rd.trace_from_csv(text)) == _serial_parse(text)


def test_reader_parses_on_the_calling_thread_and_the_writer_on_the_pool(monkeypatch):
    # a pooled parse cost CPU and heap for a wall-time saving no fit time
    # resolved, so the reader's slices start no thread; the writer's do
    monkeypatch.setattr(rd, "_WORKERS", 2)
    monkeypatch.setattr(rd, "_CSV_CHUNK_ROWS", 1000)
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=16)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))
    text = rd.trace_to_csv(trace)
    assert trace.samples.size > 4 * rd._CSV_CHUNK_ROWS
    assert started and all(name.startswith("pendq-ringdown") for name in started)
    assert text == _serial_csv(trace)
    started.clear()
    monkeypatch.setattr(rd, "_CSV_SLICE_CHARS", len(text) // 6)
    parsed = rd.trace_from_csv(text)
    assert started == []
    assert _outcome(parsed) == _serial_parse(text)


# ---------------------------------------------------------------------------
# short records start no thread
# ---------------------------------------------------------------------------

NO_THREADS = """
import os, sys, tempfile, threading
import pendq.cli as cli
with tempfile.TemporaryDirectory() as tmp:
    trace, fit = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "fit.json")
    codes = [
        cli.main(["check"]),
        cli.main(["ringdown", "synth", "--duration", "240", "--noise-rms", "0.4",
                  "--seed", "1", "--out", trace]),
        cli.main(["ringdown", "fit", trace, "--out", fit]),
    ]
print(codes, threading.active_count(), file=sys.stderr)
"""


def test_design_and_short_ringdown_paths_start_no_thread():
    proc = subprocess.run(
        [sys.executable, "-c", NO_THREADS], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split("\n")[-2] == "[0, 0, 0] 1"


# ---------------------------------------------------------------------------
# the lean zero-phase filter and the concurrent quadratures
# ---------------------------------------------------------------------------

# (f0, sample_rate): decimation steps of 90, 80 and 1333 samples
FILTER_RATES = [(2.2, 50.0), (1.0, 20.0), (3.0, 1000.0)]


def _lowpass(f0, rate):
    corner = f0 / 4.0
    sos = signal.butter(4, corner, btype="low", fs=rate, output="sos")
    return sos, max(1, int(rate / corner))


@pytest.mark.parametrize("f0, rate", FILTER_RATES)
@pytest.mark.parametrize("size", ["edge+1", 12001, "chunk-1", "chunk+1", "2chunks-1",
                                  "2chunks+1", "3chunks+17"])
def test_filtfilt_every_matches_sosfiltfilt(f0, rate, size):
    sos, step = _lowpass(f0, rate)
    edge = rd._filtfilt_edge(sos)
    chunk = rd._CHUNK_SAMPLES
    n = {"edge+1": edge + 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1,
         "2chunks-1": 2 * chunk - 1, "2chunks+1": 2 * chunk + 1,
         "3chunks+17": 3 * chunk + 17}.get(size, size)
    x = np.random.default_rng(n).standard_normal(n) + 3.0
    ext = np.empty(n + 2 * edge)
    ext[edge:-edge] = x
    assert edge == 3 * (2 * len(sos) + 1)  # sosfiltfilt's default padlen
    got = rd._filtfilt_every(sos, ext, edge, step, signal.sosfilt_zi(sos))
    assert got.tobytes() == signal.sosfiltfilt(sos, x)[::step].tobytes()


@pytest.mark.parametrize("f0, rate", FILTER_RATES)
@pytest.mark.parametrize("chunks, extra", [(1, 1), (2, -1), (3, 5)])
def test_envelope_quadratures_match_whole_array_expression(workers, f0, rate, chunks, extra):
    n = chunks * rd._CHUNK_SAMPLES + extra
    raw = np.random.default_rng(chunks).standard_normal(n)
    trace = rd.RingdownTrace(rate, raw + np.cos(2.0 * math.pi * f0 * np.arange(n) / rate),
                             start_time=-3.25)
    t, a = rd.envelope(trace, f0)
    t_ref, a_ref = _serial_envelope(trace, f0)
    assert (t.tobytes(), a.tobytes()) == (t_ref.tobytes(), a_ref.tobytes())


def test_envelope_low_pass_cache_is_keyed_on_corner_and_rate():
    # one f0 at two rates and two f0 at one rate: a cache keyed on the
    # corner alone, or on the rate alone, would hand one of them the
    # other's filter
    rd._lowpass.cache_clear()
    pairs = [(2.2, 50.0), (2.2, 40.0), (1.1, 50.0)] * 2
    for k, (f0, rate) in enumerate(pairs):
        n = 4000 + k
        raw = np.random.default_rng(k).standard_normal(n)
        trace = rd.RingdownTrace(rate, raw + np.cos(2.0 * math.pi * f0 * np.arange(n) / rate))
        t, a = rd.envelope(trace, f0)
        t_ref, a_ref = _serial_envelope(trace, f0)
        assert (t.tobytes(), a.tobytes()) == (t_ref.tobytes(), a_ref.tobytes())
    info = rd._lowpass.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_envelope_refuses_a_record_shorter_than_the_filter_padding():
    sos, _ = _lowpass(2.2, 50.0)
    edge = rd._filtfilt_edge(sos)
    with pytest.raises(ShapeError, match=f"more than {edge} samples, got {edge}"):
        rd.envelope(rd.RingdownTrace(50.0, np.ones(edge)), 2.2)
    assert rd.envelope(rd.RingdownTrace(50.0, np.ones(edge + 1)), 2.2)[1].size == 1


@pytest.mark.parametrize("drift_uhz", [None, 50.0])
@pytest.mark.parametrize("extra", [-1, 1])
def test_synthesize_noise_drawn_by_chunk_matches_one_draw(workers, drift_uhz, extra):
    n = 3 * rd._CHUNK_SAMPLES + extra
    kwargs = dict(f0=2.2, q=2000.0, sample_rate=50.0, duration=n / 50.0, noise_rms=0.4,
                  seed=14, drift_uhz=drift_uhz)
    x = rd.synthesize_ringdown(**kwargs).samples
    assert x.size == n
    assert x.tobytes() == _serial_synthesize(**kwargs).tobytes()
