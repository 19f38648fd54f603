"""A day-long record's CSV text is held once by the writer and the reader,
and the parse and the bandpass allocate no more than they must.

Each step runs in a fresh interpreter, so the rise of its peak RSS
over the value just before the step is the step's own peak.  The peak
is VmHWM, which exec starts afresh; ru_maxrss would keep the peak of
the process that started the interpreter, and so hide any step whose
peak stays below the test runner's.  A step that holds the text twice
(a byte buffer and its decoded str, or parts and their join) rises by
about twice the text, and so does an append that copies the text each
time; the bound is 1.4 times the text.

The parse and the bandpass are measured in process with tracemalloc,
which sees numpy's buffers whole, touched or not: the parse's sample
array, sized for the shortest rows, is already twice the text of the
rows trace_to_csv writes.
"""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from pendq import ringdown

ROWS = 1 << 20  # about 31 MB of text
GROWTH_LIMIT = 1.4

# the writer keeps a few formatted chunks in flight per worker thread, so
# the child runs on two CPUs at most, whatever the machine has
PROBE = """
import json, os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from pendq import ringdown

def peak():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) * 1024

step, path = sys.argv[1:]
if step == "write":
    trace = ringdown.synthesize_ringdown(2.2, 2000.0, 50.0, {rows} / 50.0, noise_rms=0.4)
    before = peak()
    text = ringdown.trace_to_csv(trace)
    growth = peak() - before
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
else:
    before = peak()
    text = ringdown._read_text(path)
    growth = peak() - before
print(json.dumps({{"growth": growth, "chars": len(text)}}))
""".format(rows=ROWS)


def _probe(step: str, path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, step, str(path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "record.csv"
    return path, _probe("write", path)


def test_trace_to_csv_holds_the_text_once(written):
    path, result = written
    assert result["chars"] == path.stat().st_size
    assert result["growth"] < GROWTH_LIMIT * result["chars"]


def _record(end: str, mark: str) -> str:
    # a trace after a line of 2-, 3- and 4-byte characters longer than
    # the read's buffer, so slices end inside the line
    trace = ringdown.synthesize_ringdown(2.2, 2000.0, 50.0, 2400.0, noise_rms=0.4, seed=3)
    wide = "\u00e9\u20ac\U0001f600" * (ringdown._READ_BYTES // 6)
    return mark + (wide + "\n" + ringdown.trace_to_csv(trace)).replace("\n", end)


# line end and leading mark of each layout the reader accepts
LAYOUTS = {"LF": ("\n", ""), "CRLF": ("\r\n", ""), "CR": ("\r", ""),
           "mark": ("\n", "\ufeff"), "mark-CRLF": ("\r\n", "\ufeff")}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_read_holds_the_text_once(layout, written, tmp_path):
    lf, _ = written
    end, mark = LAYOUTS[layout]
    path = tmp_path / "record.csv"
    path.write_bytes((mark + lf.read_text(encoding="ascii").replace("\n", end)).encode())
    result = _probe("read", path)
    assert result["chars"] == lf.stat().st_size
    assert result["growth"] < GROWTH_LIMIT * result["chars"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sliced_read_is_a_text_mode_read(layout, tmp_path):
    path = tmp_path / "record.csv"
    path.write_bytes(_record(*LAYOUTS[layout]).encode("utf-8"))
    assert path.stat().st_size > 3 * ringdown._READ_BYTES
    with open(path, encoding="utf-8-sig") as fh:
        expected = fh.read()
    assert ringdown._read_text(str(path)) == expected
    # a pipe delivers the same bytes in other slices
    proc = subprocess.run(
        [sys.executable, "-c",
         "import hashlib, sys; from pendq import ringdown; "
         "print(hashlib.sha256(ringdown._read_text('/dev/stdin').encode()).hexdigest())"],
        input=path.read_bytes(), capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == hashlib.sha256(expected.encode()).hexdigest()


# traced peaks: a parse that keeps a time column beside its samples
# reaches 4.6 times the text, and one that parses its slices on a pool
# of two workers 2.3; a bandpass that keeps its frequency array beside
# the spectrum reaches 2.65 times the samples
PARSE_PEAK = 2.2
BANDPASS_PEAK = 2.3


def _traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def record_text():
    trace = ringdown.synthesize_ringdown(2.2, 2000.0, 50.0, ROWS / 50.0, noise_rms=0.4)
    return ringdown.trace_to_csv(trace)


# a lone "\r" ends a slice as "\n" does, so a CR record is parsed in
# slices too, not as one run of rows
@pytest.mark.parametrize("end", ["\n", "\r"], ids=["LF", "CR"])
def test_parse_stays_within_its_peak(monkeypatch, record_text, end):
    # two workers whatever the machine has, so a parse on the pool would show
    monkeypatch.setattr(ringdown, "_WORKERS", 2)
    text = record_text.replace("\n", end)
    trace, peak = _traced(ringdown.trace_from_csv, text)
    assert peak <= PARSE_PEAK * len(text)
    lf = ringdown.trace_from_csv(record_text)
    assert (trace.sample_rate, trace.start_time) == (lf.sample_rate, lf.start_time)
    assert trace.samples.tobytes() == lf.samples.tobytes()


def test_bandpass_stays_within_its_peak(record_text):
    trace = ringdown.trace_from_csv(record_text)
    _, peak = _traced(ringdown.bandpass, trace, 2.2, 0.5)
    assert peak <= BANDPASS_PEAK * trace.samples.nbytes


# tone synthesis evaluates each chunk in its slice of the samples with
# one scratch chunk beside it (3.3 chunks traced); a chunk that builds
# its whole expression in temporaries reaches about nine on two workers
SYNTH_CHUNKS = 5


def test_synthesis_computes_its_chunks_in_place(monkeypatch):
    monkeypatch.setattr(ringdown, "_WORKERS", 2)
    trace, peak = _traced(ringdown.synthesize_ringdown, 2.2, 2000.0, 50.0, ROWS / 50.0, 1.0, 0.4)
    assert peak - trace.samples.nbytes <= SYNTH_CHUNKS * ringdown._CHUNK_SAMPLES * 8
