"""Ring-down Q measurement pipeline.

Synthesize (or load) a decaying-tone time series, bandpass it with a
zero-phase frequency-domain filter, extract the amplitude envelope by
quadrature demodulation, aggregate the envelope into time bins with
statistical errors, and fit the binned envelope to an exponential to
get Q = pi f0 tau with an uncertainty from the fit covariance.

The envelope step uses quadrature demodulation (multiply by cos/sin,
low-pass, magnitude) rather than an analytic-signal transform: it has
no boundary artifacts on finite records and its magnitude is invariant
to the slow uHz-scale frequency wander real oscillators show.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal

from .core import (
    DegenerateFitError,
    DomainError,
    FitError,
    InsufficientDataError,
    ShapeError,
    _cell_rows,
    _csv_float_bytes,
    _csv_float_pairs,
    _require_finite,
    _require_nonnegative,
    _require_positive,
)

# Zero-phase filters ring over ~1/edge-width at both record ends; the
# pipeline trims this many multiples of 1/bandwidth from each end.
SETTLE_BANDWIDTHS = 10.0

MIN_CYCLES = 10.0
MIN_FIT_BINS = 5

# upper bound on a synthesized record's samples, checked before anything
# is allocated: `pendq ringdown synth` peaks at about 70 bytes per sample
# (405 MB for a 24 h 50 Hz record of 4.32 M samples, 106 MB of it the
# interpreter and imports), so this caps it near 2.9 GB and admits a
# 7-day 50 Hz record (30.24 M samples)
MAX_SYNTH_SAMPLES = 40_000_000


@dataclass(frozen=True)
class RingdownTrace:
    """Uniformly sampled time series in arbitrary consistent units."""

    sample_rate: float  # [Hz]
    samples: np.ndarray
    start_time: float = 0.0  # [s]

    def __post_init__(self):
        _require_positive("sample_rate", self.sample_rate)
        _require_finite("start_time", self.start_time)
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ShapeError("samples must be a 1-d array with at least 2 points")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.samples.size) / self.sample_rate


@dataclass(frozen=True)
class BinnedEnvelope:
    """Per-bin envelope mean and standard error of the mean."""

    bin_centers: np.ndarray    # [s]
    means: np.ndarray
    standard_errors: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name in ("bin_centers", "means", "standard_errors", "counts"):
            arr = np.asarray(getattr(self, name), dtype=float if name != "counts" else int)
            if arr.ndim != 1 or arr.shape != np.shape(self.bin_centers):
                raise ShapeError("binned envelope arrays must be equal-length 1-d")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.bin_centers.size == 0:
            raise InsufficientDataError("no retained bins")
        if np.any(self.counts < 2):
            raise DomainError("retained bins must have at least 2 samples")
        if np.any(self.standard_errors < 0.0) or not np.all(
            np.isfinite(self.standard_errors)
        ):
            raise DomainError("standard errors must be finite and >= 0")


@dataclass(frozen=True)
class RingdownFit:
    """Exponential-decay fit result; Q = pi f0 tau holds by construction."""

    tau: float          # amplitude 1/e time [s]
    f0: float           # [Hz]
    q: float
    q_rel_error: float
    residual_norm: float
    n_bins: int

    def __post_init__(self):
        _require_positive("tau", self.tau)
        _require_positive("f0", self.f0)
        _require_positive("q_rel_error", self.q_rel_error)
        if not math.isclose(self.q, math.pi * self.f0 * self.tau, rel_tol=1e-12):
            raise DomainError("q must equal pi * f0 * tau")

    def to_dict(self) -> dict:
        return {
            "f0_hz": self.f0,
            "tau_s": self.tau,
            "q": self.q,
            "q_rel_error": self.q_rel_error,
            "residual_norm": self.residual_norm,
            "n_bins": self.n_bins,
        }


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def synthesize_ringdown(
    f0: float,
    q: float,
    sample_rate: float,
    duration: float,
    amplitude: float = 1.0,
    noise_rms: float = 0.0,
    seed: int = 0,
    drift_uhz: float | None = None,
) -> RingdownTrace:
    """Decaying tone A e^(-t/tau) cos(2 pi integral(f dt)) + white noise.

    tau = Q/(pi f0); q = inf gives a constant envelope.  drift_uhz, if
    set, makes the instantaneous frequency wander slowly (correlation
    time ~20 s, or the whole record if shorter) with that RMS in
    microhertz, the scale real suspensions drift by.  Deterministic for
    a fixed seed (>= 0) and parameter set.  A record of more than
    MAX_SYNTH_SAMPLES samples is a DomainError.
    """
    _require_positive("f0", f0)
    if not q > 0.0:
        raise DomainError(f"q must be > 0, got {q!r}")
    _require_positive("sample_rate", sample_rate)
    _require_positive("duration", duration)
    _require_finite("amplitude", amplitude)
    _require_nonnegative("noise_rms", noise_rms)
    if drift_uhz is not None:
        _require_nonnegative("drift_uhz", drift_uhz)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    if sample_rate < 4.0 * f0:
        raise DomainError(
            f"sample_rate {sample_rate} Hz under-samples f0 = {f0} Hz (need >= 4 f0)"
        )
    if duration * f0 < MIN_CYCLES:
        raise DomainError(
            f"record holds {duration * f0:.1f} cycles, need >= {MIN_CYCLES:g}"
        )
    if duration * sample_rate > MAX_SYNTH_SAMPLES:
        raise DomainError(
            f"record holds {duration * sample_rate:.4g} samples, "
            f"MAX_SYNTH_SAMPLES is {MAX_SYNTH_SAMPLES}"
        )
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    tau = q / (math.pi * f0)  # inf for q = inf
    rng = np.random.default_rng(seed)
    phi = 2.0 * math.pi * f0 * t
    if drift_uhz is not None and drift_uhz > 0.0:
        white = rng.standard_normal(n)
        window = min(max(3, int(round(20.0 * sample_rate))), n)
        kernel = np.ones(window) / window
        slow = np.convolve(white, kernel, mode="same")
        sd = slow.std()
        if sd > 0.0:
            df = (drift_uhz * 1e-6) * slow / sd
            phi += 2.0 * math.pi * np.cumsum(df) / sample_rate
    x = amplitude * np.exp(-t / tau) * np.cos(phi)
    if noise_rms > 0.0:
        x = x + rng.normal(0.0, noise_rms, n)
    return RingdownTrace(sample_rate=sample_rate, samples=x)


# ---------------------------------------------------------------------------
# Filtering and envelope extraction
# ---------------------------------------------------------------------------

def bandpass(trace: RingdownTrace, f_center: float, bandwidth: float) -> RingdownTrace:
    """Zero-phase frequency-domain bandpass with raised-cosine edges.

    Passband [f_center - bw/2, f_center + bw/2] at unit gain; gain rolls
    off over an edge width of bandwidth/10 on each side, zero beyond.
    Output has the same length, sample rate, and start time.
    """
    _require_positive("f_center", f_center)
    if not 0.0 < bandwidth < f_center:
        raise DomainError(
            f"bandwidth must be in (0, f_center), got {bandwidth} at {f_center} Hz"
        )
    nyquist = trace.sample_rate / 2.0
    edge = bandwidth / 10.0
    if f_center + bandwidth / 2.0 + edge > nyquist:
        raise DomainError(
            f"band [{f_center - bandwidth / 2.0}, {f_center + bandwidth / 2.0}] Hz "
            f"(+{edge} Hz edges) exceeds Nyquist {nyquist} Hz"
        )
    n = trace.samples.size
    freqs = np.fft.rfftfreq(n, d=1.0 / trace.sample_rate)
    df = np.abs(freqs - f_center)
    gain = np.zeros_like(freqs)
    inside = df <= bandwidth / 2.0
    gain[inside] = 1.0
    on_edge = (~inside) & (df <= bandwidth / 2.0 + edge)
    gain[on_edge] = 0.5 * (
        1.0 + np.cos(math.pi * (df[on_edge] - bandwidth / 2.0) / edge)
    )
    filtered = np.fft.irfft(np.fft.rfft(trace.samples) * gain, n=n)
    return RingdownTrace(
        sample_rate=trace.sample_rate, samples=filtered, start_time=trace.start_time
    )


def envelope(trace: RingdownTrace, f0: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude envelope by quadrature demodulation at f0.

    Multiplies by cos/sin at f0, low-passes both quadratures at f0/4
    (zero-phase 4th-order Butterworth), and returns the decimated
    magnitude 2 sqrt(I^2 + Q^2) with its time stamps.  The magnitude is
    unchanged to first order by detunings small against the f0/4 corner,
    which is what makes the pipeline insensitive to slow drift.
    """
    _require_positive("f0", f0)
    nyquist = trace.sample_rate / 2.0
    if f0 >= nyquist / 2.0:
        raise DomainError(f"f0 = {f0} Hz must be below half-Nyquist {nyquist / 2.0} Hz")
    t = trace.times
    w = 2.0 * math.pi * f0
    i_raw = trace.samples * np.cos(w * t)
    q_raw = trace.samples * np.sin(w * t)
    corner = f0 / 4.0
    sos = signal.butter(4, corner, btype="low", fs=trace.sample_rate, output="sos")
    i_lp = signal.sosfiltfilt(sos, i_raw)
    q_lp = signal.sosfiltfilt(sos, q_raw)
    # decimate to the lowpass corner rate so samples are near-independent,
    # which keeps the binned standard errors honest
    step = max(1, int(trace.sample_rate / corner))
    return t[::step], 2.0 * np.hypot(i_lp[::step], q_lp[::step])


def bin_average(times, amplitudes, bin_seconds: float) -> BinnedEnvelope:
    """Per-bin mean and standard error of the mean; bins with < 2 samples drop.

    Bins are contiguous [t0 + k*bin, t0 + (k+1)*bin) intervals covering
    the record (the trailing partial bin included, then dropped if it
    holds fewer than 2 samples).
    """
    times = np.asarray(times, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if times.shape != amplitudes.shape or times.ndim != 1:
        raise ShapeError("times and amplitudes must be equal-length 1-d arrays")
    if times.size < 2:
        raise InsufficientDataError("need at least 2 envelope samples")
    _require_positive("bin_seconds", bin_seconds)
    dt = float(np.median(np.diff(times)))
    if bin_seconds <= 2.0 * dt:
        raise DomainError(
            f"bin_seconds = {bin_seconds} s must exceed a few envelope samples "
            f"(sample step {dt:.3g} s)"
        )
    idx = np.floor((times - times[0]) / bin_seconds).astype(int)
    if idx.min() < 0:  # samples before times[0] belong to no bin
        valid = idx >= 0
        times, amplitudes, idx = times[valid], amplitudes[valid], idx[valid]
    counts = np.bincount(idx)
    keep = counts >= 2
    if not keep.any():
        raise InsufficientDataError("all bins dropped (fewer than 2 samples each)")
    # empty bins drop below; dividing them by 1 keeps 0/0 out
    means = np.bincount(idx, weights=amplitudes) / np.maximum(counts, 1)
    # two-pass variance: squared deviations from each bin's own mean
    squares = np.bincount(idx, weights=(amplitudes - means[idx]) ** 2)
    counts = counts[keep]
    return BinnedEnvelope(
        bin_centers=np.bincount(idx, weights=times)[keep] / counts,
        means=means[keep],
        standard_errors=np.sqrt(squares[keep] / (counts - 1)) / np.sqrt(counts),
        counts=counts,
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _weighted_line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares y = a + b x; returns (a, b, var_b)."""
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx <= 0.0:
        raise DegenerateFitError("singular normal equations: no spread in bin times")
    b = (w * (x - xbar) * (y - ybar)).sum() / sxx
    a = ybar - b * xbar
    return a, b, 1.0 / sxx


def fit_exponential(
    binned: BinnedEnvelope, f0: float, refine: bool = False
) -> RingdownFit:
    """Fit the binned envelope to A e^(-t/tau) and report Q = pi f0 tau.

    Weighted least squares on ln(mean) versus time with per-bin
    sigma_ln = standard_error/mean; falls back to an unweighted fit
    (residual-based errors) when any standard error is zero.  The
    relative Q error comes from the slope covariance.  refine=True runs
    a nonlinear exponential fit seeded by the log-linear solution.
    """
    _require_positive("f0", f0)
    if binned.bin_centers.size < MIN_FIT_BINS:
        raise InsufficientDataError(
            f"need >= {MIN_FIT_BINS} bins, got {binned.bin_centers.size}"
        )
    if np.any(binned.means <= 0.0):
        raise FitError("non-positive bin means cannot be log-fit")
    t = binned.bin_centers
    y = np.log(binned.means)
    weighted = bool(np.all(binned.standard_errors > 0.0))
    if weighted:
        sigma_y = binned.standard_errors / binned.means
        w = 1.0 / sigma_y**2
    else:
        w = np.ones_like(y)
    a, b, var_b = _weighted_line_fit(t, y, w)
    # reduced chi^2; MIN_FIT_BINS > 2 leaves at least one degree of freedom
    chi2 = (((y - (a + b * t)) * np.sqrt(w)) ** 2).sum() / (y.size - 2)
    if not weighted:
        # estimate the error scale from the residuals instead
        var_b *= chi2
    if b >= 0.0:
        raise FitError(f"envelope is not decaying (fitted slope {b:.3g} >= 0)")
    tau = -1.0 / b
    sigma_b = math.sqrt(var_b)
    rel_err = sigma_b / abs(b)
    residual_norm = float(np.sqrt(chi2))
    if refine:
        tau, rel_err = _refine_nonlinear(binned, math.exp(a), tau, weighted)
    # exact-fit guard: the reported uncertainty must stay positive
    rel_err = max(rel_err, 1e-15)
    return RingdownFit(
        tau=tau,
        f0=f0,
        q=math.pi * f0 * tau,
        q_rel_error=rel_err,
        residual_norm=residual_norm,
        n_bins=int(binned.bin_centers.size),
    )


def _refine_nonlinear(
    binned: BinnedEnvelope, a0: float, tau0: float, weighted: bool
) -> tuple[float, float]:
    def model(t, a, tau):
        return a * np.exp(-t / tau)

    sigma = binned.standard_errors if weighted else None
    try:
        popt, pcov = optimize.curve_fit(
            model,
            binned.bin_centers,
            binned.means,
            p0=(a0, tau0),
            sigma=sigma,
            absolute_sigma=weighted,
            maxfev=10000,
        )
    except RuntimeError as exc:
        raise FitError(f"nonlinear refinement did not converge: {exc}") from exc
    tau = float(popt[1])
    if tau <= 0.0:
        raise FitError(f"nonlinear refinement gave non-positive tau {tau:.3g}")
    var_tau = float(pcov[1][1])
    if not math.isfinite(var_tau) or var_tau < 0.0:
        raise DegenerateFitError("singular covariance in nonlinear refinement")
    return tau, math.sqrt(var_tau) / tau


def measure_q(
    traces: RingdownTrace | list[RingdownTrace],
    f0: float,
    bandwidth: float,
    bin_seconds: float,
    refine: bool = False,
) -> RingdownFit:
    """Full pipeline: bandpass, envelope, pooled binning, exponential fit.

    Accepts one trace or several; multiple traces have their envelope
    samples pooled before binning, so aggregating k identical-statistics
    records shrinks the fitted uncertainty by about sqrt(k).  The first
    and last SETTLE_BANDWIDTHS/bandwidth seconds of each envelope are
    discarded to drop zero-phase filter edge transients.
    """
    if isinstance(traces, RingdownTrace):
        traces = [traces]
    if not traces:
        raise InsufficientDataError("no traces given")
    settle = SETTLE_BANDWIDTHS / _require_positive("bandwidth", bandwidth)
    all_t, all_a = [], []
    for trace in traces:
        if trace.duration * f0 < MIN_CYCLES:
            raise DomainError(
                f"trace holds {trace.duration * f0:.1f} cycles of {f0} Hz, "
                f"need >= {MIN_CYCLES:g}"
            )
        t, a = envelope(bandpass(trace, f0, bandwidth), f0)
        keep = (t - t[0] >= settle) & (t[-1] - t >= settle)
        if not keep.any():
            raise InsufficientDataError(
                f"settling trim ({settle:.3g} s per end) consumed the record"
            )
        all_t.append(t[keep])
        all_a.append(a[keep])
    t = np.concatenate(all_t)
    a = np.concatenate(all_a)
    order = np.argsort(t, kind="stable")
    binned = bin_average(t[order], a[order], bin_seconds)
    return fit_exponential(binned, f0, refine=refine)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

TRACE_HEADER = "time_s,value"

# rows per formatting chunk and characters per parsing slice: large
# enough that numpy's per-call overhead vanishes, small enough that the
# temporaries stay a few MB on day-long records
_CSV_CHUNK_ROWS = 1 << 16
_CSV_SLICE_CHARS = 1 << 20


def trace_to_csv(trace: RingdownTrace) -> str:
    """time_s,value CSV of the trace, every cell written as _CSV_FLOAT."""
    parts = [TRACE_HEADER + "\n"]
    for lo in range(0, trace.samples.size, _CSV_CHUNK_ROWS):
        values = trace.samples[lo : lo + _CSV_CHUNK_ROWS]
        # the same expression as trace.times, evaluated for this chunk only
        times = trace.start_time + np.arange(lo, lo + values.size) / trace.sample_rate
        parts.append(
            _cell_rows([_csv_float_bytes(times), ",", _csv_float_bytes(values), "\n"])
        )
    return "".join(parts)


_FIELD_COUNT_ERROR = "trace CSV rows need 2 fields (time_s,value), got {}"


def _parse_rows(text: str) -> np.ndarray:
    """(rows, 2) floats of a run of whole CSV lines; blank lines skip.

    Both parsers read the lines of text.splitlines().  np.loadtxt reads
    each field with the same correctly rounded parser as float(), so
    values are bit-identical to float() per field.  Text it rejects
    (whitespace-only lines, "1_0" digit grouping, malformed rows) and
    text holding U+001F, which it strips around a field and float()
    does not, take the per-line float() parse, which defines the
    accepted syntax.
    """
    lines = text.splitlines()
    if "\x1f" not in text:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a slice of blank lines
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if not rows.size:
                return np.empty((0, 2))
            if rows.shape[1] != 2:
                raise DomainError(_FIELD_COUNT_ERROR.format(rows.shape[1]))
            return rows
    cells = [ln.split(",") for ln in lines if ln.strip()]
    for row in cells:
        if len(row) != 2:
            raise DomainError(_FIELD_COUNT_ERROR.format(len(row)))
    try:
        return np.array([[float(c) for c in row] for row in cells], dtype=float).reshape(-1, 2)
    except ValueError as exc:
        raise DomainError(f"malformed trace CSV row: {exc}") from exc


def trace_from_csv(text: str) -> RingdownTrace:
    """Parse a time_s,value CSV; the times must be finite and uniform.

    Whitespace before the header and after the last row and blank lines
    are skipped, and every line end str.splitlines() knows ends a row.
    The body is read in slices of about _CSV_SLICE_CHARS characters,
    cut after a newline, into preallocated time and sample arrays.  A
    slice of the rows trace_to_csv writes takes the exact vectorised
    reader _csv_float_pairs; any other slice takes _parse_rows.  Either way
    every value is bit-identical to float() of its field, and the
    accepted syntax and the errors are those of the per-line parse.

    Raises DomainError for a missing header, a row without exactly 2
    numeric fields, fewer than 2 rows, and non-finite, unordered or
    non-uniform times.
    """
    text = text.lstrip()
    newline = text.find("\n")
    # the header ends at the first line end of any kind str.splitlines() knows
    head = (text[: newline + 1] if newline >= 0 else text).splitlines(keepends=True)
    if not head or head[0].strip() != TRACE_HEADER:
        raise DomainError(f"trace CSV must start with header {TRACE_HEADER!r}")
    pos = len(head[0])
    size = text.count("\n", pos) + 1
    times, samples = np.empty(size), np.empty(size)
    filled = 0
    # the last slice holds the last non-whitespace character and runs to
    # the end; the whitespace after it is no part of the last row
    stop = len(text)
    while text[stop - 1].isspace():
        stop -= 1
    while pos < stop:
        end = text.find("\n", pos + _CSV_SLICE_CHARS, stop)
        end = len(text) if end < 0 else end + 1
        part = text[pos:end]
        pos = end
        columns = _csv_float_pairs(part)
        if columns is None:
            columns = _parse_rows(part.rstrip() if end == len(text) else part).T
        rows = len(columns[0])
        if filled + rows > size:  # lines ended by a lone CR
            size = filled + rows
            times = np.concatenate([times[:filled], np.empty(rows)])
            samples = np.concatenate([samples[:filled], np.empty(rows)])
        times[filled : filled + rows], samples[filled : filled + rows] = columns
        filled += rows
    if filled < 2:
        raise DomainError("trace CSV needs >= 2 rows of time_s,value")
    if not np.all(np.isfinite(times[:filled])):
        raise DomainError("trace times must be finite")
    start_time = float(times[0])
    dt = np.diff(times[:filled])
    del times  # freed before the step checks allocate their own row-sized arrays
    if np.any(dt <= 0.0):
        raise DomainError("trace times must be strictly increasing")
    step = float(np.median(dt))
    dt -= step
    if np.any(np.abs(dt, out=dt) > 1e-6 * step):
        raise DomainError("trace times must be uniformly sampled")
    return RingdownTrace(sample_rate=1.0 / step, samples=samples[:filled], start_time=start_time)


def fit_to_json(fit: RingdownFit) -> str:
    return json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n"
