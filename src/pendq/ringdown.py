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

On day-long records tone synthesis and the trace CSV writer run their
chunks on a small thread pool, which each call opens and closes, and
take the results in order, and the envelope filters its two quadratures
on one at once, so the output is the same bytes as a serial run's (see
_in_order).  The trace CSV reader parses its slices in order on the
calling thread: a pool would hand the GIL between threads thousands of
times per day-long record for a wall-time saving no fit time resolves,
and its workers' arenas would keep about 8 MB of heap resident under
the bandpass FFT that sets a fit's peak.
"""

from __future__ import annotations

import codecs
import functools
import io
import json
import math
import os
import re
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
from scipy import optimize, signal

from .core import (
    DegenerateFitError,
    DomainError,
    FitError,
    InsufficientDataError,
    ShapeError,
    _csv_float_pairs,
    _csv_text,
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
# is allocated: `pendq ringdown synth` and `ringdown fit` of its CSV
# each peak at about 40 bytes per sample (276 and 275.5 MB for a 24 h
# 50 Hz record of 4.32 M samples, 105 MB of it the interpreter and
# imports), so this caps both near 1.7 GB and admits a 7-day 50 Hz
# record (30.24 M samples)
MAX_SYNTH_SAMPLES = 40_000_000

# samples per chunk of the elementwise stages (tone synthesis,
# demodulation and the envelope filter's passes): large enough that
# numpy's per-call overhead vanishes
_CHUNK_SAMPLES = 1 << 16

# threads for the chunks of a stage: the CPUs this process may run on.
# numpy releases the GIL on large arrays, so chunks run on all of them
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # a platform without affinity masks
    _WORKERS = os.cpu_count() or 1


def _in_order(fn, items):
    """fn(item) for each item, yielded in the order of items.

    With two or more items and workers, the calls run on a thread pool
    this call opens, at most 2 * _WORKERS of them submitted ahead of
    the one consumed; items are drawn lazily, on the calling thread.  A
    single item, or a single worker, runs inline and starts no thread.
    When the consumer stops early, or a call raises, the calls not
    started are cancelled and the running ones finished before this
    returns, and no thread of the pool outlives it.  fn must not call a
    public function of this module (the benchmark's span tracer wraps
    those, and it keeps one span stack) nor change the warnings filters,
    which every thread shares.
    """
    items = iter(items)
    head = list(islice(items, 2))
    if len(head) < 2 or _WORKERS < 2:
        yield from map(fn, chain(head, items))
        return
    items = chain(head, items)
    with ThreadPoolExecutor(_WORKERS, thread_name_prefix="pendq-ringdown") as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * _WORKERS))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, item) for item in islice(items, 1))
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


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
        # a NaN carries through min and max, and an infinity is one of
        # them: no sample-sized temporary, which would stay in the heap
        if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise DomainError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self._times(0, self.samples.size)

    def _times(self, lo: int, hi: int, step: int = 1) -> np.ndarray:
        """The times of samples lo, lo + step, ... below hi."""
        return self.start_time + np.arange(lo, hi, step) / self.sample_rate


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
    """Exponential-decay fit result; q = pi f0 tau is derived here."""

    tau: float          # amplitude 1/e time [s]
    f0: float           # [Hz]
    q_rel_error: float
    residual_norm: float
    n_bins: int
    q: float = field(init=False)

    def __post_init__(self):
        _require_positive("tau", self.tau)
        _require_positive("f0", self.f0)
        _require_positive("q_rel_error", self.q_rel_error)
        object.__setattr__(self, "q", math.pi * self.f0 * self.tau)

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

# the fit's record rules, which synthesis applies too, so that every
# record it writes can be fitted
def _require_rate(sample_rate: float, f0: float) -> None:
    if sample_rate <= 4.0 * f0:  # the envelope low-passes at f0/4
        raise DomainError(f"sample_rate {sample_rate} Hz under-samples f0 = {f0} Hz "
                          "(the fit's envelope needs > 4 f0)")


def _require_cycles(duration: float, f0: float) -> None:
    if duration * f0 < MIN_CYCLES:
        raise DomainError(f"record holds {duration * f0:.1f} cycles of {f0} Hz, "
                          f"need >= {MIN_CYCLES:g}")


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
    _require_rate(sample_rate, f0)
    _require_cycles(duration, f0)
    if duration * sample_rate > MAX_SYNTH_SAMPLES:
        raise DomainError(
            f"record holds {duration * sample_rate:.4g} samples, "
            f"MAX_SYNTH_SAMPLES is {MAX_SYNTH_SAMPLES}"
        )
    n = int(round(duration * sample_rate))
    tau = q / (math.pi * f0)  # inf for q = inf
    rng = np.random.default_rng(seed)
    w = 2.0 * math.pi * f0
    drift_phase = None
    if drift_uhz is not None and drift_uhz > 0.0:
        white = rng.standard_normal(n)
        window = min(max(3, int(round(20.0 * sample_rate))), n)
        kernel = np.ones(window) / window
        slow = np.convolve(white, kernel, mode="same")
        sd = slow.std()
        if sd > 0.0:
            df = (drift_uhz * 1e-6) * slow / sd
            drift_phase = 2.0 * math.pi * np.cumsum(df) / sample_rate
    x = np.empty(n)

    def tone(lo: int) -> slice:
        # amplitude * exp(-t / tau) * cos(phi), its operations in the
        # same order, evaluated in x and one scratch array: the same bits
        hi = min(lo + _CHUNK_SAMPLES, n)
        t = np.divide(np.arange(lo, hi), sample_rate, out=x[lo:hi])
        phi = np.multiply(w, t)
        if drift_phase is not None:
            phi += drift_phase[lo:hi]
        np.negative(t, out=t)
        np.divide(t, tau, out=t)
        np.exp(t, out=t)
        np.multiply(amplitude, t, out=t)
        np.multiply(t, np.cos(phi, out=phi), out=t)
        return slice(lo, hi)

    # the calling thread draws the noise, chunk by chunk in stream order,
    # while the pool builds the tone chunks ahead of it
    for chunk in _in_order(tone, range(0, n, _CHUNK_SAMPLES)):
        if noise_rms > 0.0:
            x[chunk] += rng.normal(0.0, noise_rms, chunk.stop - chunk.start)
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
    # bin k sits at k * step Hz, the value np.fft.rfftfreq gives it.  The
    # gain is nonzero only on the band and its edges; 2 bins more on each
    # side keep a rounding of the bounds from cutting a bin off
    step = 1.0 / (n * (1.0 / trace.sample_rate))
    lo = max(int((f_center - bandwidth / 2.0 - edge) / step) - 2, 0)
    hi = min(int((f_center + bandwidth / 2.0 + edge) / step) + 3, n // 2 + 1)
    df = np.abs(np.arange(lo, hi) * step - f_center)
    gain = np.zeros_like(df)
    inside = df <= bandwidth / 2.0
    gain[inside] = 1.0
    on_edge = (~inside) & (df <= bandwidth / 2.0 + edge)
    gain[on_edge] = 0.5 * (
        1.0 + np.cos(math.pi * (df[on_edge] - bandwidth / 2.0) / edge)
    )
    # samples near the float range overflow the spectrum; the filtered
    # samples are then not finite, which RingdownTrace refuses
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(trace.samples)
        spectrum[lo:hi] *= gain
        # a product with 0.0, not an assignment, gives zeros of the same signs
        spectrum[:lo] *= 0.0
        spectrum[hi:] *= 0.0
        filtered = np.fft.irfft(spectrum, n=n)
    return RingdownTrace(
        sample_rate=trace.sample_rate, samples=filtered, start_time=trace.start_time
    )


@functools.lru_cache(maxsize=16)
def _lowpass(corner: float, rate: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The envelope's 4th-order Butterworth low-pass as sos, its
    signal.sosfilt_zi and the samples signal.sosfiltfilt pads each end
    with by default, designed once per (corner, rate).  The arrays are
    shared between calls and threads, so nothing may write to them."""
    sos = signal.butter(4, corner, btype="low", fs=rate, output="sos")
    # no section of a Butterworth low-pass has a zero b2 or a2, so the
    # pad is sosfiltfilt's 3 * (2 * sections + 1)
    return sos, signal.sosfilt_zi(sos), 3 * (2 * len(sos) + 1)


def _filtfilt_every(
    sos: np.ndarray, ext: np.ndarray, edge: int, step: int, zi: np.ndarray
) -> np.ndarray:
    """signal.sosfiltfilt(sos, x)[::step], bit for bit, for x = ext[edge:-edge].

    Writes sosfiltfilt's odd extension into the edge samples at each end
    of ext, then filters ext in place, forward and then backward, chunk
    by chunk, carrying the state: one buffer, where sosfiltfilt
    allocates three beside its input.  zi is signal.sosfilt_zi(sos).
    It calls no public function, so it may run on the pool.
    """
    x = ext[edge:-edge]
    ext[:edge] = 2 * x[0] - x[edge:0:-1]
    ext[-edge:] = 2 * x[-1] - x[-2 : -(edge + 2) : -1]
    # each pass starts from the steady state of its first sample
    for view in (ext, ext[::-1]):
        state = zi * view[0]
        for lo in range(0, view.size, _CHUNK_SAMPLES):
            chunk = view[lo : lo + _CHUNK_SAMPLES]
            chunk[:], state = signal.sosfilt(sos, chunk, zi=state)
    return x[::step].copy()


def envelope(trace: RingdownTrace, f0: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude envelope by quadrature demodulation at f0.

    Multiplies by cos/sin at f0, low-passes both quadratures at f0/4
    (zero-phase 4th-order Butterworth), and returns the decimated
    magnitude 2 sqrt(I^2 + Q^2) with its time stamps.  The magnitude is
    unchanged to first order by detunings small against the f0/4 corner,
    which is what makes the pipeline insensitive to slow drift.
    """
    _require_positive("f0", f0)
    _require_rate(trace.sample_rate, f0)
    samples, rate = trace.samples, trace.sample_rate
    n = samples.size
    w = 2.0 * math.pi * f0
    corner = f0 / 4.0
    sos, zi, edge = _lowpass(corner, rate)
    # decimate to the lowpass corner rate so samples are near-independent,
    # which keeps the binned standard errors honest
    step = max(1, int(rate / corner))
    if n <= edge:
        raise ShapeError(f"envelope needs more than {edge} samples, got {n}")

    def quadrature(wave) -> np.ndarray:
        ext = np.empty(n + 2 * edge)
        for lo in range(0, n, _CHUNK_SAMPLES):
            hi = min(lo + _CHUNK_SAMPLES, n)
            np.multiply(samples[lo:hi], wave(w * trace._times(lo, hi)),
                        out=ext[edge + lo : edge + hi])
        return _filtfilt_every(sos, ext, edge, step, zi)

    # numpy and sosfilt release the GIL, so on a record of more than one
    # chunk the two quadratures run on the pool at once
    chains = map if n <= _CHUNK_SAMPLES else _in_order
    i_lp, q_lp = chains(quadrature, (np.cos, np.sin))
    return trace._times(0, n, step), 2.0 * np.hypot(i_lp, q_lp)


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
    # the median of the positive steps: pooled records share timestamps,
    # and their zero steps would pass any bin width
    steps = np.diff(times)
    steps = steps[steps > 0.0]
    dt = float(np.median(steps)) if steps.size else 0.0
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
    # two-pass variance: squared deviations from each bin's own mean; a
    # square past the float range is inf, which BinnedEnvelope refuses
    with np.errstate(over="ignore"):
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


# the largest |sample| measure_q fits as it is: within this range the
# spectrum's sums and the squared deviations of the binned envelope stay
# far inside the float range, beyond it they can overflow or underflow
_PEAK_RANGE = (2.0**-256, 2.0**256)


def _rescaling(traces: list[RingdownTrace]) -> int:
    """The power of two that brings the largest |sample| of the traces
    into [1, 2) when it lies outside _PEAK_RANGE, else 0."""
    peak = max(max(float(tr.samples.max()), -float(tr.samples.min())) for tr in traces)
    if peak == 0.0 or _PEAK_RANGE[0] <= peak < _PEAK_RANGE[1]:
        return 0
    return 1 - math.frexp(peak)[1]


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

    Q does not depend on the records' scale, and neither does the fit:
    when the largest |sample| of the traces lies outside _PEAK_RANGE,
    every trace is first multiplied by the power of two that brings it
    into [1, 2), which is exact.  Traces inside the range are fitted as
    they are.
    """
    if isinstance(traces, RingdownTrace):
        traces = [traces]
    if not traces:
        raise InsufficientDataError("no traces given")
    settle = SETTLE_BANDWIDTHS / _require_positive("bandwidth", bandwidth)
    shift = _rescaling(traces)
    all_t, all_a = [], []
    for trace in traces:
        _require_cycles(trace.duration, f0)
        if shift:
            trace = RingdownTrace(trace.sample_rate, np.ldexp(trace.samples, shift),
                                  trace.start_time)
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
# temporaries stay a few MB on day-long records.  At 1 << 16 rows the
# allocator maps and unmaps a chunk's temporaries afresh, and a 24 h
# record's CSV takes twice the page faults of the text itself.  The heap
# keeps about one slice's scratch after the parse, under the bandpass
# FFT that sets a fit's peak; a smaller slice keeps less of it but makes
# more numpy calls per byte
_CSV_CHUNK_ROWS = 1 << 15
_CSV_SLICE_CHARS = 1 << 19


def trace_to_csv(trace: RingdownTrace) -> str:
    """time_s,value CSV of the trace, every cell written as _CSV_FLOAT.

    Chunks of _CSV_CHUNK_ROWS rows are formatted and decoded on a
    thread pool; the calling thread appends them, in order, to the one
    str it returns, which grows in place (see _append_in_place), so the
    whole text is held once.
    """
    def rows(lo: int) -> str:
        values = trace.samples[lo : lo + _CSV_CHUNK_ROWS]
        times = trace._times(lo, lo + values.size)
        return _csv_text([times, values], "\n")

    chunks = _in_order(rows, range(0, trace.samples.size, _CSV_CHUNK_ROWS))
    return _append_in_place(TRACE_HEADER + "\n", chunks)


def _append_in_place(text: str, parts) -> str:
    """text followed by every str of parts, built as one str.

    CPython 3.11 specializes the `+=` below (a str added to the local it
    is stored back to) into an append that resizes the str in place
    while nothing else refers to it, and glibc grows a large block by
    remapping its pages, not by copying them.  So the text is held once,
    where "".join(parts), or a byte buffer decoded at the end, holds it
    twice.  Keep the loop a plain `for`: a `while got := ...` loop left
    the `+=` generic on 3.11, and a generic `+=` copies the whole text
    at every append, as it also does under sys.settrace or a profiler.
    """
    for part in parts:
        text += part
    return text


# bytes per read of a trace file: the one buffer its slices are read into
_READ_BYTES = 1 << 20


def _decode_error(exc: UnicodeDecodeError, shift: int) -> str:
    """str(exc) for the same error found shift bytes further into a stream."""
    start, end = exc.start + shift, exc.end + shift
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _text_slices(fh, path: str):
    """The text of the binary file fh, as open(path, encoding="utf-8-sig")
    reads it, in slices decoded from one reused buffer.

    The buffer holds min(file size, _READ_BYTES) bytes, or _READ_BYTES
    for a pipe, and is filled before each decode however few bytes a
    read returns (a pipe gives at most 64 KB), so the text is built from
    few slices.  Each slice goes through the decoder chain text mode
    builds: it drops a leading byte order mark, which spreadsheets put
    before the header, carries a character or a "\\r" that ends a slice
    over to the next, and translates line ends.  A decode error is a
    DomainError whose message gives the positions a decode of the whole
    stream gives: past the mark, if there is one.
    """
    size = os.fstat(fh.fileno()).st_size
    view = memoryview(bytearray(min(size or _READ_BYTES, _READ_BYTES)))
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8-sig")(), True)
    read, head = 0, b""  # the bytes read, and the first three of them
    while True:
        got = 0
        while got < len(view) and (more := fh.readinto(view[got:])):
            got += more
        read += got
        head += view[: min(got, 3 - len(head))]
        try:
            part = decoder.decode(view[:got], not got)
            if not got and read < 3:  # the chain drops a cut mark that a whole decode rejects
                codecs.decode(head, "utf-8-sig")
        except UnicodeDecodeError as exc:
            mark = len(codecs.BOM_UTF8) if head == codecs.BOM_UTF8 else 0
            reason = _decode_error(exc, read - len(exc.object) - mark)
            raise DomainError(f"malformed trace CSV {path}: not UTF-8 text ({reason})") from exc
        yield part
        if not got:
            return


def _read_text(path: str) -> str:
    """The text of the file at path, as open(path, encoding="utf-8-sig")
    reads it: the slices are appended to one str that grows in place, so
    the text is held once, beside a buffer of at most _READ_BYTES."""
    with open(path, "rb", buffering=0) as fh:
        return _append_in_place("", _text_slices(fh, path))


_FIELD_COUNT_ERROR = "trace CSV rows need 2 fields (time_s,value), got {}"

# the end of a line of a parsing slice: "\n", "\r\n" or a lone "\r"
_LINE_END = re.compile(r"\r\n?|\n")


def _step_counts(times: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct steps of a run of times and their counts, all that
    trace_from_csv checks of them beside their ends; None if a time is
    not finite."""
    if not np.isfinite(times).all():
        return None
    with np.errstate(over="ignore"):  # a step past the float range is inf
        return np.unique(np.diff(times), return_counts=True)


def _merged_steps(*pairs) -> tuple[np.ndarray, np.ndarray]:
    """One (steps, counts) pair of the distinct steps of (steps, counts)
    pairs, each with the sum of its counts (exact floats)."""
    steps, counts = (np.concatenate(column) for column in zip(*pairs))
    steps, where = np.unique(steps, return_inverse=True)
    return steps, np.bincount(where, counts)


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
    cut after a "\\n", "\\r\\n" or lone "\\r", and parsed in file order on
    the calling thread into a preallocated sample array.  A slice of the
    rows trace_to_csv writes takes the exact vectorised reader
    _csv_float_pairs; any other slice takes _parse_rows.  Either way
    every value is bit-identical to float() of its field, and the
    accepted syntax and the errors are those of the per-line parse.  No
    time column is kept: each slice's times shrink to the counts of
    their distinct steps from the last time before the slice (see
    _step_counts), which join one running tally, and the checks run on
    that tally.  So beside the caller's text the parse holds the sample
    array and no other row-sized one, and the small arrays it keeps
    between slices are a few however many slices there are: none of
    them pins freed slice scratch in the heap, where the bandpass FFT
    that sets a fit's peak would find it resident.

    Raises DomainError for a missing header, a row without exactly 2
    numeric fields, fewer than 2 rows, non-finite times or steps, and
    unordered or non-uniform times: every step within 1e-6 of the median
    one, which sets the rate, or for rows all read by _csv_float_pairs
    whose mean step is over ten times their time cells' resolution,
    within twice that resolution of the mean one.
    """
    # the header starts at the first character that is not str.isspace(),
    # which is what \S matches in a str; the search copies no text
    first = re.search(r"\S", text)
    start = first.start() if first else len(text)
    # the header ends at the first line end of any kind str.splitlines()
    # knows, which is no later than the first "\n", "\r\n" or "\r"
    newline = _LINE_END.search(text, start)
    head = text[start : newline.end() if newline else None].splitlines(keepends=True)
    if not head or head[0].strip() != TRACE_HEADER:
        raise DomainError(f"trace CSV must start with header {TRACE_HEADER!r}")
    pos = start + len(head[0])
    # a row holds at least "a,b" and a line end, so this many rows fit;
    # the pages past the last row are never touched
    samples = np.empty((len(text) - pos) // 4 + 2)
    filled = 0
    # the last slice ends at the last non-whitespace character, and the
    # whitespace after it is no part of the last row
    stop = len(text)
    while text[stop - 1].isspace():
        stop -= 1

    # exact: every slice took _csv_float_pairs.  tally: the distinct
    # steps so far with their counts.  pending: each slice's pair, whose
    # steps start from the last time before the slice, so the step across
    # a slice edge is one of them; merged into the tally once they hold
    # more steps than it does, so the tally is a few small arrays however
    # many slices there are, and each step is sorted O(log rows) times
    # even when every step is distinct
    finite, exact = True, True
    tally, pending, waiting = (np.empty(0), np.empty(0)), [], 0
    while pos < stop:
        end = _LINE_END.search(text, pos + _CSV_SLICE_CHARS, stop)
        if end:
            part, pos = text[pos : end.end()], end.end()
        else:  # the last slice: its row ends as trace_to_csv ends one
            part, pos = text[pos:stop] + "\n", stop
        columns = _csv_float_pairs(part)
        if columns is None:
            exact = False
            columns = _parse_rows(part).T
        times, values = columns
        if not values.size:
            continue
        summary = _step_counts(np.concatenate(([last], times)) if filled else times)
        finite = finite and summary is not None
        if finite:
            pending.append(summary)
            waiting += summary[0].size
            if waiting > tally[0].size:
                tally, pending, waiting = _merged_steps(tally, *pending), [], 0
        if not filled:
            start_time = float(times[0])
        last = float(times[-1])
        samples[filled : filled + values.size] = values
        filled += values.size
    if filled < 2:
        raise DomainError("trace CSV needs >= 2 rows of time_s,value")
    if not finite:
        raise DomainError("trace times must be finite")
    steps, counts = _merged_steps(tally, *pending)
    if steps[0] <= 0.0:
        raise DomainError("trace times must be strictly increasing")
    # np.median of the filled - 1 steps, bit for bit: the middle one, or
    # the mean of the middle two, which is inf past the float range
    ranks = np.cumsum(counts)
    middle = np.searchsorted(ranks, [(filled - 2) // 2, (filled - 1) // 2], side="right")
    below, above = steps[middle].tolist()
    step = above if filled % 2 == 0 else (below + above) / 2
    if step == math.inf:
        raise DomainError("trace time steps must be finite, got inf")
    rate = 1.0 / step
    if np.any(np.abs(steps - step) > 1e-6 * step):
        # a _CSV_FLOAT time has 9 significant digits, so the steps of the
        # rows trace_to_csv writes stray by up to 10^(E-8) s, E the decimal
        # exponent of the largest |time|: such rows may stray by twice that
        # from their mean step, which then sets the rate.  Missing rows move
        # some step by at least a third of the mean one, so this tells them
        # from rounding only where the mean step is over ten resolutions
        span = last - start_time
        resolution = 10.0 ** (math.floor(math.log10(max(-start_time, last))) - 8)
        mean = span / (filled - 1)
        if not (exact and 10.0 * resolution < mean < math.inf
                and np.all(np.abs(steps - mean) <= 2.0 * resolution)):
            raise DomainError("trace times must be uniformly sampled")
        rate = (filled - 1) / span
    # hands the unfilled tail back, so the samples own no more than they hold
    samples.resize(filled, refcheck=False)
    return RingdownTrace(sample_rate=rate, samples=samples, start_time=start_time)


def fit_to_json(fit: RingdownFit) -> str:
    return json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n"
