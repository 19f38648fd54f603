"""Ring-down synthesis, envelope extraction, binning, and Q fitting."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pendq import (
    DegenerateFitError,
    DomainError,
    FitError,
    InsufficientDataError,
    ShapeError,
)
from pendq import ringdown as rd

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "ringdown_example.csv"

# fit of the checked-in example trace (f0 2.2 Hz, 0.5 Hz band, 20 s bins)
GOLDEN_Q = 1972.876478549098
GOLDEN_TAU = 285.44822151892777
GOLDEN_REL_ERR = 0.03687493593198209
GOLDEN_RESIDUAL = 1.073164586247255
GOLDEN_BINS = 10


def test_trace_validation():
    with pytest.raises(ShapeError):
        rd.RingdownTrace(sample_rate=10.0, samples=np.array([1.0]))
    with pytest.raises(ShapeError):
        rd.RingdownTrace(sample_rate=10.0, samples=np.zeros((3, 2)))
    with pytest.raises(DomainError):
        rd.RingdownTrace(sample_rate=10.0, samples=np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        rd.RingdownTrace(sample_rate=0.0, samples=np.array([1.0, 2.0]))
    tr = rd.RingdownTrace(sample_rate=4.0, samples=np.array([0.0, 1.0]), start_time=3.0)
    assert tr.duration == 0.5
    assert np.array_equal(tr.times, [3.0, 3.25])
    assert not tr.samples.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 5000, -1])
def test_trace_refuses_a_non_finite_sample_anywhere(bad, at):
    samples = np.linspace(-1.0, 1.0, 10_000)
    samples[at] = bad
    with pytest.raises(DomainError, match="samples must be finite"):
        rd.RingdownTrace(sample_rate=10.0, samples=samples)


def test_trace_check_allocates_no_sample_sized_array():
    # the bool array of np.isfinite would be an eighth of the samples;
    # left in the heap under the bandpass FFT it raises a fit's peak
    samples = np.random.default_rng(1).normal(size=1 << 20)
    tracemalloc.start()
    try:
        rd.RingdownTrace(sample_rate=50.0, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.nbytes / 64


def test_synthesize_deterministic():
    a = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=0.3, seed=4)
    b = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=0.3, seed=4)
    c = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=0.3, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    d = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, drift_uhz=5.0, seed=4)
    e = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, drift_uhz=5.0, seed=4)
    assert np.array_equal(d.samples, e.samples)
    assert not np.array_equal(a.samples, d.samples)


def test_synthesize_validation():
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(0.0, 2000.0, 50.0, 60.0)
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 0.0, 50.0, 60.0)
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 2000.0, 8.0, 60.0)  # needs fs > 4 f0
    with pytest.raises(DomainError, match="needs > 4 f0"):
        rd.synthesize_ringdown(2.2, 2000.0, 8.8, 60.0)  # at 4 f0 the fit refuses the record
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 4.0)  # < 10 cycles
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=-0.1)


CYCLES_REFUSAL = "record holds 8.8 cycles of 2.2 Hz, need >= 10"
RATE_REFUSAL = ("sample_rate 8.8 Hz under-samples f0 = 2.2 Hz "
                "(the fit's envelope needs > 4 f0)")


def test_synthesis_and_the_fit_refuse_too_few_cycles_alike():
    with pytest.raises(DomainError) as synth:
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 4.0)
    with pytest.raises(DomainError) as fit:
        rd.measure_q(rd.RingdownTrace(sample_rate=50.0, samples=np.ones(200)), 2.2, 0.5, 20.0)
    assert str(synth.value) == str(fit.value) == CYCLES_REFUSAL


def test_synthesis_and_the_envelope_refuse_a_rate_at_4_f0_alike():
    with pytest.raises(DomainError) as synth:
        rd.synthesize_ringdown(2.2, 2000.0, 8.8, 60.0)
    with pytest.raises(DomainError) as env:
        rd.envelope(rd.RingdownTrace(sample_rate=8.8, samples=np.ones(528)), 2.2)
    assert str(synth.value) == str(env.value) == RATE_REFUSAL
    # just above 4 f0 both take the record
    rd.synthesize_ringdown(2.2, 2000.0, 8.81, 60.0)
    rd.envelope(rd.RingdownTrace(sample_rate=8.81, samples=np.ones(528)), 2.2)


def test_the_fit_refuses_the_nyquist_band_before_the_rate():
    # bandpass runs before envelope, so its refusal is the one a fit gives
    with pytest.raises(DomainError, match="exceeds Nyquist"):
        rd.measure_q(rd.RingdownTrace(sample_rate=4.0, samples=np.ones(400)), 2.2, 0.5, 20.0)


def test_synthesize_decay_and_infinite_q():
    tau = 2000.0 / (math.pi * 2.2)
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0)
    # peak of the final 10 s sits at that window's start, t = 230 s
    late = np.abs(tr.samples[-500:]).max()
    assert math.isclose(late, math.exp(-230.0 / tau), rel_tol=0.02)
    flat = rd.synthesize_ringdown(2.2, np.inf, 50.0, 60.0)
    assert math.isclose(np.abs(flat.samples[-200:]).max(), 1.0, rel_tol=0.01)


def test_bandpass_gains():
    fs, n = 50.0, 5000
    t = np.arange(n) / fs
    tones = {1.0: 0.7, 2.2: 1.0, 8.0: 0.5}
    x = sum(a * np.cos(2 * np.pi * f * t) for f, a in tones.items())
    filtered = rd.bandpass(rd.RingdownTrace(fs, x), 2.2, 0.5)
    spec = np.abs(np.fft.rfft(filtered.samples)) / (n / 2)
    freqs = np.fft.rfftfreq(n, 1 / fs)
    def amp_at(f):
        return spec[np.argmin(np.abs(freqs - f))]
    assert math.isclose(amp_at(2.2), 1.0, rel_tol=1e-6)
    assert amp_at(1.0) < 1e-3 * 0.7     # > 60 dB down
    assert amp_at(8.0) < 1e-3 * 0.5
    # a tone inside the flat passband survives a second pass unchanged
    twice = rd.bandpass(filtered, 2.2, 0.5)
    assert math.isclose(amp_at(2.2), np.abs(np.fft.rfft(twice.samples))[
        np.argmin(np.abs(freqs - 2.2))] / (n / 2), rel_tol=1e-6)
    assert filtered.sample_rate == fs
    assert filtered.samples.size == n


def _reference_bandpass(trace, f_center, bandwidth):
    """bandpass with its bins picked from np.fft.rfftfreq by searchsorted."""
    n = trace.samples.size
    edge = bandwidth / 10.0
    freqs = np.fft.rfftfreq(n, d=1.0 / trace.sample_rate)
    lo = max(int(np.searchsorted(freqs, f_center - bandwidth / 2.0 - edge)) - 2, 0)
    hi = int(np.searchsorted(freqs, f_center + bandwidth / 2.0 + edge, side="right")) + 2
    df = np.abs(freqs[lo:hi] - f_center)
    gain = np.zeros_like(df)
    inside = df <= bandwidth / 2.0
    gain[inside] = 1.0
    on_edge = (~inside) & (df <= bandwidth / 2.0 + edge)
    gain[on_edge] = 0.5 * (1.0 + np.cos(math.pi * (df[on_edge] - bandwidth / 2.0) / edge))
    spectrum = np.fft.rfft(trace.samples)
    spectrum[lo:hi] *= gain
    spectrum[:lo] *= 0.0
    spectrum[hi:] *= 0.0
    return np.fft.irfft(spectrum, n=n)


@pytest.mark.parametrize("rate", [9.3, 20.0, 50.0, 1000.0])
@pytest.mark.parametrize("n", [2000, 2001])
@pytest.mark.parametrize("band", ["inner", "at-nyquist"])
def test_bandpass_matches_bins_picked_from_rfftfreq(rate, n, band):
    nyquist = rate / 2.0
    if band == "inner":
        f_center, bandwidth = 0.1234 * rate, 0.0123 * rate
    else:
        bandwidth = nyquist / 5.0
        f_center = nyquist - bandwidth / 2.0 - bandwidth / 10.0
        assert f_center + bandwidth / 2.0 + bandwidth / 10.0 == nyquist
    trace = rd.RingdownTrace(rate, np.random.default_rng(n).standard_normal(n))
    got = rd.bandpass(trace, f_center, bandwidth).samples
    assert got.tobytes() == _reference_bandpass(trace, f_center, bandwidth).tobytes()


def test_bandpass_validation():
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0)
    with pytest.raises(DomainError):
        rd.bandpass(tr, 2.2, 2.2)    # bandwidth not < f_center
    with pytest.raises(DomainError):
        rd.bandpass(tr, 2.2, 0.0)
    with pytest.raises(DomainError):
        rd.bandpass(tr, 24.9, 1.0)   # upper edge beyond Nyquist


def test_envelope_tracks_clean_decay():
    tau = 2000.0 / (math.pi * 2.2)
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, amplitude=3.0)
    t, a = rd.envelope(tr, 2.2)
    interior = (t > 20.0) & (t < 220.0)
    expected = 3.0 * np.exp(-t[interior] / tau)
    assert np.max(np.abs(a[interior] / expected - 1.0)) < 0.01


def test_envelope_nyquist_guard():
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0)
    with pytest.raises(DomainError):
        rd.envelope(tr, 13.0)  # >= fs/4


def test_bin_average_hand_checked():
    times = np.arange(6.0)
    amps = np.arange(1.0, 7.0)
    binned = rd.bin_average(times, amps, 3.0)
    assert np.array_equal(binned.bin_centers, [1.0, 4.0])
    assert np.array_equal(binned.means, [2.0, 5.0])
    assert np.array_equal(binned.counts, [3, 3])
    assert np.allclose(binned.standard_errors, 1.0 / math.sqrt(3.0), rtol=1e-12)


def test_bin_average_drops_short_trailing_bin():
    times = np.arange(7.0)
    amps = np.ones(7)
    binned = rd.bin_average(times, amps, 3.0)
    assert binned.bin_centers.size == 2  # lone sample at t=6 dropped
    assert np.array_equal(binned.counts, [3, 3])


def test_bin_average_validation():
    with pytest.raises(ShapeError):
        rd.bin_average([0.0, 1.0], [1.0], 3.0)
    with pytest.raises(InsufficientDataError):
        rd.bin_average([0.0], [1.0], 3.0)
    with pytest.raises(DomainError):
        rd.bin_average(np.arange(10.0), np.ones(10), 1.5)  # bin <= 2 dt


def test_pooled_records_keep_the_bin_width_guard():
    # pooled records share timestamps, whose zero steps must not pass the guard
    traces = [rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=seed)
              for seed in (1, 2)]
    message = r"bin_seconds = 0.6 s must exceed a few envelope samples \(sample step 1.8 s\)"
    for records in (traces[:1], traces):
        with pytest.raises(DomainError, match=message):
            rd.measure_q(records, 2.2, 0.5, 0.6)
    fit = rd.measure_q(traces, 2.2, 0.5, 20.0)
    assert fit.n_bins == 10
    assert math.isclose(fit.q, 2034.9939056215387, rel_tol=1e-7)


def test_bin_average_refuses_squares_past_the_float_range():
    amplitudes = np.tile([1e160, -1e160], 10)
    with pytest.raises(DomainError, match="standard errors must be finite"):
        rd.bin_average(np.arange(20.0), amplitudes, 5.0)


def _loop_bin_average(times, amplitudes, bin_seconds):
    """Per-bin loop reference: (centers, means, sems, counts) of bins with >= 2 samples."""
    idx = np.floor((times - times[0]) / bin_seconds).astype(int)
    rows = []
    for k in range(int(idx.max()) + 1):
        sel = idx == k
        n = int(sel.sum())
        if n >= 2:
            vals = amplitudes[sel]
            rows.append((times[sel].mean(), vals.mean(), vals.std(ddof=1) / math.sqrt(n), n))
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("seed", range(6))
def test_bin_average_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    # clustered times leave empty and 1-sample bins between busy ones
    times = np.sort(np.concatenate([
        rng.uniform(0.0, 400.0, 300),
        rng.uniform(400.0, 1000.0, 12),
        500.0 + 7.0 * np.arange(5),
    ]))
    amps = rng.lognormal(0.0, 0.3, times.size)
    if seed % 2:  # a mid-record sample first: samples before times[0] belong to no bin
        first = times.size // 5
        order = np.concatenate([[first], np.delete(np.arange(times.size), first)])
        times, amps = times[order], amps[order]
    bin_seconds = rng.uniform(7.0, 40.0)
    binned = rd.bin_average(times, amps, bin_seconds)
    centers, means, sems, counts = _loop_bin_average(times, amps, bin_seconds)
    assert np.array_equal(binned.counts, counts)
    # bincount sums in another order than numpy's pairwise mean: a few ulps
    assert np.allclose(binned.bin_centers, centers, rtol=1e-13, atol=0.0)
    assert np.allclose(binned.means, means, rtol=1e-13, atol=0.0)
    assert np.allclose(binned.standard_errors, sems, rtol=1e-11, atol=0.0)


def test_binned_envelope_validation():
    with pytest.raises(DomainError):
        rd.BinnedEnvelope(
            bin_centers=np.array([0.0, 1.0]),
            means=np.array([1.0, 1.0]),
            standard_errors=np.array([0.1, -0.1]),
            counts=np.array([3, 3]),
        )
    with pytest.raises(DomainError):
        rd.BinnedEnvelope(
            bin_centers=np.array([0.0]),
            means=np.array([1.0]),
            standard_errors=np.array([0.1]),
            counts=np.array([1]),
        )
    with pytest.raises(InsufficientDataError):
        rd.BinnedEnvelope(
            bin_centers=np.array([]),
            means=np.array([]),
            standard_errors=np.array([]),
            counts=np.array([]),
        )


def _exact_binned(tau, n=10, spacing=20.0, sem_frac=1e-3):
    t = spacing * (np.arange(n) + 0.5)
    means = 3.0 * np.exp(-t / tau)
    return rd.BinnedEnvelope(
        bin_centers=t,
        means=means,
        standard_errors=sem_frac * means,
        counts=np.full(n, 8),
    )


def test_fit_exact_exponential():
    tau = 290.0
    fit = rd.fit_exponential(_exact_binned(tau), 2.2)
    assert math.isclose(fit.tau, tau, rel_tol=1e-12)
    assert math.isclose(fit.q, math.pi * 2.2 * tau, rel_tol=1e-12)
    assert fit.n_bins == 10
    assert fit.residual_norm < 1e-9


def test_fit_error_scales_with_bin_errors():
    small = rd.fit_exponential(_exact_binned(290.0, sem_frac=1e-3), 2.2)
    big = rd.fit_exponential(_exact_binned(290.0, sem_frac=2e-3), 2.2)
    assert math.isclose(big.q_rel_error, 2 * small.q_rel_error, rel_tol=1e-12)


def test_fit_zero_sem_fallback():
    binned = _exact_binned(290.0, sem_frac=0.0)
    fit = rd.fit_exponential(binned, 2.2)
    # exact data leaves zero residuals; the floor keeps the error positive
    assert math.isclose(fit.tau, 290.0, rel_tol=1e-12)
    assert fit.q_rel_error == 1e-15


def test_fit_rejects_growth_and_bad_means():
    t = 20.0 * (np.arange(8) + 0.5)
    growing = rd.BinnedEnvelope(
        bin_centers=t,
        means=np.exp(t / 300.0),
        standard_errors=np.full(8, 0.01),
        counts=np.full(8, 5),
    )
    with pytest.raises(FitError, match="not decaying"):
        rd.fit_exponential(growing, 2.2)
    mixed = rd.BinnedEnvelope(
        bin_centers=t,
        means=np.concatenate([np.ones(7), [-1.0]]),
        standard_errors=np.full(8, 0.01),
        counts=np.full(8, 5),
    )
    with pytest.raises(FitError, match="non-positive"):
        rd.fit_exponential(mixed, 2.2)


def test_fit_needs_enough_bins():
    with pytest.raises(InsufficientDataError):
        rd.fit_exponential(_exact_binned(290.0, n=4), 2.2)


def test_degenerate_line_fit():
    x = np.zeros(5)
    with pytest.raises(DegenerateFitError):
        rd._weighted_line_fit(x, np.ones(5), np.ones(5))


def test_measure_q_noiseless():
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0)
    fit = rd.measure_q(tr, 2.2, 0.5, 20.0)
    assert abs(fit.q / 2000.0 - 1.0) <= 1e-3
    assert fit.n_bins == GOLDEN_BINS


def test_measure_q_amplitude_invariant():
    a = rd.measure_q(rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0), 2.2, 0.5, 20.0)
    b = rd.measure_q(
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, amplitude=7.3),
        2.2,
        0.5,
        20.0,
    )
    assert math.isclose(a.tau, b.tau, rel_tol=1e-9)


@pytest.mark.parametrize("power", [600, -600, 300, -300])
def test_measure_q_fits_a_rescaled_record_exactly(power):
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=1)
    # the record whose largest |sample| lies in [1, 2), where a record
    # outside rd._PEAK_RANGE is brought
    peak = float(np.max(np.abs(trace.samples)))
    base = rd.RingdownTrace(50.0, np.ldexp(trace.samples, 1 - math.frexp(peak)[1]))
    scaled = rd.RingdownTrace(50.0, np.ldexp(base.samples, power))
    assert np.array_equal(np.ldexp(scaled.samples, -power), base.samples)
    expected = rd.fit_to_json(rd.measure_q(base, 2.2, 0.5, 20.0))
    assert rd.fit_to_json(rd.measure_q(scaled, 2.2, 0.5, 20.0)) == expected
    # pooled records share one scale
    pooled = [base, rd.RingdownTrace(50.0, base.samples / 4.0)]
    expected = rd.fit_to_json(rd.measure_q(pooled, 2.2, 0.5, 20.0))
    pooled = [rd.RingdownTrace(50.0, np.ldexp(tr.samples, power)) for tr in pooled]
    assert rd.fit_to_json(rd.measure_q(pooled, 2.2, 0.5, 20.0)) == expected


def test_measure_q_fits_records_inside_the_peak_range_as_they_are():
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=1)
    exponent = math.frexp(float(np.max(np.abs(trace.samples))))[1]

    def shift_for_peak_in(power):
        # the rescaling of the trace moved to a peak in [2^power, 2^(power + 1))
        moved = np.ldexp(trace.samples, power + 1 - exponent)
        return rd._rescaling([rd.RingdownTrace(50.0, moved)])

    assert rd._PEAK_RANGE == (2.0**-256, 2.0**256)
    assert shift_for_peak_in(-256) == shift_for_peak_in(255) == 0
    assert shift_for_peak_in(-257) == 257
    assert shift_for_peak_in(256) == -256
    assert rd._rescaling([rd.RingdownTrace(50.0, np.zeros(10))]) == 0


def test_measure_q_pooling_shrinks_error():
    traces = [
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=s)
        for s in (1, 2, 3)
    ]
    single = rd.measure_q(traces[0], 2.2, 0.5, 20.0)
    pooled = rd.measure_q(traces, 2.2, 0.5, 20.0)
    ratio = single.q_rel_error / pooled.q_rel_error
    # three pooled records: expect roughly sqrt(3) improvement
    assert 1.2 < ratio < 2.0
    assert pooled.n_bins == single.n_bins


def test_measure_q_drift_insensitive():
    for seed in range(8):
        tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, drift_uhz=5.0, seed=seed)
        fit = rd.measure_q(tr, 2.2, 0.5, 20.0)
        assert abs(fit.q / 2000.0 - 1.0) < 0.01


def test_measure_q_refine():
    noisy = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0, noise_rms=0.4, seed=7)
    plain = rd.measure_q(noisy, 2.2, 0.5, 20.0)
    refined = rd.measure_q(noisy, 2.2, 0.5, 20.0, refine=True)
    assert abs(refined.q / 2000.0 - 1.0) < 0.15
    assert refined.q != plain.q
    assert refined.q_rel_error > 0.0


def test_measure_q_guards():
    with pytest.raises(InsufficientDataError):
        rd.measure_q([], 2.2, 0.5, 20.0)
    short = rd.RingdownTrace(sample_rate=50.0, samples=np.ones(200))  # 8.8 cycles
    with pytest.raises(DomainError, match="cycles"):
        rd.measure_q(short, 2.2, 0.5, 20.0)
    trimmed_away = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 30.0)
    with pytest.raises(InsufficientDataError, match="settling trim"):
        rd.measure_q(trimmed_away, 2.2, 0.5, 20.0)  # 20 s trim per end


def test_binned_errors_match_scatter():
    # constant-envelope noisy records: the reported per-bin standard error
    # should match the seed-to-seed scatter of the bin mean
    means, sems = [], []
    for seed in range(25):
        tr = rd.synthesize_ringdown(2.2, np.inf, 50.0, 120.0, noise_rms=0.5, seed=seed)
        t, a = rd.envelope(rd.bandpass(tr, 2.2, 0.5), 2.2)
        keep = (t - t[0] >= 20.0) & (t[-1] - t >= 20.0)
        binned = rd.bin_average(t[keep], a[keep], 8.0)
        means.append(binned.means[3])
        sems.append(binned.standard_errors[3])
    ratio = np.std(means, ddof=1) / np.mean(sems)
    assert 0.7 < ratio < 1.3


def test_trace_csv_round_trip():
    tr = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=0.1, seed=9)
    text = rd.trace_to_csv(tr)
    assert text.splitlines()[0] == rd.TRACE_HEADER
    back = rd.trace_from_csv(text)
    assert math.isclose(back.sample_rate, 50.0, rel_tol=1e-6)
    assert back.start_time == 0.0
    assert np.allclose(back.samples, tr.samples, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize(
    "text",
    [
        "t,v\n0,1\n1,2\n",
        "time_s,value\n0,1\n",
        "time_s,value\n0,1\nx,2\n",
        "time_s,value\n0,1\n1,2\n1,3\n",          # repeated time
        "time_s,value\n0,1\n1,2\n3.5,3\n",        # non-uniform
    ],
)
def test_trace_csv_rejects(text):
    with pytest.raises(DomainError):
        rd.trace_from_csv(text)


def test_golden_example_fit():
    trace = rd.trace_from_csv(FIXTURE.read_text())
    fit = rd.measure_q(trace, 2.2, 0.5, 20.0)
    assert math.isclose(fit.q, GOLDEN_Q, rel_tol=1e-7)
    assert math.isclose(fit.tau, GOLDEN_TAU, rel_tol=1e-7)
    assert math.isclose(fit.q_rel_error, GOLDEN_REL_ERR, rel_tol=1e-6)
    assert math.isclose(fit.residual_norm, GOLDEN_RESIDUAL, rel_tol=1e-6)
    assert fit.n_bins == GOLDEN_BINS
    # the example was drawn with Q = 2000; the fit should agree within
    # a few reported standard errors
    assert abs(fit.q / 2000.0 - 1.0) < 3.0 * fit.q_rel_error


def test_fit_json():
    fit = rd.fit_exponential(_exact_binned(290.0), 2.2)
    payload = json.loads(rd.fit_to_json(fit))
    assert set(payload) == {
        "f0_hz",
        "tau_s",
        "q",
        "q_rel_error",
        "residual_norm",
        "n_bins",
    }
    assert payload["q"] == fit.q


def test_replaced_tau_rederives_q():
    fit = rd.fit_exponential(_exact_binned(290.0), 2.2)
    moved = dataclasses.replace(fit, tau=2 * fit.tau)
    assert moved.q == math.pi * 2.2 * (2 * fit.tau)


def test_ringdown_fit_validation():
    with pytest.raises(DomainError):
        rd.RingdownFit(tau=-1.0, f0=2.2, q_rel_error=0.01, residual_norm=1.0, n_bins=8)


def test_synthesize_sample_bound():
    too_long = rd.MAX_SYNTH_SAMPLES / 50.0 + 1.0
    with pytest.raises(DomainError, match="MAX_SYNTH_SAMPLES"):
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, too_long)
    # the bound admits a 7-day 50 Hz record
    assert 7 * 86400 * 50 <= rd.MAX_SYNTH_SAMPLES


@pytest.mark.parametrize("bandwidth", [0.0, -0.5, math.nan])
def test_measure_q_rejects_bad_bandwidth(bandwidth):
    trace = rd.synthesize_ringdown(2.2, 2000.0, 50.0, 240.0)
    with pytest.raises(DomainError, match="bandwidth"):
        rd.measure_q(trace, 2.2, bandwidth, 20.0)
