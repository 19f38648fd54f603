"""Ring-down synthesis, envelope extraction, binning, and Q fitting."""

import json
import math
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
        rd.synthesize_ringdown(2.2, 2000.0, 8.0, 60.0)  # needs fs >= 4 f0
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 4.0)  # < 10 cycles
    with pytest.raises(DomainError):
        rd.synthesize_ringdown(2.2, 2000.0, 50.0, 60.0, noise_rms=-0.1)


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


def test_ringdown_fit_validation():
    with pytest.raises(DomainError, match="pi"):
        rd.RingdownFit(
            tau=100.0, f0=2.2, q=500.0, q_rel_error=0.01, residual_norm=1.0, n_bins=8
        )
    with pytest.raises(DomainError):
        rd.RingdownFit(
            tau=-1.0, f0=2.2, q=1.0, q_rel_error=0.01, residual_norm=1.0, n_bins=8
        )
