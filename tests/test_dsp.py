import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import dct
from scipy.linalg import lapack, solve_toeplitz

from gswf import PipelineConfig, ValidationError, Waveform, analyze
from gswf.analysis import LSP_ORDER, cut_segments, extract_segments, row_spectra
import gswf.dsp
from gswf.dsp import (ENV_GUARD, _levinson, _mel_operator, _nudge_rows,
                      _poly_from_circle_roots, autocorr, inverse_spectrum, lpc_predictors,
                      lpc_residual, lsp_envelope, lsp_to_lpc_batch, mel_cepstrum,
                      mel_filterbank, mel_support, reflection_to_lsp_batch, wrap_phase)
from gswf.errors import RowError
from gswf.gci import GciTrack, detect_gci
from gswf.synthesis import decode_phase
from signals import (asymmetric_hann, harmonic_tone, random_stable_lpc, reflection_from_lpc,
                     speech_like)


# ---------------------------------------------------------------- wrapping

def test_wrap_phase_frozen_values():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)  # half-open on the left
    assert wrap_phase(-6.0) == pytest.approx(0.28318530717958623, abs=1e-15)
    assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)


def _wrap_phase_by_mod(x):
    # reference: np.mod over the whole input, then the top half-turn down
    x = np.asarray(x, dtype=np.float64)
    out = np.mod(x, 2 * np.pi, out=np.empty_like(x))
    np.subtract(out, 2 * np.pi, out=out, where=out > np.pi)
    return out


def test_wrap_phase_equals_mod_bit_for_bit():
    rng = np.random.default_rng(12)
    spec = rng.normal(size=(300, 257)) + 1j * rng.normal(size=(300, 257))
    spec[:, :3] = [-1.0, 1.0, -0.0]  # angles pi, 0 and -0.0
    angles = np.angle(spec)
    two_pi = 2 * np.pi
    edges = np.array([-0.0, 0.0, np.pi, -np.pi, np.nextafter(two_pi, 0),
                      -np.nextafter(two_pi, 0), np.nextafter(np.pi, 4),
                      np.nextafter(-np.pi, -4), 5e-324, -5e-324])
    cases = [angles, np.diff(angles, axis=-1), angles[:, ::-1] - angles, edges,
             # a peak of exactly 2 pi or more takes np.mod
             np.append(edges, two_pi), np.append(edges, -two_pi),
             rng.uniform(-50, 50, 1000)]
    for x in cases:
        assert wrap_phase(x).tobytes() == _wrap_phase_by_mod(x).tobytes()
    assert not np.signbit(wrap_phase(np.array([-0.0]))[0])
    assert not np.signbit(wrap_phase(-0.0))


def test_wrap_phase_shapes_and_non_finite_input():
    assert wrap_phase(np.zeros(0)).shape == (0,)
    assert wrap_phase(np.zeros((2, 0))).shape == (2, 0)
    for x in (0.5, -7.0):
        out = wrap_phase(np.float64(x))
        assert type(out) is float and out == _wrap_phase_by_mod(x)
    # non-finite values raise whether the rest would take the add or np.mod
    for x in ([0.5, np.nan], [50.0, np.nan], [0.5, np.inf], [50.0, -np.inf],
              np.nan, -np.inf):
        with pytest.raises(ValidationError):
            wrap_phase(x)


def test_wrap_phase_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-50, 50, 257)
        w = wrap_phase(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        k = rng.integers(-5, 6, x.shape)
        shifted = wrap_phase(x + 2 * np.pi * k)
        assert np.allclose(shifted, w, atol=1e-9)


# ----------------------------------------------------------------- windows

def test_asymmetric_hann_frozen():
    w = asymmetric_hann(2, 3)
    assert np.allclose(w, [0.0, 0.5, 1.0, 0.75, 0.25, 0.0], atol=1e-15)


def test_asymmetric_hann_peak_and_ends():
    rng = np.random.default_rng(4)
    for _ in range(20):
        left = int(rng.integers(1, 200))
        right = int(rng.integers(1, 200))
        w = asymmetric_hann(left, right)
        assert len(w) == left + right + 1
        assert w[left] == 1.0
        assert w[0] == 0.0 and w[-1] == 0.0
        assert np.all(np.diff(w[:left + 1]) >= 0)
        assert np.all(np.diff(w[left:]) <= 0)


def test_asymmetric_hann_partitions_unity_at_constant_period():
    # falling half of one window plus rising half of the next sums to 1
    for period in (7, 80, 133):
        w = asymmetric_hann(period, period)
        fall = w[period:2 * period]
        rise = w[:period]
        assert np.max(np.abs(fall + rise - 1.0)) <= 1e-12


# ---------------------------------------------------------------- spectrum

def _layout_spectra(x, center, span, fft_size):
    # the row cut_segments lays out, its log magnitude and its decoded phase
    rows = cut_segments(Waveform(np.asarray(x, dtype=np.float64), 16000), [center], [span],
                        fft_size)
    (log_mag,), (feature,) = row_spectra(rows)
    return rows[0], log_mag, decode_phase(feature)


def _extract_one(x, center, span, fft_size):
    # the one segment extract_segments cuts at center between the instants
    # span[0] before and span[1] after it, under the oversize policy "error";
    # fft_size is below what PipelineConfig accepts, so a namespace stands in
    left, right = span
    track = GciTrack([center - left, center, center + right], [True] * 3)
    return extract_segments(Waveform(np.asarray(x, dtype=np.float64), 16000), track,
                            SimpleNamespace(fft_size=fft_size, oversize_segment="error"))


def test_spectrum_centered_impulse_is_pure_delay():
    x = np.zeros(20)
    x[9] = 1.0
    row, log_mag, phase = _layout_spectra(x, 9, (3, 3), 8)
    # the instant lands at buffer index fft_size//2
    assert row.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]
    expect = wrap_phase(-2 * np.pi * np.arange(5) * 4 / 8)
    assert np.allclose(phase, expect, atol=1e-12)
    assert np.allclose(np.exp(log_mag), 1.0, atol=1e-9)


def test_spectrum_cosine_peaks_at_its_bin():
    x = np.cos(2 * np.pi * np.arange(400) / 16)
    _, log_mag, _ = _layout_spectra(x, 200, (32, 31), 64)
    assert int(np.argmax(log_mag)) == 4


def test_spectrum_matches_direct_dft():
    rng = np.random.default_rng(8)
    fft_size = 64
    k = np.arange(fft_size // 2 + 1)
    for _ in range(20):
        x = rng.normal(size=200)
        center = int(rng.integers(0, 200))
        left, right = (int(v) for v in rng.integers(1, 40, 2))
        # wings up to 39 samples, so some are truncated to the row's 32 and 31
        _, log_mag, phase = _layout_spectra(x, center, (left, right), fft_size)
        buf = np.zeros(fft_size)
        win = asymmetric_hann(left, right)
        for j in range(-min(left, 32), min(right, 31) + 1):
            if 0 <= center + j < len(x):
                buf[32 + j] = x[center + j] * win[left + j]
        dft = np.array([np.sum(buf * np.exp(-2j * np.pi * kk * np.arange(fft_size) / fft_size))
                        for kk in k])
        assert np.allclose(np.exp(log_mag) - 1e-10, np.abs(dft), atol=1e-8)
        live = np.abs(dft) > 1e-6
        assert np.allclose(wrap_phase(phase[live] - np.angle(dft[live])), 0.0,
                           atol=1e-6)


def test_spectrum_inverse_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=300)
        center = int(rng.integers(0, 300))
        span = tuple(int(v) for v in rng.integers(1, 70, 2))
        row, log_mag, phase = _layout_spectra(x, center, span, 128)
        assert np.allclose(inverse_spectrum(log_mag, phase, 128), row, atol=1e-9)


def test_spectrum_pivot_keeps_instant_at_buffer_center():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = np.zeros(100)
        center = int(rng.integers(0, 100))
        x[center] = 1.0  # the instant carries the spike
        span = tuple(int(v) for v in rng.integers(1, 20, 2))
        _, log_mag, phase = _layout_spectra(x, center, span, 16)
        buf = inverse_spectrum(log_mag, phase, 16)
        assert buf[8] == pytest.approx(1.0, abs=1e-9)
        assert np.sum(np.abs(buf) > 1e-6) == 1


def test_spectrum_rejects_oversize_and_bad_pivot():
    x = np.ones(40)
    with pytest.raises(ValidationError, match="more than fft_size 16"):
        _extract_one(x, 20, (9, 5), 16)
    with pytest.raises(ValidationError, match="more than fft_size 16"):
        # a right wing of fft/2 cannot keep the instant centered
        _extract_one(x, 20, (5, 8), 16)
    _extract_one(x, 20, (8, 7), 16)
    for center in (-1, 40):
        with pytest.raises(ValidationError, match="outside waveform"):
            _layout_spectra(x, center, (5, 5), 16)
    with pytest.raises(ValidationError, match="half lengths"):
        _layout_spectra(x, 20, (0, 5), 16)


def test_inverse_spectrum_projects_dc_and_nyquist():
    # non-real phase at bins 0 and N/2 cannot survive a real signal
    log_mag = np.zeros(9)
    phase = np.zeros(9)
    phase[0] = 1.0
    phase[-1] = 2.0
    buf = inverse_spectrum(log_mag, phase, 16)
    spec = np.fft.rfft(buf)
    assert abs(spec[0].imag) < 1e-12
    assert abs(spec[-1].imag) < 1e-12
    assert spec[0].real == pytest.approx((1.0 + 1e-10) * np.cos(1.0))


# --------------------------------------------------------------------- LPC

def test_levinson_frozen_small_cases():
    (a,), (k,) = lpc_predictors(np.array([[1.0, 0.5, 0.25]]), 2)
    assert np.allclose(a, [1.0, -0.5, 0.0], atol=1e-15)
    assert np.allclose(k, [-0.5, 0.0], atol=1e-15)
    (a1,), (k1,) = lpc_predictors(np.array([[1.0, 0.9]]), 1)
    assert np.allclose(a1, [1.0, -0.9]) and np.allclose(k1, [-0.9])


def test_levinson_matches_toeplitz_solve():
    rng = np.random.default_rng(12)
    for _ in range(30):
        order = int(rng.integers(2, 16))
        a_true = random_stable_lpc(order, rng)
        # autocorrelation of the AR process, from its impulse response
        h = np.zeros(2048)
        h[0] = 1.0
        from scipy.signal import lfilter
        h = lfilter([1.0], a_true, h)
        r = np.correlate(h, h, "full")[len(h) - 1:len(h) + order]
        (a,), (k,) = lpc_predictors(r[None, :], order)
        solved = solve_toeplitz(r[:-1], -r[1:])
        assert np.allclose(a[1:], solved, atol=1e-6)
        assert np.allclose(k, reflection_from_lpc(a_true), atol=1e-6)
        assert np.max(np.abs(np.roots(a))) < 1.0


def test_levinson_clamps_marginal_models():
    # perfectly periodic autocorrelation drives |k| to 1
    r = np.array([[1.0, 1.0, 1.0]])
    assert _levinson(r, 2)[2][0]
    (a,), (k,) = lpc_predictors(r, 2)
    assert np.all(np.abs(k) < 1.0)
    assert np.max(np.abs(np.roots(a))) < 1.0


def test_white_noise_correction_recovers_a_clamped_row():
    # the exact autocorrelation of a stable order-40 model that float64
    # Levinson drives to |k| >= 1; the rerun with r[0] lifted by 1e-9 is a
    # minimum-phase model whose line spectrum round-trips
    rng = np.random.default_rng(30)
    models = [random_stable_lpc(LSP_ORDER, rng) for _ in range(6)]
    r = _ar_autocorr(models[5], LSP_ORDER)[None, :]
    assert _levinson(r, LSP_ORDER)[2][0]
    (a,), k = lpc_predictors(r, LSP_ORDER)
    assert np.max(np.abs(np.roots(a))) < 1.0
    lsp = reflection_to_lsp_batch(k)
    assert np.all(np.diff(lsp) > 0)
    assert np.max(np.abs(lsp_to_lpc_batch(lsp)[0] - a)) < 1e-6 * np.max(np.abs(a))
    # rows that do not clamp keep the first pass's bits
    stack = np.concatenate([r, [_ar_autocorr(m, LSP_ORDER) for m in models[:5]]])
    assert list(_levinson(stack, LSP_ORDER)[2]) == [True] + [False] * 5
    first = lpc_predictors(stack, LSP_ORDER)
    for i in range(1, 6):
        one = lpc_predictors(stack[i:i + 1], LSP_ORDER)
        assert all(_same_bits(x[i], y[0]) for x, y in zip(first, one))


def test_lpc_residual_recovers_ar_excitation():
    rng = np.random.default_rng(13)
    noise = rng.normal(0.0, 0.1, 16000)
    from scipy.signal import lfilter
    a = random_stable_lpc(8, rng)
    x = lfilter([1.0], a, noise)
    res = lpc_residual(Waveform(x / np.max(np.abs(x)), 16000), order=18)
    # inverse filtering should give back the driving noise up to scale
    corr = np.corrcoef(res[2000:-2000], noise[2000:-2000])[0, 1]
    assert corr > 0.95
    assert len(res) == 16000


def test_lpc_residual_rejects_bad_geometry():
    with pytest.raises(ValidationError, match="too short for order 399"):
        lpc_residual(Waveform(np.ones(1000), 16000), 399)
    # at 60 Hz the 5 ms frame shift rounds to no sample, while the 2-sample
    # frame holds order 0
    with pytest.raises(ValidationError, match="under one sample at 60 Hz"):
        lpc_residual(Waveform(np.ones(1000), 60), 0)
    with pytest.raises(ValidationError):
        lpc_residual(Waveform(np.ones(399), 16000), order=18)


def _lfilter_span(x, a, start, stop):
    # reference: scipy's FIR filter over x[start:stop] with len(a) - 1
    # samples of real left context
    from scipy.signal import lfilter
    ctx = max(0, start - (len(a) - 1))
    return lfilter(a, [1.0], x[ctx:stop])[start - ctx:]


def _residual_two_filters_per_span(w, order, frame_s=0.025, shift_s=0.005):
    # reference: each span between frame centers filtered by both of its
    # frames' models, each call with `order` samples of real left context
    x, fs = w.samples, w.fs
    frame_len, shift = int(round(frame_s * fs)), int(round(shift_s * fs))
    win = np.hanning(frame_len)
    starts = np.arange(0, len(x) - frame_len + 1, shift)
    coefs, _ = lpc_predictors(np.array([autocorr(x[s:s + frame_len] * win, order)
                                        for s in starts]), order)
    centers = starts + frame_len // 2
    res = np.empty_like(x)
    res[:centers[0]] = _lfilter_span(x, coefs[0], 0, centers[0])
    res[centers[-1]:] = _lfilter_span(x, coefs[-1], centers[-1], len(x))
    for m in range(len(centers) - 1):
        a0, b0 = centers[m], centers[m + 1]
        alpha = np.arange(b0 - a0) / (b0 - a0)
        res[a0:b0] = ((1.0 - alpha) * _lfilter_span(x, coefs[m], a0, b0)
                      + alpha * _lfilter_span(x, coefs[m + 1], a0, b0))
    return res


@pytest.mark.parametrize("length", [16000, 400, 403, 480])
def test_lpc_residual_equals_two_filters_per_span(length):
    # the array pass must give the per-span filters' bits, down to a single
    # frame (400 samples), two frames (480) and a ragged tail
    for w in (speech_like()[0], harmonic_tone()[0]):
        short = Waveform(w.samples[:length], w.fs)
        got = lpc_residual(short, order=18)
        assert got.tobytes() == _residual_two_filters_per_span(short, 18).tobytes()


@pytest.mark.parametrize("fs", [8000, 22050])
def test_lpc_residual_equals_two_filters_per_span_at_other_rates(fs):
    # other frame, shift and order geometry; at 8 kHz the 11-tap filters
    # take numpy's small-kernel loop instead of ddot
    w = speech_like(fs=fs)[0]
    order = int(fs / 1000) + 2  # the order GCI detection uses
    got = lpc_residual(w, order)
    assert got.tobytes() == _residual_two_filters_per_span(w, order).tobytes()


def test_lpc_residual_spans_near_the_file_start():
    # at 1 kHz the first frame center (12) lies within `order` samples of
    # the file start, where no frame's filter has its full context
    w = Waveform(np.random.default_rng(14).normal(size=600), 1000)
    with pytest.raises(ValidationError, match="frame of 25 samples too short for order 16"):
        lpc_residual(w, order=16)
    # the first center must lie past the first `order` samples: 12 samples
    # hold order 11 and not order 12
    assert lpc_residual(w, order=10).tobytes() == _residual_two_filters_per_span(w, 10).tobytes()
    assert len(lpc_residual(w, order=11)) == 600
    with pytest.raises(ValidationError, match="too short for order 12"):
        lpc_residual(w, order=12)


# --------------------------------------------------------------------- LSP

def _lsp(k):
    return reflection_to_lsp_batch(np.asarray(k, dtype=np.float64)[None, :])[0]


def test_lsp_flat_models_give_uniform_grid():
    assert np.allclose(_lsp([0.0, 0.0]), [np.pi / 3, 2 * np.pi / 3], atol=1e-9)
    assert np.allclose(_lsp(np.zeros(4)), np.arange(1, 5) * np.pi / 5, atol=1e-9)


def test_lsp_rejects_non_minimum_phase():
    with pytest.raises(ValidationError, match="magnitude >= 1"):
        _lsp([-1.5])


def test_lsp_converters_refuse_odd_orders():
    # the feature file stores an even number of frequencies; a magnitude
    # error still comes first
    for p in (1, 3, 7):
        with pytest.raises(ValidationError, match=f"need an even order, got {p}"):
            reflection_to_lsp_batch(np.zeros((2, p)))
        with pytest.raises(ValidationError, match=f"need an even order, got {p}"):
            lsp_to_lpc_batch(np.linspace(0.1, 3.0, p)[None, :])
        with pytest.raises(ValidationError, match=f"need an even order, got {p}"):
            lsp_envelope(np.linspace(0.1, 3.0, p)[None, :], 512)


def test_lsp_roundtrip_and_interlacing():
    rng = np.random.default_rng(14)
    for _ in range(60):
        order = int(rng.choice([2, 4, 10, 16, 24, 40]))
        a = random_stable_lpc(order, rng)
        f = _lsp(reflection_from_lpc(a))
        assert np.all(f > 0) and np.all(f < np.pi)
        assert np.all(np.diff(f) > 0)
        back = lsp_to_lpc_batch(f[None, :])[0]
        assert np.max(np.abs(back - a)) < 1e-6
        assert len(back) == order + 1


def _lpc_from_reflection(k):
    a = np.array([1.0])
    for km in k:
        ext = np.append(a, 0.0)
        a = ext + km * ext[::-1]
    return a


def test_lsp_accepts_frequencies_at_interval_edges():
    # reflection coefficients at Levinson's +/-0.999 clamp push line spectral
    # frequencies to within ~1e-7 of 0 and pi; those models are still
    # minimum phase
    rng = np.random.default_rng(2)
    edge = np.pi
    for order in (10, 24, 40):
        for _ in range(40):
            k = rng.uniform(-0.9, 0.9, order)
            k[rng.choice(order, 3, replace=False)] = rng.choice([-0.999, 0.999], 3)
            a = _lpc_from_reflection(k)
            f = _lsp(k)
            assert np.all(f > 0) and np.all(f < np.pi)
            assert np.all(np.diff(f) > 0)
            assert np.max(np.abs(lsp_to_lpc_batch(f[None, :])[0] - a)) < 1e-6
            edge = min(edge, f[0], np.pi - f[-1])
    assert edge < 1e-6


def test_lsp_converts_every_model_with_coefficients_near_one():
    # 1080 models with 3, 4 or 6 reflection coefficients at +/-0.999, whose
    # line spectral frequencies crowd within rounding of each other and of
    # 0 and pi: every one converts from its k and round-trips
    rng = np.random.default_rng(11)
    for order in (10, 24, 40):
        for n_edge in (3, 4, 6):
            k = rng.uniform(-0.9, 0.9, (120, order))
            for row in k:
                row[rng.choice(order, n_edge, replace=False)] = rng.choice(
                    [-0.999, 0.999], n_edge)
            lsp = reflection_to_lsp_batch(k)
            assert np.all(lsp > 0) and np.all(lsp < np.pi)
            assert np.all(np.diff(lsp, axis=1) > 0)
            for row, back in zip(k, lsp_to_lpc_batch(lsp)):
                a = _lpc_from_reflection(row)
                assert np.max(np.abs(back - a)) < 1e-6 * np.max(np.abs(a))


def test_lsp_alternates_p_and_q_roots():
    # P roots (even slots) and Q roots (odd slots) interleave by construction;
    # verify against the polynomial factorizations directly
    for order in (6, 8):
        a = random_stable_lpc(order, np.random.default_rng(15))
        rev = a[::-1]
        P = np.concatenate([a, [0.0]]) + np.concatenate([[0.0], rev])
        Q = np.concatenate([a, [0.0]]) - np.concatenate([[0.0], rev])
        for i, w in enumerate(_lsp(reflection_from_lpc(a))):
            poly = P if i % 2 == 0 else Q
            val = np.polyval(poly[::-1], np.exp(-1j * w))
            assert abs(val) < 1e-8


# ------------------------------------------------------------ batched rows

def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _ar_autocorr(a, order):
    from scipy.signal import lfilter
    h = np.zeros(2048)
    h[0] = 1.0
    h = lfilter([1.0], a, h)
    return np.correlate(h, h, "full")[len(h) - 1:len(h) + order]


def _speech_autocorrs():
    # the segments of speech_like() and a unit impulse, whose recursion gives
    # the flat predictor
    w, f0 = speech_like()
    segments = extract_segments(w, detect_gci(w, f0), PipelineConfig())
    rows = [autocorr(row, LSP_ORDER) for row in segments]
    return np.array(rows + [np.eye(1, LSP_ORDER + 1)[0]])


def _check_composition(batch, one_row, stack):
    """Each row of batch(stack) equals one_row(row) bit for bit, and any
    sub-batch or permutation gives the same rows."""
    full = batch(stack)
    for i, row in enumerate(stack):
        for got, want in zip(one_row(row), full):
            assert _same_bits(got, want[i]), i
    perm = np.random.default_rng(31).permutation(len(stack))
    for pick in (perm, perm[:7], np.arange(0, len(stack), 3), [len(stack) - 1]):
        for got, want in zip(batch(stack[pick]), full):
            assert _same_bits(got, want[pick])


def test_levinson_rows_do_not_depend_on_the_batch():
    # autocorrelations of criterion-7-style random stable order-40 models
    rng = np.random.default_rng(30)
    ar = [_ar_autocorr(random_stable_lpc(LSP_ORDER, rng), LSP_ORDER) for _ in range(12)]
    stack = np.concatenate([ar, _speech_autocorrs()])
    assert np.all(stack[:, 0] > 0) and len(stack) > 100

    def one_row(r):
        return [x[0] for x in lpc_predictors(r[None, :], LSP_ORDER)]

    _check_composition(lambda r: lpc_predictors(r, LSP_ORDER), one_row, stack)


def test_lsp_rows_do_not_depend_on_the_batch():
    # criterion-7-style random stable order-40 models, then the reflection
    # coefficients of speech_like() segments and of the flat predictor
    rng = np.random.default_rng(30)
    models = [reflection_from_lpc(random_stable_lpc(LSP_ORDER, rng)) for _ in range(12)]
    stack = np.concatenate([models, lpc_predictors(_speech_autocorrs(), LSP_ORDER)[1]])
    assert not np.any(stack[-1])
    _check_composition(lambda k: (reflection_to_lsp_batch(k),),
                       lambda row: (reflection_to_lsp_batch(row[None, :])[0],), stack)


def _lsp_doubled_reference(k):
    """The full-size finder: the eigenvalues mu of the (p+1)-sized
    tridiagonal L + M of each polynomial, diagonal alpha_j - alpha_{j-1}
    and off-diagonal sqrt(1 - alpha_j^2), give theta = 2 arccos(|mu| / 2).
    Sorted, the 2p + 2 angles are a trivial zero at 0, each frequency twice
    and a trivial zero at pi; the mean of each pair is kept."""
    rows, p = k.shape
    alpha = np.empty((rows, 2, p + 2))
    alpha[:, :, 0] = -1.0
    alpha[:, :, 1:-1] = -k[:, None, :]
    alpha[:, :, -1] = [-1.0, 1.0]
    diag = np.diff(alpha, axis=2).reshape(rows, -1)
    off = np.zeros((rows, 2, p + 1))
    off[:, :, :p] = np.sqrt((1.0 - k) * (1.0 + k))[:, None, :]
    off = off.reshape(rows, -1)[:, :-1]
    mu = np.empty_like(diag)
    for i in range(rows):
        mu[i], info = lapack.dsterf(diag[i], off[i])
        assert info == 0
    theta = np.sort(2.0 * np.arccos(np.minimum(np.abs(mu) / 2.0, 1.0)), axis=1)
    return 0.5 * (theta[:, 1:-1:2] + theta[:, 2:-1:2])


def test_lsp_half_size_finder_matches_the_doubled_spectrum():
    # the p/2-sized bidiagonal blocks against the (p+1)-sized L + M blocks
    # on speech_like() segments, the flat predictor and random stable models
    stacks = [lpc_predictors(_speech_autocorrs(), LSP_ORDER)[1]]
    rng = np.random.default_rng(35)
    for order in (2, 8, 10, 40):
        stacks.append(np.array([reflection_from_lpc(random_stable_lpc(order, rng))
                                for _ in range(200)]))
    for k in stacks:
        got = reflection_to_lsp_batch(k)
        assert got.shape == k.shape
        assert np.max(np.abs(got - _lsp_doubled_reference(k))) < 1e-12, k.shape


def _lsp_dsterf_reference(k):
    """The same half-size blocks, both of a row in one LAPACK dsterf call
    (the zero off-diagonal between them splits the matrix), row by row."""
    rows, p = k.shape
    half = p // 2
    c = np.sqrt((1.0 - k) / 2.0)
    g = np.zeros((rows, 2, p))
    g[:, :, :p - 1] = (c[:, :-1] * np.sqrt((1.0 + k[:, 1:]) / 2.0))[:, None, :]
    g[:, 0, p - 1] = c[:, -1]
    diag = (g[:, :, 0::2] ** 2 + g[:, :, 1::2] ** 2).reshape(rows, -1)
    off = np.zeros((rows, 2, half))
    off[:, :, :-1] = g[:, :, 1:-1:2] * g[:, :, 2::2]
    off = off.reshape(rows, -1)[:, :-1]
    lam = np.empty_like(diag)
    for i in range(rows):
        lam[i], info = lapack.dsterf(diag[i], off[i])
        assert info == 0
    theta = np.sort(2.0 * np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0))), axis=1)
    return _nudge_rows(np.clip(theta, 1e-12, np.pi - 1e-12), 1e-9)


def test_lsp_batched_eigvalsh_is_the_dsterf_finder_bit_for_bit():
    # speech_like() segments with the flat predictor last, random stable
    # models at even orders 2-40, and order-40 rows with |k| up to 0.9999
    speech = lpc_predictors(_speech_autocorrs(), LSP_ORDER)[1]
    assert not np.any(speech[-1])
    stacks = [speech]
    rng = np.random.default_rng(36)
    for order in range(2, LSP_ORDER + 1, 2):
        stacks.append(np.array([reflection_from_lpc(random_stable_lpc(order, rng))
                                for _ in range(40)]))
    stacks.append(rng.uniform(-0.9999, 0.9999, size=(500, LSP_ORDER)))
    edge = rng.uniform(0.999, 0.9999, size=(100, LSP_ORDER))
    stacks.append(edge * rng.choice([-1.0, 1.0], size=edge.shape))
    for k in stacks:
        assert _same_bits(reflection_to_lsp_batch(k), _lsp_dsterf_reference(k)), k.shape


def test_lsp_eigenvalue_failure_names_the_rows(monkeypatch):
    # LAPACK reports a non-converging stack as a whole; the rows named are
    # the ones that fail on their own
    rng = np.random.default_rng(37)
    k = np.array([reflection_from_lpc(random_stable_lpc(10, rng)) for _ in range(6)])
    eigvalsh, seen = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
    reflection_to_lsp_batch(k)
    half = seen[0].shape[-1]
    poisoned = seen[0][[1, 4]].reshape(-1, half, half)

    def failing(a):
        # fails on any stack that holds a block of rows 1 or 4
        if any(np.array_equal(b, p) for b in a.reshape(-1, half, half) for p in poisoned):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(RowError, match=r"^tridiagonal eigenvalue iteration did not "
                                       r"converge \(row 1; 2 of 6 rows fail\)$") as err:
        reflection_to_lsp_batch(k)
    assert err.value.rows == [1, 4]
    assert _same_bits(reflection_to_lsp_batch(k[[0, 2, 3, 5]]),
                      _lsp_dsterf_reference(k[[0, 2, 3, 5]]))


def _poly_by_row_loop(w):
    # reference: the row-major loop, one new array per factor; each
    # coefficient sums p[j-2], then -2 cos(w_i) p[j-1], then p[j]
    w = np.asarray(w)
    rows, k = int(np.prod(w.shape[:-1])), w.shape[-1]
    q = -2.0 * np.cos(w.astype(np.longdouble)).reshape(rows, k, 1)
    buf = np.zeros((rows, 2 * k + 5), dtype=np.longdouble)
    buf[:, 2] = 1.0
    for i in range(k):
        n = 2 * i + 3
        nxt = buf[:, :n] + q[:, i] * buf[:, 1:n + 1]
        nxt += buf[:, 2:n + 2]
        buf[:, 2:n + 2] = nxt
    return buf[:, 2:2 * k + 3].reshape(w.shape[:-1] + (2 * k + 1,))


def test_circle_root_product_matches_the_row_loop():
    rng = np.random.default_rng(35)
    for k in range(25):
        spread = np.sort(rng.uniform(0.0, np.pi, (2, 40, k)), axis=-1)
        # clustered roots, where the products lose the most digits
        cluster = rng.uniform(0.1, 3.0, (40, 1)) + rng.uniform(-1e-6, 1e-6, (40, k))
        for w in (spread, cluster, cluster[0]):
            got, ref = _poly_from_circle_roots(w), _poly_by_row_loop(w)
            assert got.dtype == np.longdouble and got.shape == ref.shape
            # equal values with equal signs: the same bits, whatever the
            # padding bytes of the longdouble storage hold
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                               np.signbit(ref))


def _lsp_to_lpc_by_convolution(f):
    # the np.convolve chain whose sums lsp_to_lpc_batch makes as shifted adds
    one, p = np.longdouble(1.0), len(f)
    psum = np.convolve(_poly_from_circle_roots(f[0::2]), [one, one])
    qdif = np.convolve(_poly_from_circle_roots(f[1::2]), [one, -one])
    return (0.5 * (psum + qdif)[:p + 1]).astype(np.float64)


def test_lsp_to_lpc_rows_match_the_convolution_chain():
    rng = np.random.default_rng(33)
    for order in (2, 10, 40):
        lsp = reflection_to_lsp_batch(np.array([reflection_from_lpc(random_stable_lpc(order, rng))
                                                for _ in range(6)]))
        for row, f in zip(lsp_to_lpc_batch(lsp), lsp):
            assert _same_bits(row, _lsp_to_lpc_by_convolution(f))
    # the line spectra of speech_like() segments, one row and any sub-batch
    stack = reflection_to_lsp_batch(lpc_predictors(_speech_autocorrs(), LSP_ORDER)[1])
    _check_composition(lambda f: (lsp_to_lpc_batch(f),),
                       lambda row: (lsp_to_lpc_batch(row[None, :])[0],), stack)


def test_lsp_to_lpc_splits_glued_pairs_and_names_bad_rows():
    rng = np.random.default_rng(34)
    lsp = reflection_to_lsp_batch(np.array([reflection_from_lpc(random_stable_lpc(10, rng))
                                            for _ in range(4)]))
    glued = lsp.copy()
    glued[1, 4] = glued[1, 3] - 5e-5  # within float32 rounding of a tight pair
    split = glued[1].copy()
    split[4] = np.nextafter(split[3], np.inf)
    back = lsp_to_lpc_batch(glued)
    assert _same_bits(back[1], lsp_to_lpc_batch(split[None, :])[0])
    assert _same_bits(back[[0, 2, 3]], lsp_to_lpc_batch(lsp[[0, 2, 3]]))
    bad = lsp.copy()
    bad[2, 4] = bad[2, 3] - 1e-3
    bad[3, -1] = np.pi
    with pytest.raises(RowError, match=r"out of order by 1\.000e-03 at index 4 "
                                       r"\(row 2; 2 of 4 rows fail\)") as err:
        lsp_to_lpc_batch(bad)
    assert err.value.rows == [2, 3]


def test_spectrum_rows_match_single_segment_calls():
    rng = np.random.default_rng(32)
    x = rng.normal(0.0, 0.1, 4000)
    # 150 rows: three rfft blocks
    rows = cut_segments(Waveform(x, 16000), rng.integers(0, 4000, 150),
                        rng.integers(50, 250, (150, 2)), 512)
    log_mag, phase = row_spectra(rows)
    for i, row in enumerate(rows):
        (one_mag,), (one_phase,) = row_spectra(row[None, :])
        assert _same_bits(one_mag, log_mag[i]) and _same_bits(one_phase, phase[i])


def test_batch_errors_name_the_first_failing_row(monkeypatch):
    # silent rows never reach the recursion and the white-noise rerun lifts
    # a clamped row to positive definite, so no known autocorrelation
    # collapses it; a stub marks row 3 collapsed
    def collapse_row_3(r, order):
        a, k, clamped, collapsed = levinson(r, order)
        collapsed[3] = True
        return a, k, clamped, collapsed

    levinson = gswf.dsp._levinson
    with monkeypatch.context() as m:
        m.setattr(gswf.dsp, "_levinson", collapse_row_3)
        with pytest.raises(RowError, match=r"collapsed.*row 3; 1 of 5 rows") as err:
            lpc_predictors(np.tile(np.eye(1, 3)[0], (5, 1)), 2)
    assert err.value.rows == [3] and err.value.exit_code == 3
    # a reflection coefficient of magnitude >= 1 is no minimum-phase model
    k = lpc_predictors(_speech_autocorrs()[:6], LSP_ORDER)[1]
    k[4, 7] = -1.0
    with pytest.raises(RowError, match=r"magnitude >= 1.*row 4; 1 of 6 rows") as err:
        reflection_to_lsp_batch(k)
    assert err.value.rows == [4]


# ---------------------------------------------------------------- envelope

def test_lsp_envelope_order_two_pointwise():
    # (P + Q) / 2 of an order-2 model is 1 - (c1 + c2) z^-1 + (1 - c1 + c2) z^-2
    # with c_i = cos f_i, so |A| is known in closed form on every bin
    lsp = np.array([[0.3, 1.1], [1.9, 2.8], [0.05, 3.1]])
    env = lsp_envelope(lsp, 512)
    assert env.shape == (3, 257)
    z = np.exp(-1j * np.pi * np.arange(257) / 256)
    for row, (f1, f2) in zip(env, lsp):
        c1, c2 = np.cos(f1), np.cos(f2)
        expect = -np.log(np.abs(1.0 - (c1 + c2) * z + (1.0 - c1 + c2) * z * z))
        assert np.max(np.abs(row - expect)) < 1e-13
    # an FFT shorter than the polynomial is refused, as the rfft of the
    # polynomial would alias
    with pytest.raises(ValidationError, match="fft_size 40 too small for order 40"):
        lsp_envelope(np.linspace(0.1, 3.0, 40)[None, :], 40)
    assert lsp_envelope(np.linspace(0.1, 3.0, 40)[None, :], 42).shape == (1, 22)


def _lsp_envelope_by_factors(lsp, fft_size):
    # -log|A| with A = (P + Q) / 2 and P, Q the products of their factors
    # 1 - 2 cos(f) z^-1 + z^-2 times 1 + z^-1 and 1 - z^-1, evaluated on the
    # kernel's bins in extended precision; no identity and no guard
    f = np.asarray(lsp, dtype=np.longdouble)[:, :, None]
    w = (np.pi * np.arange(fft_size // 2 + 1) / (fft_size // 2)).astype(np.longdouble)
    z = np.cos(w) - 1j * np.sin(w)
    quad = 1.0 - 2.0 * np.cos(f) * z + z * z
    p = (1.0 + z) * np.prod(quad[:, 0::2], axis=1)
    q = (1.0 - z) * np.prod(quad[:, 1::2], axis=1)
    return (-np.log(np.abs(0.5 * (p + q)))).astype(np.float64)


def test_lsp_envelope_matches_the_extended_precision_factor_product():
    rng = np.random.default_rng(27)
    stacks = [reflection_to_lsp_batch(np.array(
        [reflection_from_lpc(random_stable_lpc(LSP_ORDER, rng)) for _ in range(200)]))]
    for make in (harmonic_tone, speech_like):
        w, contour = make()
        stacks.append(analyze(w, contour, PipelineConfig(mode="parametric")).lsp)
    for lsp in stacks:
        assert np.max(np.abs(lsp_envelope(lsp, 512) - _lsp_envelope_by_factors(lsp, 512))) \
            < 1e-11


def test_lsp_envelope_splits_glued_pairs_names_bad_rows_and_guards_zeros():
    rng = np.random.default_rng(34)
    lsp = reflection_to_lsp_batch(np.array([reflection_from_lpc(random_stable_lpc(10, rng))
                                            for _ in range(4)]))
    glued = lsp.copy()
    glued[1, 4] = glued[1, 3] - 5e-5  # within float32 rounding of a tight pair
    split = glued[1].copy()
    split[4] = np.nextafter(split[3], np.inf)
    env = lsp_envelope(glued, 256)
    assert _same_bits(env[1], lsp_envelope(split[None, :], 256)[0])
    assert _same_bits(env[[0, 2, 3]], lsp_envelope(lsp[[0, 2, 3]], 256))
    bad = lsp.copy()
    bad[2, 4] = bad[2, 3] - 1e-3
    bad[3, -1] = np.pi
    with pytest.raises(RowError, match=r"out of order by 1\.000e-03 at index 4 "
                                       r"\(row 2; 2 of 4 rows fail\)") as err:
        lsp_envelope(bad, 256)
    assert err.value.rows == [2, 3]
    # a pair glued on bin 40 puts a zero of |A| there: the envelope stops at
    # -log(ENV_GUARD) and every other bin stays below it
    on_bin = np.pi * 40 / 256
    env = lsp_envelope(np.array([[on_bin, on_bin]]), 512)[0]
    assert env[40] == pytest.approx(-np.log(ENV_GUARD), rel=1e-15)
    assert np.all(np.delete(env, 40) < env[40])


# ------------------------------------------------------------ mel cepstrum

def test_mel_filterbank_shape_and_normalization():
    fb = mel_filterbank(257, 16000)
    assert fb.shape == (40, 257)
    assert np.allclose(fb.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(fb >= 0)


def test_mel_filterbank_rejects_empty_bands():
    with pytest.raises(ValidationError):
        mel_filterbank(17, 16000)


def test_mel_support_predicts_the_filterbank():
    for fs in (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 96000):
        for fft_size in (32, 64, 128, 256, 512, 1024):
            try:
                mel_filterbank(fft_size // 2 + 1, fs)
                built = True
            except ValidationError:
                built = False
            assert mel_support(fft_size // 2 + 1, fs) == built
    assert not mel_support(65, 16000) and mel_support(129, 16000)
    assert not mel_support(129, 44100) and mel_support(257, 48000)


def test_mel_cepstrum_flat_spectrum_is_dc_only():
    c = 0.3
    out = mel_cepstrum(np.full(257, c), 16000)
    assert len(out) == 25
    assert out[0] == pytest.approx(2 * c * np.sqrt(40))
    assert np.max(np.abs(out[1:])) < 1e-12


def test_mel_cepstrum_level_shift_moves_only_c0():
    rng = np.random.default_rng(16)
    log_mag = rng.normal(0.0, 0.5, 257)
    a = mel_cepstrum(log_mag, 16000)
    b = mel_cepstrum(log_mag + 1.0, 16000)
    assert b[0] != pytest.approx(a[0])
    assert np.allclose(a[1:], b[1:], atol=1e-9)
    # a (frames, bins) array gives the 1-d result row by row
    both = mel_cepstrum(np.stack([log_mag, log_mag + 1.0]), 16000)
    assert both.shape == (2, 25)
    assert np.max(np.abs(both - np.stack([a, b]))) <= 1e-12


def test_mel_cepstrum_matches_independent_oracle():
    # one-formant envelope through a hand-rolled filterbank + DCT-II
    w = np.pi * np.arange(257) / 256
    log_mag = -np.log(np.abs(1.0 - 0.92 * np.exp(-1j * (w - 0.6))))
    got = mel_cepstrum(log_mag, 16000)

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    fs, n_bands, n_bins = 16000, 40, 257
    freqs = np.arange(n_bins) * (fs / 2) / (n_bins - 1)
    edges = np.interp(np.arange(n_bands + 2),
                      [0, n_bands + 1], [0.0, hz_to_mel(fs / 2)])
    hz_edges = 700.0 * (10.0 ** (edges / 2595.0) - 1.0)
    power = np.exp(2.0 * log_mag)
    bands = np.zeros(n_bands)
    for b in range(n_bands):
        lo, mid, hi = hz_edges[b], hz_edges[b + 1], hz_edges[b + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        tri = np.clip(np.minimum(up, down), 0.0, None)
        tri = tri / np.sum(tri)
        bands[b] = np.log(np.maximum(np.dot(tri, power), 1e-10))
    expect = dct(bands, type=2, norm="ortho")[:25]
    assert np.allclose(got, expect, atol=1e-9)


def _filterbank_product_cepstrum(log_mag, fs):
    # the formula mel_cepstrum replaced, kept as the reference: the dense
    # filterbank as a matrix product, then scipy's orthonormal DCT-II of the
    # 40 bands, coefficients 0..24
    bank = mel_filterbank(log_mag.shape[-1], fs)
    band = np.log(np.maximum(np.exp(2.0 * log_mag) @ bank.T, 1e-10))
    return dct(band, type=2, norm="ortho", axis=-1)[..., :25]


def test_mel_cepstrum_matches_the_filterbank_product_and_scipy_dct():
    w, f0 = speech_like()
    speech = row_spectra(extract_segments(w, detect_gci(w, f0), PipelineConfig()))[0]
    rng = np.random.default_rng(40)
    cases = [(speech, 16000)]
    for fs, fft_size in ((8000, 256), (16000, 512), (22050, 1024), (48000, 2048)):
        cases.append((rng.normal(0.0, 2.0, (200, fft_size // 2 + 1)), fs))
    cases.append((speech[7], 16000))
    for log_mag, fs in cases:
        got = mel_cepstrum(log_mag, fs)
        want = _filterbank_product_cepstrum(log_mag, fs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
    # the weights and the DCT basis are built once and shared read-only
    ops = _mel_operator(257, 16000.0)
    assert _mel_operator(257, 16000.0) is ops
    assert not any(a.flags.writeable for a in ops)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a spinning worker needs a second core")
def test_mel_cepstrum_leaves_no_blas_worker_spinning():
    # OpenBLAS runs a (300, 257) x (257, 40) gemm on two threads, and its
    # worker then busy-waits on a core for ~0.1 s: the process's CPU time
    # over a sleep after scoring shows such a spin
    log_mag = np.random.default_rng(41).normal(0.0, 2.0, (300, 257))
    time.sleep(0.2)  # a worker that an earlier test woke goes idle first
    for _ in range(3):
        mel_cepstrum(log_mag, 16000)
    cpu, wall = time.process_time(), time.perf_counter()
    time.sleep(0.1)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu < 0.3 * wall
