"""Synthetic test signals with known ground truth.

Every generator returns float64 audio normalized well inside full scale and
a reference F0 contour at the default 5 ms shift, so the same fixtures feed
GCI, round-trip and metric tests.
"""

import numpy as np
from scipy.signal import lfilter

from gswf import F0Contour, ValidationError, Waveform
from gswf.analysis import window_rows
from gswf.synthesis import _add_wings

FRAME_SHIFT = 0.005


def asymmetric_hann(left, right):
    """Raised-cosine window rising over `left` samples and falling over
    `right`, length left + right + 1.  Endpoints are exactly 0, the peak is
    exactly 1 at index `left`.  The reference for the rows of
    analysis.window_rows, which must match it bit for bit."""
    if left < 1 or right < 1:
        raise ValidationError(f"window half lengths must be >= 1, got ({left}, {right})")
    j = np.arange(left + 1)
    rise = 0.5 - 0.5 * np.cos(np.pi * j / left)
    i = np.arange(1, right + 1)
    fall = 0.5 - 0.5 * np.cos(np.pi * (right - i) / right)
    return np.concatenate([rise, fall])


def window_envelope(spans, positions, total_len, fft_size):
    """Sum of the analysis windows of (left, right) spans at their
    positions, over the wings an fft_size row holds: the envelope that
    synthesis divides by, built from the same window_rows and _add_wings."""
    env = np.zeros(total_len)
    _add_wings(env, window_rows(spans, fft_size), positions, spans)
    return env


def contour_from_f0(f0_per_sample, fs, frame_shift_s=FRAME_SHIFT):
    """Sample-rate F0 curve down to one value per frame (frame start)."""
    f0_per_sample = np.asarray(f0_per_sample, dtype=np.float64)
    shift = int(round(frame_shift_s * fs))
    n_frames = int(np.ceil(len(f0_per_sample) / shift))
    idx = np.minimum(np.arange(n_frames) * shift, len(f0_per_sample) - 1)
    return F0Contour(f0_per_sample[idx], frame_shift_s)


def harmonic_tone(fs=16000, f0=120.0, dur=1.0, n_harm=10, seed=42):
    """Sum of n_harm harmonics with 1/k rolloff and random fixed phases."""
    t = np.arange(int(round(fs * dur))) / fs
    rng = np.random.default_rng(seed)
    x = np.zeros_like(t)
    for k in range(1, n_harm + 1):
        x += (1.0 / k) * np.sin(2 * np.pi * k * f0 * t + rng.uniform(-np.pi, np.pi))
    x *= 0.5 / np.max(np.abs(x))
    return Waveform(x, fs), contour_from_f0(np.full(len(t), f0), fs)


def _tract(sections, fs):
    """All-pole denominator for a cascade of (center_hz, bandwidth_hz) resonances."""
    den = np.array([1.0])
    for fc, bw in sections:
        r = np.exp(-np.pi * bw / fs)
        den = np.convolve(den, [1.0, -2.0 * r * np.cos(2 * np.pi * fc / fs), r * r])
    return den


def pulse_train(fs=16000, f0=120.0, dur=1.0,
                formants=((500, 80), (1500, 120), (2500, 160))):
    """Negative glottal pulses at exact periodic instants through a static
    vocal-tract filter.  Returns (waveform, true_instants, contour)."""
    n = int(round(fs * dur))
    period = fs / f0
    instants = np.round(np.arange(period, n - period, period)).astype(np.int64)
    exc = np.zeros(n)
    exc[instants] = -1.0
    x = lfilter([1.0], _tract(formants, fs), exc)
    x *= 0.5 / np.max(np.abs(x))
    return Waveform(x, fs), instants, contour_from_f0(np.full(n, f0), fs)


def speech_like(fs=16000, seed=7, frame_shift_s=FRAME_SHIFT):
    """One-second voiced/unvoiced/voiced utterance: two vowel stretches with
    gliding F0 around a noise burst.  Returns (waveform, contour), the
    contour at frame_shift_s."""
    rng = np.random.default_rng(seed)
    n = fs
    v1 = slice(0, int(0.40 * fs))
    uv = slice(int(0.40 * fs), int(0.60 * fs))
    v2 = slice(int(0.60 * fs), n)
    f0_inst = np.zeros(n)
    f0_inst[v1] = np.linspace(100.0, 130.0, v1.stop - v1.start)
    f0_inst[v2] = np.linspace(130.0, 110.0, v2.stop - v2.start)

    def pulses(region):
        exc = np.zeros(n)
        pos = float(region.start) + fs / f0_inst[region.start]
        while pos < region.stop - 1:
            exc[int(round(pos))] = -1.0
            pos += fs / f0_inst[int(pos)]
        return exc

    x = lfilter([1.0], _tract(((660, 90), (1720, 110), (2410, 140)), fs), pulses(v1))
    x += lfilter([1.0], _tract(((300, 100), (870, 120), (2240, 150)), fs), pulses(v2))
    noise = np.zeros(n)
    noise[uv] = rng.normal(0.0, 1.0, uv.stop - uv.start)
    frica = lfilter([1.0], _tract(((4500, 900),), fs), noise)
    x += 0.15 * frica / max(np.max(np.abs(frica)), 1e-12)
    x *= 0.5 / np.max(np.abs(x))
    return Waveform(x, fs), contour_from_f0(f0_inst, fs, frame_shift_s)


def random_stable_lpc(order, rng):
    """Stable LPC polynomial from random in-circle pole pairs."""
    a = np.array([1.0])
    for _ in range(order // 2):
        radius = rng.uniform(0.4, 0.97)
        angle = rng.uniform(0.05, np.pi - 0.05)
        a = np.convolve(a, [1.0, -2.0 * radius * np.cos(angle), radius * radius])
    if order % 2:
        a = np.convolve(a, [1.0, -rng.uniform(-0.9, 0.9)])
    return a


def reflection_from_lpc(a):
    """Reflection coefficients k_1..k_p of a prediction error polynomial
    (a[0] = 1) by the step-down recursion, the inverse of Levinson's
    step-up; the model is minimum phase when every |k| < 1."""
    a = np.asarray(a, dtype=np.float64)
    k = np.empty(len(a) - 1)
    for m in range(len(a) - 1, 0, -1):
        k[m - 1] = a[m]
        a = (a[:m] - a[m] * a[m:0:-1]) / (1.0 - a[m] * a[m])
    return k


def low_pitch_onsets(fs=16000, f0=(110.0, 150.0), seed=0):
    """1.2 s of unvoiced lead-in, two low-pitched vowel stretches around a
    noise burst, and an unvoiced tail.  The contour marks each stretch
    voiced from one period before its first pulse, on a frame boundary, as
    a pitch tracker that leads the excitation would.  F0 glides from f0[0]
    to f0[1] over the utterance.  Returns (waveform, contour)."""
    rng = np.random.default_rng(seed)
    n = int(round(1.2 * fs))
    shift = int(round(FRAME_SHIFT * fs))
    f0_at = np.linspace(f0[0], f0[1], n)
    regions = [(int(0.15 * fs) // shift * shift, int(0.55 * fs) // shift * shift),
               (int(0.70 * fs) // shift * shift, int(1.05 * fs) // shift * shift)]
    f0_inst = np.zeros(n)
    x = np.zeros(n)
    for (lo, hi), vowel in zip(regions, (((660, 90), (1720, 110), (2410, 140)),
                                         ((300, 100), (870, 120), (2240, 150)))):
        exc = np.zeros(n)
        pos = lo + fs / f0_at[lo]
        while pos < hi - 1:
            exc[int(round(pos))] = -rng.uniform(0.8, 1.0)
            pos += fs / f0_at[int(pos)]
        f0_inst[lo:hi] = f0_at[lo:hi]
        x += lfilter([1.0], _tract(vowel, fs), exc)
    noise = rng.normal(0.0, 1.0, n)
    burst = np.zeros(n)
    burst[regions[0][1]:regions[1][0]] = noise[regions[0][1]:regions[1][0]]
    frica = lfilter([1.0], _tract(((4500, 900),), fs), burst)
    x += 0.15 * np.max(np.abs(x)) * frica / max(np.max(np.abs(frica)), 1e-12)
    x += 1e-3 * np.max(np.abs(x)) * noise  # breath floor, so no span is silent
    x *= 0.5 / np.max(np.abs(x))
    return Waveform(x, fs), contour_from_f0(f0_inst, fs)
