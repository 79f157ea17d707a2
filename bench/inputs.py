"""Seeded synthetic speech for the benchmark, with ground-truth pulses.

Each utterance is unvoiced lead-in, a voiced stretch, a fricative noise
burst, a second voiced stretch and an unvoiced tail.  Voiced stretches are
negative glottal pulses through a three-formant all-pole tract, with F0
gliding linearly over the utterance.  The pulse positions are the ground
truth for GCI scoring.  Samples are quantized to PCM16 before anything is
returned, so the arrays here equal what the program reads back.

Modelled on the test-suite signals but self-contained: editing a test
fixture cannot move the benchmark.  Only numpy, scipy and the standard
library are used; the wav and F0 writers are local for the same reason.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

FS = 16000
FRAME_SHIFT_S = 0.005
FRAME = int(round(FRAME_SHIFT_S * FS))  # 80 samples; region edges sit on frames
PCM_SCALE = 32768.0

VOWELS = (((660, 90), (1720, 110), (2410, 140)),
          ((300, 100), (870, 120), (2240, 150)),
          ((530, 80), (1840, 120), (2480, 160)),
          ((730, 90), (1090, 110), (2440, 150)))


@dataclass
class Utterance:
    samples: np.ndarray   # float64, PCM16-quantized
    f0: np.ndarray        # Hz per 5 ms frame, 0 = unvoiced
    pulses: np.ndarray    # true glottal pulse positions (sample indices)
    voiced: np.ndarray    # bool per sample: inside a voiced stretch

    @property
    def duration_s(self) -> float:
        return len(self.samples) / FS


def _tract(sections):
    den = np.array([1.0])
    for fc, bw in sections:
        r = np.exp(-np.pi * bw / FS)
        den = np.convolve(den, [1.0, -2.0 * r * np.cos(2 * np.pi * fc / FS), r * r])
    return den


def _frames(seconds: float) -> int:
    return max(1, int(round(seconds * FS / FRAME)))


def utterance(rng: np.random.Generator, dur_s: float, f0_start: float,
              f0_end: float, voiced_frac: float) -> Utterance:
    """One utterance of about dur_s; every random choice comes from rng.

    Voicing follows the excitation, as a pitch tracker would mark it: a
    voiced stretch starts within 12 samples before its first pulse and ends
    on the first frame boundary after its last one."""
    n_frames = _frames(dur_s)
    n_voiced = int(round(voiced_frac * n_frames))
    n_unvoiced = n_frames - n_voiced
    # unvoiced time: lead-in, mid burst, tail; voiced time: two stretches
    cuts = rng.dirichlet([2.0, 3.0, 2.0])
    head = max(2, int(round(cuts[0] * n_unvoiced)))
    mid = max(4, int(round(cuts[1] * n_unvoiced)))
    tail = max(2, n_unvoiced - head - mid)
    v1 = int(round(rng.uniform(0.35, 0.65) * n_voiced))
    plan = n_frames * FRAME

    def f0_at(k):
        return f0_start + (f0_end - f0_start) * min(k / plan, 1.0)

    pulses, regions, stretches = [], [], []
    cursor = head * FRAME
    for r, frames in enumerate((v1, n_voiced - v1)):
        lo = cursor
        pos = lo + rng.uniform(2.0, 12.0)
        stretch = []
        while pos < lo + frames * FRAME - 1:
            stretch.append(int(round(pos)))
            pos += FS / f0_at(stretch[-1])
        hi = (stretch[-1] // FRAME + 1) * FRAME
        regions.append((lo, hi))
        pulses += stretch
        stretches.append(stretch)
        cursor = hi + (mid if r == 0 else tail) * FRAME
    n = cursor

    voiced = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    vowels = rng.permutation(len(VOWELS))[:2]
    for (lo, hi), stretch, vowel in zip(regions, stretches, vowels):
        voiced[lo:hi] = True
        e = np.zeros(n)
        e[stretch] = -rng.uniform(0.8, 1.0, len(stretch))
        x += lfilter([1.0], _tract(VOWELS[vowel]), e)
    noise = rng.normal(0.0, 1.0, n)
    burst = np.zeros(n)
    b_lo, b_hi = regions[0][1], regions[1][0]
    burst[b_lo:b_hi] = noise[b_lo:b_hi]
    frica = lfilter([1.0], _tract(((rng.uniform(3500, 5500), 900),)), burst)
    x += 0.15 * np.max(np.abs(x)) * frica / max(np.max(np.abs(frica)), 1e-12)
    x += 1e-3 * np.max(np.abs(x)) * noise  # breath floor, so no span is silent
    x *= 0.5 / np.max(np.abs(x))
    samples = np.round(x * PCM_SCALE) / PCM_SCALE

    frame_starts = np.arange(n // FRAME) * FRAME
    f0 = np.where(voiced[frame_starts], [f0_at(k) for k in frame_starts], 0.0)
    return Utterance(samples, f0, np.array(pulses, dtype=np.int64), voiced)


def write_wav(path: str, u: Utterance) -> None:
    codes = np.round(u.samples * PCM_SCALE).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(FS)
        fh.writeframes(codes.tobytes())


def write_f0(path: str, u: Utterance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for value in u.f0:
            fh.write(f"{value:.6f}\n")


def save(stem: str, u: Utterance) -> tuple:
    """Write stem.wav and stem.f0; return the two paths."""
    write_wav(stem + ".wav", u)
    write_f0(stem + ".f0", u)
    return stem + ".wav", stem + ".f0"


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One value per equal-width stratum of [lo, hi], in stratum order: the
    stratum centre jittered by up to a tenth of the stratum width."""
    width = (hi - lo) / count
    return lo + width * (np.arange(count) + 0.5 + rng.uniform(-0.1, 0.1, count))


def mix(seed: int, count: int, dur_range: tuple, f0_range=(100.0, 300.0),
        voiced_range=(0.5, 0.9)) -> list:
    """count utterances whose durations, F0 glides and voicing fractions are
    each stratified over their range, in stratum order of F0.  The pairing
    of strata is fixed, so every seed has the same spread of cost per audio
    second and the seed moves only jitter and signal detail.  Glides run
    +/-15% around a log-stratified centre, inside f0_range."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(f0_range[0] * 1.15), np.log(f0_range[1] / 1.15)
    centres = np.exp(_stratified(rng, lo, hi, count))
    # fixed pairings that decorrelate duration and voicing from F0
    durs = _stratified(rng, *dur_range, count)[(5 * np.arange(count) + 1) % count]
    vfracs = _stratified(rng, *voiced_range, count)[(3 * np.arange(count) + 2) % count]
    out = []
    for d, c, v in zip(durs, centres, vfracs):
        up = rng.random() < 0.5
        a, b = c / 1.15, c * 1.15
        out.append(utterance(rng, d, a if up else b, b if up else a, v))
    return out


def sweeps(seed: int, count: int, dur_range: tuple, f0_range=(110.0, 260.0),
           voiced_range=(0.68, 0.72)) -> list:
    """count utterances that each glide across the whole of f0_range (ends
    jittered by 5%), with stratified durations: every utterance costs about
    the same per second, so a few ops give a steady median."""
    rng = np.random.default_rng(seed)
    out = []
    for d in _stratified(rng, *dur_range, count):
        lo = f0_range[0] * rng.uniform(1.0, 1.05)
        hi = f0_range[1] * rng.uniform(0.95, 1.0)
        up = rng.random() < 0.5
        out.append(utterance(rng, d, lo if up else hi, hi if up else lo,
                             rng.uniform(*voiced_range)))
    return out


def warmup(dur_s: float = 0.5) -> Utterance:
    """The same short utterance for every seed, so set-up time does not
    depend on the seed."""
    return utterance(np.random.default_rng(0), dur_s, 140.0, 160.0, 0.7)
