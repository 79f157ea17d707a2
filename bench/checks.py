"""Output checks and GCI scoring against the generator's ground truth.

Tolerances are the README acceptance criteria: full-phase resynthesis of a
full-mode stream has RMSE < 0.01 (criterion 3), minimum-phase voiced RMSE is
at least twice the full-phase voiced RMSE (criterion 4).  Both are scored
inside [positions[0], positions[-1]), the span the stream reconstructs; the
voiced mask is the generator's, not the program's.  Outputs are parsed with
the program's own readers, the way a user of the files would read them.
"""

from __future__ import annotations

import math

import numpy as np

from gswf.featfile import read_features
from gswf.signal_io import read_wav
from gswf.synthesis import synthesize

CRIT3_RMSE = 0.01
CRIT4_RATIO = 2.0
REPORT_KEYS = ("rmse_voiced", "rmse_unvoiced", "rmse", "lsd", "mcd", "dpd",
               "f0_rmse", "vuv_error_rate")
REPORT_LABELS = ("full", "minphase")


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2))) if len(a) else 0.0


def _span(stream) -> tuple:
    pos = stream.positions
    return int(pos[0]), int(pos[-1])


def _fit(y: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    m = min(n, len(y))
    out[:m] = y[:m]
    return out


def full_phase_errors(y: np.ndarray, stream, u) -> list:
    """Criterion 3 for one full-phase resynthesis of a full-mode stream."""
    lo, hi = _span(stream)
    err = _rmse(_fit(y, len(u.samples))[lo:hi], u.samples[lo:hi])
    if not err < CRIT3_RMSE:
        return [f"full-phase RMSE {err:.3g} >= {CRIT3_RMSE} in [{lo}, {hi})"]
    return []


def voiced_rmse(y: np.ndarray, stream, u) -> float:
    lo, hi = _span(stream)
    mask = u.voiced[lo:hi]
    return _rmse(_fit(y, len(u.samples))[lo:hi][mask], u.samples[lo:hi][mask])


def min_phase_errors(y_full: np.ndarray, y_min: np.ndarray, stream, u) -> list:
    """Criterion 4: minimum phase degrades voiced RMSE by at least 2x."""
    full, minp = voiced_rmse(y_full, stream, u), voiced_rmse(y_min, stream, u)
    if not minp >= CRIT4_RATIO * full:
        return [f"min-phase voiced RMSE {minp:.3g} < {CRIT4_RATIO} x full {full:.3g}"]
    return []


def check_features(path: str, u, resynth: bool) -> tuple:
    """Parse a full-mode, fft_size 512 feature file and, with resynth, check
    its full-phase resynthesis (criterion 3).  Returns (stream, errors)."""
    stream = read_features(path)
    errors = []
    if stream.mode != "full" or stream.fft_size != 512:
        errors.append(f"{path}: mode/fft_size {stream.mode}/{stream.fft_size}, "
                      f"expected full/512")
    if len(stream) < 2:
        return stream, errors + [f"{path}: {len(stream)} segments"]
    if resynth:
        errors += full_phase_errors(synthesize(stream).samples, stream, u)
    return stream, errors


def read_audio(path: str, u) -> tuple:
    """Parse a wav output; returns (samples, errors)."""
    w = read_wav(path)
    errors = []
    if w.fs != 16000:
        errors.append(f"{path}: fs {w.fs}")
    if not 0.5 * len(u.samples) <= len(w.samples) <= len(u.samples) + 1024:
        errors.append(f"{path}: {len(w.samples)} samples for a "
                      f"{len(u.samples)}-sample input")
    return w.samples, errors


def check_report(path: str) -> list:
    """All 16 `label.key value count` rows, each value finite."""
    seen = set()
    errors = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 3:
                errors.append(f"{path}: bad row {line!r}")
                continue
            value = float(parts[1])
            int(parts[2])
            if not math.isfinite(value):
                errors.append(f"{path}: {parts[0]} = {value}")
            seen.add(parts[0])
    expected = {f"{lab}.{key}" for lab in REPORT_LABELS for key in REPORT_KEYS}
    if seen != expected:
        errors.append(f"{path}: keys differ from the 16 expected: "
                      f"missing {sorted(expected - seen)}, extra {sorted(seen - expected)}")
    return errors


def _cycles(u):
    """Naylor et al. larynx cycles: per true pulse, the half-open span
    between midpoints to its neighbours in the same voiced run; a run's
    first and last pulses mirror their one neighbour gap."""
    p = u.pulses
    runs, start = [], 0
    for k in range(1, len(p) + 1):
        if k == len(p) or not u.voiced[p[k - 1]:p[k] + 1].all():
            runs.append(p[start:k])
            start = k
    for run in runs:
        if len(run) < 2:
            continue
        gaps = np.diff(run).astype(np.float64)
        left = np.concatenate([[gaps[0]], gaps]) / 2.0
        right = np.concatenate([gaps, [gaps[-1]]]) / 2.0
        yield from zip(run, run - left, run + right)


class GciScore:
    """Identification, miss and false-alarm counts over larynx cycles, and
    the timing errors of identified cycles (Naylor et al., IEEE TASLP 2007)."""

    def __init__(self):
        self.cycles = self.identified = self.missed = self.false_alarm = 0
        self.errors = []

    def add(self, stream, u) -> None:
        detected = np.array([s.position for s in stream.segments if s.voiced],
                            dtype=np.float64)
        for truth, lo, hi in _cycles(u):
            inside = detected[(detected >= lo) & (detected < hi)]
            self.cycles += 1
            if len(inside) == 0:
                self.missed += 1
            elif len(inside) > 1:
                self.false_alarm += 1
            else:
                self.identified += 1
                self.errors.append(float(inside[0] - truth))

    def rates(self, fs: int = 16000) -> dict:
        n = max(self.cycles, 1)
        return {
            "id_rate": self.identified / n,
            "miss_rate": self.missed / n,
            "false_alarm_rate": self.false_alarm / n,
            # identification accuracy: standard deviation of timing errors
            "timing_error_ms": (float(np.std(self.errors)) / fs * 1000.0
                                if self.errors else 0.0),
            "cycles": self.cycles,
        }
