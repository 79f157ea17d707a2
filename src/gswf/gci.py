"""Glottal closure instant detection.

Pipeline: smooth the waveform with a pitch-scaled mean filter, bracket one
[local minimum -> next local maximum] interval per cycle inside voiced
regions, keep the strongest residual samples in each interval as candidates,
then choose one candidate per interval with a Viterbi pass that keeps the
implied local F0 close to the reference contour.  Unvoiced regions get
constant-rate marks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dsp import lpc_residual
from .errors import DetectionError, ValidationError
from .signal_io import F0Contour, Waveform

MEAN_WINDOW_PERIODS = 0.875   # half-window as a fraction of the mean period
CANDIDATES_PER_INTERVAL = 5   # residual peaks kept per cycle for the Viterbi pass
CANDIDATE_MIN_SEP_S = 0.0005  # minimum spacing between candidates of one cycle
UNVOICED_SHIFT_S = 0.005      # spacing of constant-rate marks outside voicing


@dataclass
class GciTrack:
    instants: np.ndarray  # sample indices, strictly increasing
    voiced: np.ndarray    # bool, same length

    def __post_init__(self) -> None:
        self.instants = np.asarray(self.instants, dtype=np.int64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        if self.instants.shape != self.voiced.shape:
            raise ValidationError("instants and voiced flags must align")
        if len(self.instants) and self.instants[0] < 0:
            raise ValidationError("instants must be non-negative")
        if np.any(np.diff(self.instants) <= 0):
            raise ValidationError("instants must be strictly increasing")


def mean_based_signal(w: Waveform, mean_period_samples: float) -> np.ndarray:
    """Blackman-weighted moving mean with half-width 0.875 of the mean pitch
    period; edges treat the signal as zero-padded."""
    half = int(round(MEAN_WINDOW_PERIODS * mean_period_samples))
    if half < 1:
        raise ValidationError(f"mean period {mean_period_samples} too short")
    win_len = 2 * half + 1
    if win_len > len(w.samples):
        raise ValidationError(
            f"mean window of {win_len} samples longer than signal ({len(w.samples)})"
        )
    return np.convolve(w.samples, np.blackman(win_len), mode="same") / win_len


def find_intervals(mean_signal: np.ndarray, lo: int, hi: int) -> list:
    """[local minimum, next local maximum] pairs of the mean-based signal in
    the voiced region [lo, hi), clipped to the signal.  Intervals are
    inclusive, ordered and non-overlapping: of the region's strict extrema in
    order, every maximum whose predecessor is a minimum closes one."""
    y = np.asarray(mean_signal, dtype=np.float64)
    a, b = max(0, int(lo)), min(len(y), int(hi))
    if b - a < 3:
        return []
    seg = y[a:b]
    mid = seg[1:-1]
    is_max = (mid > seg[:-2]) & (mid > seg[2:])
    ext = np.flatnonzero(is_max | ((mid < seg[:-2]) & (mid < seg[2:])))
    ext_max = is_max[ext]
    close = ext_max[1:] & ~ext_max[:-1]
    return list(zip((ext[:-1][close] + a + 1).tolist(), (ext[1:][close] + a + 1).tolist()))


def select_candidates(residual: np.ndarray, intervals, m: int,
                      min_sep_samples: int = 1) -> np.ndarray:
    """Top-m residual samples per interval, greedily enforcing the minimum
    separation: an (intervals, m) int64 array of sample indices in
    descending residual order, padded with -1 where a small interval yields
    fewer than m.  Each of the m passes takes every row's largest remaining
    sample (the first on a tie) and masks its neighbourhood."""
    if m < 1:
        raise ValidationError(f"candidate count must be >= 1, got {m}")
    residual = np.asarray(residual, dtype=np.float64)
    bounds = np.array(intervals, dtype=np.int64).reshape(-1, 2)
    starts, ends = bounds[:, 0], bounds[:, 1]
    bad = (starts < 0) | (ends >= len(residual)) | (ends < starts)
    if np.any(bad):
        a, b = bounds[np.argmax(bad)]
        raise ValidationError(f"interval ({a}, {b}) outside residual bounds")
    widths = ends - starts + 1
    cols = np.arange(np.max(widths, initial=1))
    inside = cols < widths[:, None]
    vals = np.where(inside, residual[np.where(inside, starts[:, None] + cols, 0)], -np.inf)
    rows = np.arange(len(bounds))
    sep = max(1, min_sep_samples)
    out = np.full((len(bounds), m), -1, dtype=np.int64)
    for j in range(m):
        pick = np.argmax(vals, axis=1)
        out[:, j] = np.where(vals[rows, pick] > -np.inf, starts + pick, -1)
        vals[np.abs(cols - pick[:, None]) < sep] = -np.inf
    return out


def _nearest_frame(t: np.ndarray, shift: float, n_frames: int) -> np.ndarray:
    idx = np.floor(t / shift + 0.5).astype(np.int64)
    return np.clip(idx, 0, n_frames - 1)


def viterbi_select(positions: np.ndarray, fs: int, f0_ref: F0Contour) -> list:
    """Minimum total |F0ref - implied F0| path through the (intervals, m)
    candidate array, one candidate index per interval.

    The implied F0 of a candidate pair is fs over its gap, and the reference
    is sampled at the gap's temporal midpoint (nearest frame); padded (-1)
    candidates and non-positive gaps cost inf.  Cost ties prefer the larger
    residual amplitude, which the descending candidate order turns into a
    first-minimum rule."""
    cand = np.asarray(positions, dtype=np.int64)
    if not len(cand):
        return []
    g0, g1 = cand[:-1, :, None], cand[1:, None, :]
    gap = g1 - g0
    valid = (gap > 0) & (g0 >= 0) & (g1 >= 0)
    f0 = fs / np.where(valid, gap, 1)
    mid = 0.5 * (g0.astype(np.float64) + g1.astype(np.float64)) / fs
    frames = _nearest_frame(mid, f0_ref.frame_shift_s, len(f0_ref))
    dev = np.abs(f0_ref.values[frames] - f0)
    # the recursion runs on Python floats, whose addition is the same IEEE
    # double addition as numpy's: trans[i][k] lists the costs into candidate
    # k by predecessor, and list.index of the minimum takes the first on a
    # tie, as np.argmin does
    trans = np.where(valid, dev, np.inf).transpose(0, 2, 1).tolist()
    cost = [0.0 if c >= 0 else math.inf for c in cand[0].tolist()]
    back = []
    for i, into in enumerate(trans, start=1):
        totals = [list(map(operator.add, cost, col)) for col in into]
        cost = list(map(min, totals))
        if min(cost) == math.inf:
            raise DetectionError(f"no valid transition into interval {i}")
        back.append(list(map(list.index, totals, cost)))
    path = [cost.index(min(cost))]
    for choice in reversed(back):
        path.append(choice[path[-1]])
    path.reverse()
    return path


def _voiced_runs(voiced: np.ndarray, shift: float, fs: int, n_samples: int) -> np.ndarray:
    """Maximal voiced frame runs as a (runs, 2) int64 array of sample
    ranges [lo, hi): frame edges rounded to samples and clipped to the
    signal, and runs that round to no sample dropped."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], voiced.astype(np.int8), [0]])))
    runs = np.minimum(np.round(edges * shift * fs), n_samples).astype(np.int64).reshape(-1, 2)
    return runs[runs[:, 1] > runs[:, 0]]


def _skewness(x: np.ndarray) -> float:
    # biased sample skewness m3 / m2^1.5 in the bits of scipy.stats.skew,
    # NaN where m2 is within rounding of zero (constant input)
    mean = np.mean(x)
    d = x - mean
    m2 = np.mean(d ** 2)
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return np.nan
    return np.mean(d ** 2 * d) / m2 ** 1.5


def detect_gci(w: Waveform, f0_ref: F0Contour) -> GciTrack:
    """Full detection pass over one utterance."""
    fs = w.fs
    n = len(w.samples)
    step = max(1, int(round(UNVOICED_SHIFT_S * fs)))
    runs = _voiced_runs(f0_ref.voiced, f0_ref.frame_shift_s, fs, n)
    # the stretches between runs, some empty, take constant-rate marks
    stretches = np.concatenate([[0], runs.ravel(), [n]]).reshape(-1, 2).tolist()
    voiced_marks = [np.zeros(0, dtype=np.int64)]
    if len(runs):
        mean_period = fs / float(np.mean(f0_ref.values[f0_ref.voiced]))
        smooth = mean_based_signal(w, mean_period)
        order = int(fs / 1000) + 2
        residual = lpc_residual(w, order)
        if _skewness(np.concatenate([residual[lo:hi] for lo, hi in runs.tolist()])) < 0:
            residual = -residual
        min_sep = max(1, int(round(CANDIDATE_MIN_SEP_S * fs)))
        for lo, hi in runs.tolist():
            intervals = find_intervals(smooth, lo, hi)
            if not intervals:
                # region shorter than one cycle: no glottal evidence, so it
                # takes constant-rate marks and coverage has no hole
                stretches.append((lo, hi))
                continue
            cand = select_candidates(residual, intervals, CANDIDATES_PER_INTERVAL,
                                     min_sep)
            path = viterbi_select(cand, fs, f0_ref)
            voiced_marks.append(cand[np.arange(len(cand)), path])
    voiced = np.concatenate(voiced_marks)
    unvoiced = np.concatenate([np.arange(lo, hi, step) for lo, hi in stretches])
    pos, flags = merge_marks(np.concatenate([voiced, unvoiced]),
                             np.repeat([True, False], [len(voiced), len(unvoiced)]),
                             max(1, int(round(0.001 * fs))))
    return GciTrack(pos, flags)


def merge_marks(positions: np.ndarray, voiced: np.ndarray, min_gap: int) -> tuple:
    """Voiced and unvoiced marks as one increasing sequence: an unvoiced
    mark within min_gap samples of a voiced one is dropped, and of marks at
    one position the first voiced one stays.  Returns (positions, voiced)."""
    rank = np.lexsort((~voiced, positions))  # by position, voiced first on a tie
    pos, flags = positions[rank], voiced[rank]
    voiced_pos = pos[flags]
    if len(voiced_pos):
        nxt = np.searchsorted(voiced_pos, pos)
        before = voiced_pos[np.maximum(nxt - 1, 0)]
        after = voiced_pos[np.minimum(nxt, len(voiced_pos) - 1)]
        keep = flags | (np.minimum(np.abs(pos - before), np.abs(after - pos)) >= min_gap)
        pos, flags = pos[keep], flags[keep]
    first = np.diff(pos, prepend=-1) > 0
    return pos[first], flags[first]


def write_gci_track(path: str, track: GciTrack) -> None:
    """Text format: one line per instant, `sample_index voiced_flag`."""
    with open(path, "w", encoding="utf-8") as fh:
        for pos, flag in zip(track.instants, track.voiced):
            fh.write(f"{int(pos)} {int(flag)}\n")
