"""Glottal closure instant detection.

Pipeline: smooth the waveform with a pitch-scaled mean filter, bracket one
[local minimum -> next local maximum] interval per cycle inside voiced
regions, keep the strongest residual samples in each interval as candidates,
then choose one candidate per interval with a Viterbi pass that keeps the
implied local F0 close to the reference contour.  Unvoiced regions get
constant-rate marks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import skew

from .config import PipelineConfig
from .dsp import lpc_residual
from .errors import DetectionError, FormatError, ValidationError
from .signal_io import F0Contour, Waveform

MEAN_WINDOW_PERIODS = 0.875   # half-window as a fraction of the mean period
CANDIDATES_PER_INTERVAL = 5   # residual peaks kept per cycle for the Viterbi pass
CANDIDATE_MIN_SEP_S = 0.0005  # minimum spacing between candidates of one cycle
UNVOICED_SHIFT_S = 0.005      # spacing of constant-rate marks outside voicing


@dataclass
class GciTrack:
    instants: np.ndarray  # sample indices, strictly increasing
    voiced: np.ndarray    # bool, same length
    fs: int

    def __post_init__(self) -> None:
        self.instants = np.asarray(self.instants, dtype=np.int64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        if self.instants.shape != self.voiced.shape:
            raise ValidationError("instants and voiced flags must align")
        if len(self.instants) and self.instants[0] < 0:
            raise ValidationError("instants must be non-negative")
        if np.any(np.diff(self.instants) <= 0):
            raise ValidationError("instants must be strictly increasing")
        if self.fs <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.fs}")

    def __len__(self) -> int:
        return len(self.instants)

    def check_period_band(self, f0_min: float, f0_max: float) -> None:
        """Verify that consecutive voiced instants imply F0 within band."""
        v = self.instants[self.voiced]
        gaps = np.diff(v)
        adjacent = gaps[gaps > 0]
        lo, hi = self.fs / f0_max, self.fs / f0_min
        bad = (adjacent < lo - 1) | (adjacent > hi + 1)
        if np.any(bad):
            raise ValidationError(
                f"voiced gap of {int(adjacent[np.argmax(bad)])} samples outside "
                f"period band [{lo:.1f}, {hi:.1f}]"
            )


@dataclass
class CandidateInterval:
    start: int
    end: int                 # inclusive
    positions: np.ndarray    # sample indices, descending residual amplitude
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        if len(self.positions) != len(self.amplitudes) or len(self.positions) == 0:
            raise ValidationError("interval needs at least one candidate")
        if np.any(self.positions < self.start) or np.any(self.positions > self.end):
            raise ValidationError("candidate outside its interval")
        if np.any(np.diff(self.amplitudes) > 0):
            raise ValidationError("candidates must be sorted by descending amplitude")


@dataclass
class GciCandidateSet:
    intervals: list
    fs: int

    def __post_init__(self) -> None:
        ends = [iv.end for iv in self.intervals]
        starts = [iv.start for iv in self.intervals]
        for i in range(1, len(self.intervals)):
            if starts[i] <= ends[i - 1]:
                raise ValidationError(f"intervals {i - 1} and {i} overlap")


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


def find_intervals(mean_signal: np.ndarray, voiced_regions) -> list:
    """[local minimum, next local maximum] pairs of the mean-based signal,
    one list over all voiced regions.  Intervals are inclusive, ordered and
    non-overlapping."""
    out = []
    y = np.asarray(mean_signal, dtype=np.float64)
    for a, b in voiced_regions:
        a, b = max(0, int(a)), min(len(y), int(b))
        if b - a < 3:
            continue
        seg = y[a:b]
        inner = slice(1, -1)
        is_min = (seg[inner] < seg[:-2]) & (seg[inner] < seg[2:])
        is_max = (seg[inner] > seg[:-2]) & (seg[inner] > seg[2:])
        pending_min = None
        for i in range(1, b - a - 1):
            if is_min[i - 1]:
                pending_min = a + i
            elif is_max[i - 1] and pending_min is not None:
                out.append((pending_min, a + i))
                pending_min = None
    return out


def select_candidates(residual: np.ndarray, intervals, m: int,
                      min_sep_samples: int = 1) -> list:
    """Top-m residual samples per interval, greedily enforcing the minimum
    separation.  Small intervals may yield fewer than m candidates."""
    if m < 1:
        raise ValidationError(f"candidate count must be >= 1, got {m}")
    residual = np.asarray(residual, dtype=np.float64)
    out = []
    for a, b in intervals:
        if a < 0 or b >= len(residual) or b < a:
            raise ValidationError(f"interval ({a}, {b}) outside residual bounds")
        vals = residual[a:b + 1]
        order = np.argsort(-vals, kind="stable")
        chosen: list[int] = []
        for idx in order:
            pos = a + int(idx)
            if all(abs(pos - c) >= min_sep_samples for c in chosen):
                chosen.append(pos)
                if len(chosen) == m:
                    break
        positions = np.array(chosen, dtype=np.int64)
        out.append(CandidateInterval(a, b, positions, residual[positions]))
    return out


def candidate_f0_grid(cset: GciCandidateSet) -> list:
    """Per adjacent interval pair, the implied-F0 matrix fs / gap indexed
    [previous candidate, next candidate]; non-positive gaps become NaN."""
    grids = []
    for prev, nxt in zip(cset.intervals[:-1], cset.intervals[1:]):
        gap = nxt.positions[None, :] - prev.positions[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            f0 = np.where(gap > 0, cset.fs / np.where(gap != 0, gap, 1), np.nan)
        grids.append(f0)
    return grids


def _nearest_frame(t: np.ndarray, shift: float, n_frames: int) -> np.ndarray:
    idx = np.floor(t / shift + 0.5).astype(np.int64)
    return np.clip(idx, 0, n_frames - 1)


def viterbi_select(cset: GciCandidateSet, f0_ref: F0Contour,
                   cost_norm: str = "abs") -> list:
    """Minimum total |F0ref - implied F0| path, one candidate per interval.

    The reference is sampled at the temporal midpoint of each candidate gap
    (nearest frame).  Cost ties prefer the larger residual amplitude, which
    the descending candidate order turns into a first-minimum rule."""
    ivs = cset.intervals
    if not ivs:
        return []
    grids = candidate_f0_grid(cset)
    prev_cost = np.zeros(len(ivs[0].positions))
    back = []
    for i in range(1, len(ivs)):
        g0 = ivs[i - 1].positions[:, None].astype(np.float64)
        g1 = ivs[i].positions[None, :].astype(np.float64)
        mid = 0.5 * (g0 + g1) / cset.fs
        frames = _nearest_frame(mid, f0_ref.frame_shift_s, len(f0_ref))
        dev = np.abs(f0_ref.values[frames] - grids[i - 1])
        if cost_norm == "squared":
            dev = dev * dev
        trans = np.where(np.isnan(grids[i - 1]), np.inf, dev)
        total = prev_cost[:, None] + trans
        choice = np.argmin(total, axis=0)
        prev_cost = total[choice, np.arange(total.shape[1])]
        if not np.any(np.isfinite(prev_cost)):
            raise DetectionError(f"no valid transition into interval {i}")
        back.append(choice)
    path = [int(np.argmin(prev_cost))]
    for choice in reversed(back):
        path.append(int(choice[path[-1]]))
    path.reverse()
    return path


def _frame_regions_to_samples(voiced: np.ndarray, shift: float, fs: int,
                              n_samples: int) -> tuple[list, list]:
    """Maximal voiced frame runs as sample ranges, plus the complement."""
    voiced_regions = []
    edges = np.flatnonzero(np.diff(np.concatenate([[0], voiced.astype(np.int8), [0]])))
    for a, b in zip(edges[0::2], edges[1::2]):
        lo = min(n_samples, int(round(a * shift * fs)))
        hi = min(n_samples, int(round(b * shift * fs)))
        if hi > lo:
            voiced_regions.append((lo, hi))
    unvoiced_regions = []
    cursor = 0
    for lo, hi in voiced_regions:
        if lo > cursor:
            unvoiced_regions.append((cursor, lo))
        cursor = hi
    if cursor < n_samples:
        unvoiced_regions.append((cursor, n_samples))
    return voiced_regions, unvoiced_regions


def detect_gci(w: Waveform, f0_ref: F0Contour, cfg: PipelineConfig | None = None) -> GciTrack:
    """Full detection pass over one utterance."""
    cfg = cfg or PipelineConfig()
    fs = w.fs
    n = len(w.samples)
    step = max(1, int(round(UNVOICED_SHIFT_S * fs)))
    voiced_regions, unvoiced_regions = _frame_regions_to_samples(
        f0_ref.voiced, f0_ref.frame_shift_s, fs, n)

    marks: list[tuple[int, bool]] = []
    if voiced_regions:
        mean_period = fs / float(np.mean(f0_ref.values[f0_ref.voiced]))
        smooth = mean_based_signal(w, mean_period)
        order = int(fs / 1000) + 2
        residual = lpc_residual(w, order)
        mask = np.zeros(n, dtype=bool)
        for lo, hi in voiced_regions:
            mask[lo:hi] = True
        if skew(residual[mask]) < 0:
            residual = -residual
        min_sep = max(1, int(round(CANDIDATE_MIN_SEP_S * fs)))
        for lo, hi in voiced_regions:
            intervals = find_intervals(smooth, [(lo, hi)])
            if not intervals:
                # region shorter than one cycle: no glottal evidence, fall
                # back to constant-rate marks so coverage has no hole
                marks.extend((p, False) for p in range(lo, hi, step))
                continue
            cset = GciCandidateSet(
                select_candidates(residual, intervals, CANDIDATES_PER_INTERVAL,
                                  min_sep), fs)
            path = viterbi_select(cset, f0_ref, cfg.cost_norm)
            marks.extend((int(iv.positions[k]), True)
                         for iv, k in zip(cset.intervals, path))
    for lo, hi in unvoiced_regions:
        marks.extend((p, False) for p in range(lo, hi, step))

    marks.sort(key=lambda mk: (mk[0], not mk[1]))
    voiced_positions = np.array([p for p, v in marks if v], dtype=np.int64)
    min_gap = max(1, int(round(0.001 * fs)))
    instants: list[int] = []
    flags: list[bool] = []
    for pos, flag in marks:
        if not flag and len(voiced_positions):
            nearest = np.min(np.abs(voiced_positions - pos))
            if nearest < min_gap:
                continue
        if instants and pos <= instants[-1]:
            continue
        instants.append(pos)
        flags.append(flag)
    return GciTrack(np.array(instants, dtype=np.int64), np.array(flags, dtype=bool), fs)


def write_gci_track(path: str, track: GciTrack) -> None:
    """Text format: one line per instant, `sample_index voiced_flag`."""
    with open(path, "w", encoding="utf-8") as fh:
        for pos, flag in zip(track.instants, track.voiced):
            fh.write(f"{int(pos)} {int(flag)}\n")


def read_gci_track(path: str, fs: int) -> GciTrack:
    instants = []
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                pos, flag = int(parts[0]), int(parts[1])
            except (IndexError, ValueError):
                raise FormatError(
                    f"{path}:{lineno}: expected 'sample_index voiced_flag', got {line!r}"
                ) from None
            if flag not in (0, 1):
                raise FormatError(f"{path}:{lineno}: voiced flag must be 0 or 1")
            instants.append(pos)
            flags.append(bool(flag))
    return GciTrack(np.array(instants, dtype=np.int64), np.array(flags, dtype=bool), fs)
