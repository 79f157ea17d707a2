"""Glottal-synchronous analysis: segments, per-segment features, streams.

Each interior glottal instant yields one two-period segment, windowed so
that overlap-add of untouched segments reproduces the waveform.  A segment
is described by voicing, log F0, log gain, line spectral frequencies and a
phase-difference vector; full mode additionally stores the log-magnitude
spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .dsp import (analyze_spectrum_batch, asymmetric_hann, autocorr,
                  lpc_predictors, lpc_to_lsp_batch, wrap_phase)
from .errors import RowError, ValidationError
from .gci import UNVOICED_SHIFT_S, GciTrack, detect_gci
from .signal_io import F0Contour, Waveform

GAIN_FLOOR = 1e-10  # RMS floor so silent segments keep a finite log gain
LSP_ORDER = 40      # LSP values per segment; the feature file stores exactly this many


@dataclass
class Segment:
    center: int
    left_len: int
    right_len: int
    samples: np.ndarray
    voiced: bool

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.left_len < 1 or self.right_len < 1:
            raise ValidationError(
                f"segment half lengths must be >= 1, got ({self.left_len}, {self.right_len})"
            )
        if len(self.samples) != self.left_len + self.right_len + 1:
            raise ValidationError(
                f"segment at {self.center}: expected "
                f"{self.left_len + self.right_len + 1} samples, got {len(self.samples)}"
            )


@dataclass
class SegmentFeatures:
    position: int
    voiced: bool
    log_f0: float
    gain: float
    lsp: np.ndarray
    phase_feature: np.ndarray
    log_mag: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.lsp = np.asarray(self.lsp, dtype=np.float64)
        self.phase_feature = np.asarray(self.phase_feature, dtype=np.float64)
        if self.log_mag is not None:
            self.log_mag = np.asarray(self.log_mag, dtype=np.float64)
            if self.log_mag.shape != self.phase_feature.shape:
                raise ValidationError("log_mag and phase_feature must have equal length")


@dataclass
class FeatureStream:
    fs: int
    fft_size: int
    mode: str  # "parametric" or "full"
    segments: list

    def __post_init__(self) -> None:
        if self.mode not in ("parametric", "full"):
            raise ValidationError(f"unknown stream mode {self.mode!r}")
        pos = self.positions
        if len(pos) and np.any(np.diff(pos) <= 0):
            raise ValidationError("segment positions must be strictly increasing")
        n_bins = self.fft_size // 2 + 1
        for seg in self.segments:
            if len(seg.phase_feature) != n_bins:
                raise ValidationError(
                    f"segment at {seg.position}: expected {n_bins} phase values for "
                    f"fft_size {self.fft_size}, got {len(seg.phase_feature)}"
                )
            if (seg.log_mag is None) == (self.mode == "full"):
                raise ValidationError(
                    f"{self.mode}-mode stream has {'no' if seg.log_mag is None else 'a'} "
                    f"log_mag at position {seg.position}"
                )

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def positions(self) -> np.ndarray:
        return np.array([seg.position for seg in self.segments], dtype=np.int64)


def segment_spans(positions: np.ndarray) -> list:
    """(left, right) spans from neighbor gaps; edges mirror their known side."""
    if len(positions) == 1:
        raise ValidationError("cannot infer spans from a single position")
    gaps = np.diff(positions).tolist()
    return list(zip(gaps[:1] + gaps, gaps + gaps[-1:]))


def cut_segments(w: Waveform, centers, spans, voiced) -> list:
    """One segment per center: the samples from center - left to
    center + right of its (left, right) span, zero outside the waveform,
    times asymmetric_hann(left, right)."""
    x = w.samples
    windows = {}
    segments = []
    for center, (left, right), flag in zip(centers, spans, voiced):
        center, left, right = int(center), int(left), int(right)
        if (left, right) not in windows:
            windows[left, right] = asymmetric_hann(left, right)
        lo, hi = center - left, center + right + 1
        samples = np.zeros(hi - lo)
        a, b = max(lo, 0), min(hi, len(x))
        samples[a - lo:b - lo] = x[a:b]
        segments.append(Segment(center, left, right, samples * windows[left, right],
                                bool(flag)))
    return segments


def extract_segments(w: Waveform, track: GciTrack) -> list:
    """One windowed two-period segment per interior instant."""
    inst = track.instants
    if len(inst) < 3:
        raise ValidationError(f"need at least 3 instants to form segments, got {len(inst)}")
    if inst[0] < 0 or inst[-1] >= len(w.samples):
        raise ValidationError("instants outside waveform bounds")
    return cut_segments(w, inst[1:-1], segment_spans(inst)[1:-1], track.voiced[1:-1])


def encode_phase(phase: np.ndarray) -> np.ndarray:
    """[theta_1, wrapped first differences] along the last axis; same shape
    as the input."""
    phase = np.asarray(phase, dtype=np.float64)
    out = np.empty_like(phase)
    out[..., 0] = phase[..., 0]
    out[..., 1:] = wrap_phase(np.diff(phase, axis=-1))
    return out


def fit_segments(segments: list, cfg: PipelineConfig) -> tuple:
    """The samples of each segment that an fft_size buffer holds with the
    instant at index fft_size//2, and the instant's index in them: (samples,
    pivots).  An oversize segment is an error, or truncated with a warning
    when cfg.oversize_segment is "truncate"."""
    half = cfg.fft_size // 2
    cut, pivots = [], []
    for seg in segments:
        samples = seg.samples
        left, right = seg.left_len, seg.right_len
        # the instant sits at buffer index fft_size//2, so each wing is
        # bounded separately rather than just the total length
        lcut = max(left - half, 0)
        rcut = max(right - (half - 1), 0)
        if lcut or rcut:
            if cfg.oversize_segment != "truncate":
                raise ValidationError(
                    f"segment at {seg.center} spans ({left}, {right}) samples around "
                    f"the instant, more than fft_size {cfg.fft_size} can hold; "
                    f"lower the pitch range or raise fft_size"
                )
            warnings.warn(
                f"truncating segment at {seg.center} from ({left}, {right}) to "
                f"({left - lcut}, {right - rcut})",
                stacklevel=3)
            samples = samples[lcut:len(samples) - rcut]
            left = left - lcut
        cut.append(samples)
        pivots.append(left)
    return cut, pivots


def segments_to_features(segments: list, fs: int, cfg: PipelineConfig) -> list:
    """Features of every segment, computed in one array pass: per-segment
    autocorrelations and gains, then one Levinson recursion, one LSP
    conversion and one rfft over the whole stack."""
    cut, pivots = fit_segments(segments, cfg)
    if not segments:
        return []
    log_mag, phase = analyze_spectrum_batch(cut, cfg.fft_size, pivots)
    r = np.array([autocorr(samples, LSP_ORDER) for samples in cut])
    try:
        lsp = lpc_to_lsp_batch(lpc_predictors(r, LSP_ORDER))
    except RowError as e:
        raise ValidationError(
            f"{e.reason} (segment at sample {segments[e.rows[0]].center}; "
            f"{len(e.rows)} of {e.n_rows} segments fail)") from e
    phase = encode_phase(phase)
    unvoiced_log_f0 = float(np.log(1.0 / UNVOICED_SHIFT_S))
    return [SegmentFeatures(
        position=seg.center,
        voiced=seg.voiced,
        log_f0=float(np.log(fs / seg.right_len)) if seg.voiced else unvoiced_log_f0,
        gain=float(np.log(max(float(np.sqrt(np.mean(samples ** 2))), GAIN_FLOOR))),
        lsp=lsp[i],
        phase_feature=phase[i],
        log_mag=log_mag[i] if cfg.mode == "full" else None,
    ) for i, (seg, samples) in enumerate(zip(segments, cut))]


def analyze(w: Waveform, f0_ref: F0Contour, cfg: PipelineConfig | None = None) -> FeatureStream:
    """Waveform to feature stream: GCI detection, segmentation, features."""
    cfg = cfg or PipelineConfig()
    track = detect_gci(w, f0_ref, cfg)
    segments = extract_segments(w, track)
    return FeatureStream(fs=w.fs, fft_size=cfg.fft_size, mode=cfg.mode,
                         segments=segments_to_features(segments, w.fs, cfg))
