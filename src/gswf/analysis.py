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
from .dsp import (LpcModel, analyze_spectrum, asymmetric_hann,
                  lpc_from_autocorr, lpc_to_lsp, wrap_phase)
from .errors import ValidationError
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


def extract_segments(w: Waveform, track: GciTrack) -> list:
    """One windowed two-period segment per interior instant."""
    inst = track.instants
    if len(inst) < 3:
        raise ValidationError(f"need at least 3 instants to form segments, got {len(inst)}")
    if inst[0] < 0 or inst[-1] >= len(w.samples):
        raise ValidationError("instants outside waveform bounds")
    segments = []
    for s in range(1, len(inst) - 1):
        center = int(inst[s])
        left = int(inst[s] - inst[s - 1])
        right = int(inst[s + 1] - inst[s])
        window = asymmetric_hann(left, right)
        samples = w.samples[center - left:center + right + 1] * window
        segments.append(Segment(center, left, right, samples, bool(track.voiced[s])))
    return segments


def encode_phase(phase: np.ndarray) -> np.ndarray:
    """[theta_1, wrapped first differences]; same length as the input."""
    phase = np.asarray(phase, dtype=np.float64)
    out = np.empty_like(phase)
    out[0] = phase[0]
    out[1:] = wrap_phase(np.diff(phase))
    return out


def _segment_lsp(samples: np.ndarray, order: int):
    corr = np.correlate(samples, samples, "full")[len(samples) - 1:]
    r = np.zeros(order + 1)
    take = min(order + 1, len(corr))
    r[:take] = corr[:take]
    if r[0] <= 1e-20:
        # silent segment: flat predictor, uniformly spaced frequencies
        a = np.zeros(order + 1)
        a[0] = 1.0
        return lpc_to_lsp(LpcModel(order=order, a=a, gain=1.0))
    return lpc_to_lsp(lpc_from_autocorr(r, order))


def segment_to_features(seg: Segment, fs: int, cfg: PipelineConfig) -> SegmentFeatures:
    samples = seg.samples
    left, right = seg.left_len, seg.right_len
    half = cfg.fft_size // 2
    # the instant sits at buffer index fft_size//2, so each wing is bounded
    # separately rather than just the total length
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
            stacklevel=2)
        samples = samples[lcut:len(samples) - rcut]
        left, right = left - lcut, right - rcut
    frame = analyze_spectrum(samples, cfg.fft_size, pivot=left)
    rms = float(np.sqrt(np.mean(samples ** 2)))
    if seg.voiced:
        log_f0 = float(np.log(fs / seg.right_len))
    else:
        log_f0 = float(np.log(1.0 / UNVOICED_SHIFT_S))
    return SegmentFeatures(
        position=seg.center,
        voiced=seg.voiced,
        log_f0=log_f0,
        gain=float(np.log(max(rms, GAIN_FLOOR))),
        lsp=_segment_lsp(samples, LSP_ORDER).frequencies,
        phase_feature=encode_phase(frame.phase),
        log_mag=frame.log_mag if cfg.mode == "full" else None,
    )


def analyze(w: Waveform, f0_ref: F0Contour, cfg: PipelineConfig | None = None) -> FeatureStream:
    """Waveform to feature stream: GCI detection, segmentation, features."""
    cfg = cfg or PipelineConfig()
    track = detect_gci(w, f0_ref, cfg)
    segments = extract_segments(w, track)
    features = [segment_to_features(seg, w.fs, cfg) for seg in segments]
    return FeatureStream(fs=w.fs, fft_size=cfg.fft_size, mode=cfg.mode, segments=features)
