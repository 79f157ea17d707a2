"""Overlap-add resynthesis from feature streams, plus a minimum-phase
baseline that keeps magnitudes but discards the transmitted phase.

Windows are applied at analysis only; overlap-add divides by the summed
window envelope, clamped from below, so slowly varying pitch tracks
reconstruct near-exactly and constant tracks exactly.
"""

from __future__ import annotations

import logging

import numpy as np

from .analysis import FeatureStream, Segment, SegmentFeatures
from .dsp import (LspVector, _buffer_start, _nudge_increasing, asymmetric_hann,
                  inverse_spectrum, lpc_envelope, lsp_to_lpc, wrap_phase)
from .errors import ConfigError, ValidationError
from .signal_io import Waveform

log = logging.getLogger(__name__)

EPS_OLA = 1e-3  # window envelope clamp


def decode_phase(phase_feature: np.ndarray) -> np.ndarray:
    """Invert the [theta_1, wrapped differences] encoding; output in (-pi, pi]."""
    return wrap_phase(np.cumsum(np.asarray(phase_feature, dtype=np.float64)))


def _fft_size(f: SegmentFeatures, n_samples: int = 0) -> int:
    """FFT size of the stored half spectrum; an n_samples segment must fit."""
    fft_size = 2 * (len(f.phase_feature) - 1)
    if n_samples > fft_size:
        raise ValidationError(
            f"segment at {f.position} needs {n_samples} samples, more than fft_size {fft_size}"
        )
    return fft_size


def _parametric_log_mag(f: SegmentFeatures, n_samples: int) -> np.ndarray:
    """LSP envelope shifted so the reconstructed segment carries exp(gain) RMS."""
    fft_size = _fft_size(f)
    # float32 serialization can glue tight frequency pairs back together
    lsp = LspVector(_nudge_increasing(f.lsp, 1e-4))
    env = lpc_envelope(lsp_to_lpc(lsp), len(f.phase_feature), fft_size)
    mag2 = np.exp(2.0 * env)
    # Parseval: time-domain energy of a spectrum frame
    env_energy = (mag2[0] + 2.0 * np.sum(mag2[1:-1]) + mag2[-1]) / fft_size
    target = np.exp(2.0 * f.gain) * n_samples
    return env + 0.5 * (np.log(target) - np.log(max(env_energy, 1e-300)))


def segment_log_mag(f: SegmentFeatures, n_samples: int) -> np.ndarray:
    """Log magnitude of an n_samples segment: the stored spectrum in full
    mode, the gain-scaled LSP envelope in parametric mode."""
    if f.log_mag is not None:
        return np.asarray(f.log_mag, dtype=np.float64)
    return _parametric_log_mag(f, n_samples)


def features_to_segment(f: SegmentFeatures, left_len: int, right_len: int) -> Segment:
    """Reconstruct the time-domain segment for one feature entry."""
    n = left_len + right_len + 1
    fft_size = _fft_size(f, n)
    buf = inverse_spectrum(segment_log_mag(f, n), decode_phase(f.phase_feature), fft_size)
    # the analysis put the instant at fft_size//2, so extraction around that
    # index stays aligned even when the synthesis wings differ from analysis
    start = _buffer_start(n, fft_size, left_len)
    samples = buf[start:start + n]
    if f.log_mag is None:
        # envelope magnitude discards the window shaping that full-mode
        # spectra carry, so parametric grains must be re-windowed for OLA
        samples = samples * asymmetric_hann(left_len, right_len)
    return Segment(center=int(f.position), left_len=left_len, right_len=right_len,
                   samples=np.array(samples), voiced=f.voiced)


def _min_phase_time(log_mag: np.ndarray, fft_size: int) -> np.ndarray:
    """Minimum-phase impulse response for a log-magnitude half spectrum,
    rolled so the onset sits at the buffer center."""
    cep = np.fft.irfft(np.asarray(log_mag, dtype=np.float64), n=fft_size)
    folded = np.zeros_like(cep)
    folded[0] = cep[0]
    folded[1:fft_size // 2] = 2.0 * cep[1:fft_size // 2]
    folded[fft_size // 2] = cep[fft_size // 2]
    response = np.fft.ifft(np.exp(np.fft.fft(folded))).real
    return np.roll(response, fft_size // 2)


def min_phase_segment(f: SegmentFeatures, left_len: int, right_len: int) -> Segment:
    """Same magnitude as features_to_segment, minimum phase instead of the
    transmitted phase."""
    n = left_len + right_len + 1
    fft_size = _fft_size(f, n)
    buf = _min_phase_time(segment_log_mag(f, n), fft_size)
    start = _buffer_start(n, fft_size, left_len)
    # transmitted phase reproduces the analysis-windowed segment, but the
    # minimum-phase response is unwindowed and rings past the segment span;
    # re-window so the overlap-add envelope normalization stays meaningful
    samples = buf[start:start + n] * asymmetric_hann(left_len, right_len)
    return Segment(center=int(f.position), left_len=left_len, right_len=right_len,
                   samples=samples, voiced=f.voiced)


def window_envelope(half_lens, positions, total_len: int) -> np.ndarray:
    """Sum of the analysis windows implied by (left, right) spans."""
    env = np.zeros(total_len)
    for (left, right), pos in zip(half_lens, positions):
        _add_span(env, asymmetric_hann(left, right), int(pos) - left)
    return env


def _add_span(acc: np.ndarray, values: np.ndarray, start: int) -> None:
    lo = max(0, start)
    hi = min(len(acc), start + len(values))
    if hi > lo:
        acc[lo:hi] += values[lo - start:hi - start]


def overlap_add(segments, positions, total_len: int) -> np.ndarray:
    """Place segments at their positions and normalize by the summed
    analysis-window envelope.  Samples where the envelope is below EPS_OLA
    are set to zero."""
    if len(segments) != len(positions):
        raise ValidationError("one position per segment required")
    acc = np.zeros(total_len)
    for seg, pos in zip(segments, positions):
        _add_span(acc, seg.samples, int(pos) - seg.left_len)
    env = window_envelope([(s.left_len, s.right_len) for s in segments],
                          positions, total_len)
    out = acc / np.maximum(env, EPS_OLA)
    # the few outermost samples have no meaningful window support; there the
    # clamped quotient is content/eps rather than a reconstruction, which can
    # spike for unwindowed (minimum-phase) content
    out[env < EPS_OLA] = 0.0
    return out


def segment_spans(positions: np.ndarray) -> list:
    """(left, right) spans from neighbor gaps; edges mirror their known side."""
    if len(positions) == 1:
        raise ValidationError("cannot infer spans from a single position")
    spans = []
    for i in range(len(positions)):
        left = positions[i] - positions[i - 1] if i > 0 else positions[1] - positions[0]
        right = (positions[i + 1] - positions[i] if i < len(positions) - 1
                 else positions[-1] - positions[-2])
        spans.append((int(left), int(right)))
    return spans


def _generation_positions(stream: FeatureStream) -> np.ndarray:
    # one period of lead-in, then each segment's right period sets the gap
    # to the next instant; the float accumulator keeps the long-run rate
    # exact despite per-position rounding
    positions = np.empty(len(stream.segments), dtype=np.int64)
    t = 0.0
    for i, seg in enumerate(stream.segments):
        period = stream.fs / float(np.exp(seg.log_f0))
        if i == 0:
            t = period
        positions[i] = int(round(t))
        t += period
    return positions


def _synthesize(stream: FeatureStream, positions: str, builder) -> Waveform:
    if not stream.segments:
        raise ValidationError("cannot synthesize from an empty stream")
    if positions == "stream":
        pos = stream.positions
    elif positions == "f0":
        pos = _generation_positions(stream)
    else:
        raise ConfigError(f"positions must be 'stream' or 'f0', got {positions!r}")
    if len(pos) < 2:
        raise ValidationError("need at least 2 segments to synthesize")
    spans = segment_spans(pos)
    segments = [builder(f, left, right)
                for f, (left, right) in zip(stream.segments, spans)]
    total_len = int(pos[-1] + spans[-1][1] + 1)
    out = overlap_add(segments, pos, total_len)
    peak = float(np.max(np.abs(out))) if len(out) else 0.0
    if peak > 1.0:
        # saturate like the PCM writer would; rescaling the whole utterance
        # would let a single hot edge sample corrupt interior comparisons
        log.warning("synthesis peak %.3f exceeds full scale; clipping", peak)
        out = np.clip(out, -1.0, 1.0)
    return Waveform(out, stream.fs)


def synthesize(stream: FeatureStream, *, positions: str = "stream") -> Waveform:
    """Overlap-add resynthesis.  positions='stream' reconstructs at the
    analyzed instants; positions='f0' lays segments out from exp(log_f0)."""
    return _synthesize(stream, positions, features_to_segment)


def synthesize_min_phase(stream: FeatureStream, *, from_envelope: bool = False,
                         positions: str = "stream") -> Waveform:
    """Baseline resynthesis with minimum phase derived from each segment's
    log magnitude.  A parametric stream has only its LSP envelope to take
    that magnitude from, which from_envelope must allow."""
    if stream.mode == "parametric" and not from_envelope:
        raise ConfigError(
            "minimum-phase synthesis from a parametric stream requires "
            "min_phase_from_envelope"
        )
    return _synthesize(stream, positions, min_phase_segment)
