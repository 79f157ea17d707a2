"""Overlap-add resynthesis from feature streams, plus a minimum-phase
baseline that keeps magnitudes but discards the transmitted phase.

Segments are rebuilt BLOCK at a time, one array pass per block: a cumsum
decodes the phases, parametric envelopes come from one LSP conversion and
one rfft, and one irfft (or irfft, fft and ifft for minimum phase) makes
the rows.  A row has analysis.cut_segments's layout: its instant at index
fft_size//2 and the wings of its span around it.  Rows never mix, so the
block size, which bounds the stacks' memory, changes no bit; overlap-add
keeps the stream's summation order.

Overlap-add divides by the summed windows of the same wings, clamped from
below, so slowly varying pitch tracks reconstruct near-exactly and
constant tracks exactly.
"""

from __future__ import annotations

import logging

import numpy as np

from .analysis import (BLOCK, FeatureStream, fit_wings, segment_log_mags, segment_spans,
                       window_rows)
from .dsp import inverse_spectrum, wrap_phase
from .errors import ConfigError, ValidationError
from .signal_io import Waveform

log = logging.getLogger(__name__)

EPS_OLA = 1e-3  # window envelope clamp


def decode_phase(phase_feature: np.ndarray) -> np.ndarray:
    """Invert the [theta_1, wrapped differences] encoding along the last
    axis; output in (-pi, pi]."""
    return wrap_phase(np.cumsum(np.asarray(phase_feature, dtype=np.float64), axis=-1))


def build_segments(stream: FeatureStream, index, spans, windows,
                   min_phase: bool = False) -> np.ndarray:
    """The rows (rows, fft_size) of the stream's rows at index, a slice or
    an array of row indices, with their (left, right) spans, in one array
    pass, each with its instant at index fft_size//2; overlap_add reads
    each row's wings (fit_wings).  windows is window_rows(spans, fft_size),
    which overlap_add needs too.  min_phase keeps the magnitude and
    replaces the transmitted phase by the minimum phase."""
    fft_size = stream.fft_size
    log_mag = segment_log_mags(stream, index, spans)
    half = fft_size // 2
    if min_phase:
        # fold each real cepstrum onto its causal half; the minimum-phase
        # response is rolled so its onset sits at the buffer center
        cep = np.fft.irfft(log_mag, n=fft_size)
        cep[:, 1:half] *= 2.0
        cep[:, half + 1:] = 0.0
        rows = np.roll(np.fft.ifft(np.exp(np.fft.fft(cep))).real, half, axis=1)
    else:
        phase = decode_phase(stream.phase[index])
        rows = inverse_spectrum(log_mag, phase, fft_size)
    # envelope magnitude discards the window shaping that full-mode spectra
    # carry, and the minimum-phase response is unwindowed and rings past the
    # segment span; both are re-windowed so the OLA normalization holds
    if min_phase or stream.mode == "parametric":
        rows *= windows
    return rows


def _add_wings(acc: np.ndarray, rows: np.ndarray, positions, spans) -> None:
    # each row's wings, added at its position in stream order
    half = rows.shape[1] // 2
    wings = fit_wings(spans, rows.shape[1])
    positions = np.asarray(positions, dtype=np.int64)
    lo = np.maximum(positions - wings[:, 0], 0)
    hi = np.minimum(positions + wings[:, 1] + 1, len(acc))
    for row, a, b, start in zip(rows, lo.tolist(), hi.tolist(),
                                (half + lo - positions).tolist()):
        if b > a:
            acc[a:b] += row[start:start + b - a]


def overlap_add(blocks, positions, spans, total_len: int) -> np.ndarray:
    """Add the wings of each row at its position, block by block, and
    normalize by the window envelope of the same spans.  blocks yields
    (rows, windows) pairs: a block's rows (build_segments) and the
    window_rows of their spans, whose wings make the envelope.  Samples
    where the envelope is below EPS_OLA are set to zero."""
    if len(spans) != len(positions):
        raise ValidationError("one position and one span per row required")
    acc, env = np.zeros(total_len), np.zeros(total_len)
    done = 0
    for rows, windows in blocks:
        block = slice(done, done + len(rows))
        _add_wings(acc, rows, positions[block], spans[block])
        _add_wings(env, windows, positions[block], spans[block])
        done += len(rows)
        # free the block before the next one is built; holding it made
        # full-mode synthesis ~5% slower (allocation of the next block)
        del rows, windows
    if not done or done != len(positions):
        raise ValidationError("one position and one span per row required")
    out = acc / np.maximum(env, EPS_OLA)
    # the few outermost samples have no meaningful window support; there the
    # clamped quotient is content/eps rather than a reconstruction, which can
    # spike for unwindowed (minimum-phase) content
    out[env < EPS_OLA] = 0.0
    return out


def _generation_positions(stream: FeatureStream) -> np.ndarray:
    # one period of lead-in, then each segment's period sets the gap to the
    # next instant: positions round the float running sums p0, 2 p0, 2 p0 +
    # p1, ..., which keeps the long-run rate exact despite the rounding
    periods = stream.fs / np.exp(stream.log_f0)
    return np.round(np.cumsum(np.concatenate([periods[:1], periods[:-1]]))).astype(np.int64)


def _synthesize(stream: FeatureStream, positions: str, min_phase: bool) -> Waveform:
    if positions == "stream":
        pos = stream.positions
    elif positions == "f0":
        pos = _generation_positions(stream)
    else:
        raise ConfigError(f"positions must be 'stream' or 'f0', got {positions!r}")
    if len(pos) < 2:
        raise ValidationError("need at least 2 segments to synthesize")
    spans = segment_spans(pos)
    starts = range(0, len(pos), BLOCK)
    windows = (window_rows(spans[lo:lo + BLOCK], stream.fft_size) for lo in starts)
    blocks = ((build_segments(stream, slice(lo, lo + BLOCK), spans[lo:lo + BLOCK], w,
                              min_phase), w)
              for lo, w in zip(starts, windows))
    total_len = int(pos[-1] + spans[-1][1] + 1)
    out = overlap_add(blocks, pos, spans, total_len)
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
    return _synthesize(stream, positions, False)


def synthesize_min_phase(stream: FeatureStream, *, from_envelope: bool = False,
                         positions: str = "stream") -> Waveform:
    """Baseline resynthesis with minimum phase derived from each segment's
    log magnitude.  A parametric stream has only its LSP envelope to take
    that magnitude from, which from_envelope must allow."""
    if stream.mode == "parametric" and not from_envelope:
        raise ConfigError(
            "minimum-phase synthesis from a parametric stream requires from_envelope "
            "(gswf synthesize --min-phase-from-envelope)"
        )
    return _synthesize(stream, positions, True)
