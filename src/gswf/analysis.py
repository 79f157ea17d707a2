"""Glottal-synchronous analysis: segments, per-segment features, streams.

Each interior glottal instant yields one two-period segment, windowed so
that overlap-add of untouched segments reproduces the waveform.  A segment
is described by voicing, log F0, log gain, line spectral frequencies and a
phase-difference vector; full mode additionally stores the log-magnitude
spectrum.

This module owns the segment layout that analysis, synthesis and the
roundtrip scoring share (cut_segments): a segment is a row of fft_size
samples with its instant at index fft_size//2.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import PipelineConfig
from .dsp import (EPS_MAG, autocorr, lpc_predictors, lsp_envelope, reflection_to_lsp_batch,
                  wrap_phase)
from .errors import RowError, ValidationError
from .gci import UNVOICED_SHIFT_S, GciTrack, detect_gci
from .signal_io import F0Contour, Waveform

GAIN_FLOOR = 1e-10  # RMS floor so silent segments keep a finite log gain
# bound on |gain| and |log_mag|, natural-log magnitudes: exp(2 x) stays
# finite and nonzero with room for the log(fft_size) that an LSP envelope
# adds to its gain, and the log of every magnitude below 1e130 is inside
LOG_MAG_LIMIT = 300.0
LSP_ORDER = 40      # LSP values per segment
BLOCK = 64          # rows per array pass; rows never mix, so it changes no bit


@dataclass
class SegmentFeatures:
    """One segment's features as a record: what FeatureStream.segments
    builds from a stream row, and FeatureStream(segments=...) takes apart.
    The library works on the stream's columns only."""
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


@dataclass(init=False)
class FeatureStream:
    """The features of n segments, one array per field: positions (n,)
    int64, non-negative and strictly increasing; voiced (n,) bool; log_f0
    and gain (n,); lsp (n, LSP_ORDER); phase (n, K) phase features
    (encode_phase) and, in full mode, log_mag (n, K) natural-log magnitudes,
    with K = fft_size//2 + 1.  log_mag is None in parametric mode.  The
    float columns hold finite values only, log_f0 at most log(fs), and gain
    and log_mag at most LOG_MAG_LIMIT in magnitude.

    FeatureStream(fs, fft_size, mode, segments=records) takes the columns
    from a list of SegmentFeatures records instead, and .segments builds
    the records of the rows."""
    fs: int
    fft_size: int
    mode: str  # "parametric" or "full"
    positions: np.ndarray
    voiced: np.ndarray
    log_f0: np.ndarray
    gain: np.ndarray
    lsp: np.ndarray
    phase: np.ndarray
    log_mag: np.ndarray | None = None

    def __init__(self, fs: int, fft_size: int, mode: str, positions=None, voiced=None,
                 log_f0=None, gain=None, lsp=None, phase=None, log_mag=None, *,
                 segments: list | None = None) -> None:
        columns = (positions, voiced, log_f0, gain, lsp, phase, log_mag)
        if segments is not None:
            if any(c is not None for c in columns):
                raise TypeError("FeatureStream takes columns or segments, not both")
            columns = _record_columns(segments, fft_size, mode)
        if any(c is None for c in columns[:6]):
            raise TypeError("FeatureStream needs positions, voiced, log_f0, gain, lsp "
                            "and phase")
        self.fs, self.fft_size, self.mode = fs, fft_size, mode
        self.positions = np.asarray(columns[0], dtype=np.int64)
        self.voiced = np.asarray(columns[1], dtype=bool)
        self.log_f0, self.gain, self.lsp, self.phase, self.log_mag = (
            None if c is None else np.asarray(c, dtype=np.float64) for c in columns[2:])
        self._check()

    def _check(self) -> None:
        if self.fs <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.fs}")
        if self.mode not in ("parametric", "full"):
            raise ValidationError(f"unknown stream mode {self.mode!r}")
        if (self.log_mag is None) == (self.mode == "full"):
            raise ValidationError(f"{self.mode}-mode stream has "
                                  f"{'no' if self.log_mag is None else 'a'} log_mag")
        n, n_bins = self.positions.size, self.fft_size // 2 + 1
        shapes = {"positions": (n,), "voiced": (n,), "log_f0": (n,), "gain": (n,),
                  "lsp": (n, LSP_ORDER), "phase": (n, n_bins), "log_mag": (n, n_bins)}
        for name, shape in shapes.items():
            got = getattr(self, name)
            if got is not None and got.shape != shape:
                raise ValidationError(f"stream {name} has shape {got.shape}, expected "
                                      f"{shape} for {n} segments at fft_size {self.fft_size}")
        for name in ("log_f0", "gain", "lsp", "phase", "log_mag"):
            got = getattr(self, name)
            if got is not None and not np.isfinite(got).all():
                row = np.argwhere(~np.isfinite(got))[0][0]
                raise ValidationError(f"stream {name} is not finite in row {row}")
        # F0 is at most fs, also once the file rounds log_f0 to float32
        top = np.log(self.fs)
        high = self.log_f0 > max(top, np.float32(top))
        if np.any(high):
            row = int(np.argmax(high))
            raise ValidationError(f"stream log_f0 is {self.log_f0[row]:.9g} in row {row}, "
                                  f"above log(fs) = {top:.9g}")
        for name in ("gain", "log_mag"):
            got = getattr(self, name)
            # two reductions, not a temporary as large as the column
            if got is not None and max(got.max(initial=0.0),
                                       -got.min(initial=0.0)) > LOG_MAG_LIMIT:
                at = tuple(np.argwhere(np.abs(got) > LOG_MAG_LIMIT)[0])
                raise ValidationError(f"stream {name} is {got[at]:g} in row {at[0]}, "
                                      f"outside +-{LOG_MAG_LIMIT:g}")
        if np.any(np.diff(self.positions) <= 0):
            raise ValidationError("segment positions must be strictly increasing")
        if n and self.positions[0] < 0:
            raise ValidationError(f"segment positions must be non-negative, the first "
                                  f"is {self.positions[0]}")

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def segments(self) -> list:
        """The rows as SegmentFeatures records, built on each access."""
        mags = [None] * len(self) if self.log_mag is None else self.log_mag
        return [SegmentFeatures(position=p, voiced=v, log_f0=f, gain=g, lsp=lsp,
                                phase_feature=phase, log_mag=mag)
                for p, v, f, g, lsp, phase, mag in zip(
                    self.positions.tolist(), self.voiced.tolist(), self.log_f0.tolist(),
                    self.gain.tolist(), self.lsp, self.phase, mags)]


def _record_columns(segments: list, fft_size: int, mode: str) -> tuple:
    """The columns of SegmentFeatures records, in FeatureStream's argument
    order; log_mag is None in a parametric stream whose records have none."""
    def stack(rows, width):
        return np.array(rows, dtype=np.float64) if rows else np.zeros((0, width))

    n_bins = fft_size // 2 + 1
    mags = [s.log_mag for s in segments if s.log_mag is not None]
    return ([s.position for s in segments], [s.voiced for s in segments],
            [s.log_f0 for s in segments], [s.gain for s in segments],
            stack([s.lsp for s in segments], LSP_ORDER),
            stack([s.phase_feature for s in segments], n_bins),
            stack(mags, n_bins) if mags or mode == "full" else None)


def segment_spans(positions: np.ndarray) -> np.ndarray:
    """(left, right) spans from neighbor gaps, an (n, 2) int64 array; edges
    mirror their known side."""
    if len(positions) == 1:
        raise ValidationError("cannot infer spans from a single position")
    gaps = np.diff(np.asarray(positions, dtype=np.int64))
    return np.stack([np.concatenate([gaps[:1], gaps]), np.concatenate([gaps, gaps[-1:]])],
                    axis=1)


def fit_wings(spans, fft_size: int) -> np.ndarray:
    """The (left, right) wings of each span that a row of fft_size samples
    holds with its instant at index fft_size//2: left <= fft_size/2 and
    right <= fft_size/2 - 1.  Returns an (n, 2) int64 array."""
    half = fft_size // 2
    return np.minimum(np.reshape(np.array(spans, dtype=np.int64), (-1, 2)),
                      [half, half - 1])


def segment_log_mags(stream: FeatureStream, index, spans) -> np.ndarray:
    """Log magnitudes (rows, fft_size//2 + 1) of the stream's rows at index,
    a slice or an array of row indices, each with its (left, right) span:
    the stored spectra in full mode; in parametric mode the LSP envelopes,
    shifted so each segment carries exp(gain) RMS over its wings
    (fit_wings)."""
    if stream.mode == "full":
        return stream.log_mag[index]
    try:
        env = lsp_envelope(stream.lsp[index], stream.fft_size)
    except RowError as e:
        raise ValidationError(
            f"segment at {stream.positions[index][e.rows[0]]}: {e.reason}") from e
    mag2 = np.exp(2.0 * env)
    # Parseval: time-domain energy of a spectrum frame
    energy = (mag2[:, 0] + 2.0 * np.sum(mag2[:, 1:-1], axis=1) + mag2[:, -1]) / stream.fft_size
    n_samples = fit_wings(spans, stream.fft_size).sum(axis=1) + 1
    scale = stream.gain[index] + 0.5 * np.log(n_samples / np.maximum(energy, 1e-300))
    return env + scale[:, None]


@functools.lru_cache(maxsize=16)
def _falling_windows(fft_size: int) -> np.ndarray:
    """Read-only (half + 1, half + 1) table, half = fft_size//2: row n holds
    0.5 - 0.5 cos(pi k / n) at k = n - m for the distances m = 0..half from
    the instant, zero past the span (k < 0); row 0 is unused."""
    half = fft_size // 2
    lengths = np.arange(1, half + 1)
    k = lengths[:, None] - np.arange(half + 1)
    table = np.zeros((half + 1, half + 1))
    table[1:] = 0.5 - 0.5 * np.cos(np.pi * k / lengths[:, None])
    table[1:][k < 0] = 0.0
    table.flags.writeable = False
    return table


def window_rows(spans, fft_size: int) -> np.ndarray:
    """The analysis window of each (left, right) span as a row of an
    (n, fft_size) stack, its peak at index fft_size//2, over the span's
    wings (fit_wings) and zero elsewhere.  At distance m from the instant
    the window is 0.5 - 0.5 cos(pi (n - m) / n), with n = left before the
    instant and n = right after it: a raised cosine rising from 0 at -left
    to exactly 1 at the instant and falling to 0 at +right."""
    spans = np.reshape(np.array(spans, dtype=np.int64), (-1, 2))
    if np.any(spans < 1):
        raise ValidationError(f"window half lengths must be >= 1, got {spans.min()}")
    # each side is a row of the falling half-windows, read outwards from the
    # instant: by the left span to its left and by the right span to its right
    half = fft_size // 2
    fall = _falling_windows(fft_size)
    fitted = np.minimum(spans, half)
    rows = np.concatenate([fall[fitted[:, 0], ::-1], fall[fitted[:, 1], 1:half]], axis=1)
    # a span longer than the row reaches past the table; its sides are built here
    row, side = np.nonzero(spans > half)
    if len(row):
        n = spans[row, side][:, None]
        long = 0.5 - 0.5 * np.cos(np.pi * (n - np.arange(half + 1)) / n)
        left = side == 0
        rows[row[left], :half + 1] = long[left, ::-1]
        rows[row[~left], half + 1:] = long[~left, 1:half]
    return rows


def cut_segments(w: Waveform, centers, spans, fft_size: int) -> np.ndarray:
    """The segment layout: one row of an (n, fft_size) stack per center,
    holding the samples of w around it times window_rows of its (left,
    right) span, the center at index fft_size//2 and zero outside the wings
    (fit_wings) and outside w."""
    x = w.samples
    centers = np.asarray(centers, dtype=np.int64)
    if np.any((centers < 0) | (centers >= len(x))):
        raise ValidationError("instants outside waveform bounds")
    spans = np.reshape(np.array(spans, dtype=np.int64), (-1, 2))
    wings = fit_wings(spans, fft_size)
    rows = window_rows(spans, fft_size)
    half = fft_size // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(half)])
    cols = np.arange(fft_size) - half
    inside = (cols >= -wings[:, :1]) & (cols <= wings[:, 1:])
    # the samples of BLOCK rows at a time, so the gathered copy stays one
    # block; only the wings are multiplied, as outside them a row keeps
    # window_rows' +0.0, where a product with a negative sample is -0.0
    view = sliding_window_view(padded, fft_size)
    for lo in range(0, len(rows), BLOCK):
        block = rows[lo:lo + BLOCK]
        np.multiply(block, view[centers[lo:lo + BLOCK]], out=block,
                    where=inside[lo:lo + BLOCK])
    return rows


def extract_segments(w: Waveform, track: GciTrack, cfg: PipelineConfig) -> np.ndarray:
    """The cut_segments rows of the interior instants.  A span longer than
    the wings (fit_wings) is an error when cfg.oversize_segment is "error";
    when it is "truncate" the row keeps the wings, with a warning."""
    inst = track.instants
    if len(inst) < 3:
        raise ValidationError(f"need at least 3 instants to form segments, got {len(inst)}")
    if inst[0] < 0 or inst[-1] >= len(w.samples):
        raise ValidationError("instants outside waveform bounds")
    centers, spans = inst[1:-1], segment_spans(inst)[1:-1]
    wings = fit_wings(spans, cfg.fft_size)
    for i in np.flatnonzero(np.any(wings != spans, axis=1)):
        (left, right), (wl, wr) = spans[i], wings[i]
        if cfg.oversize_segment != "truncate":
            raise ValidationError(
                f"segment at {centers[i]} spans ({left}, {right}) samples around "
                f"the instant, more than fft_size {cfg.fft_size} can hold; "
                f"lower the pitch range or raise fft_size")
        warnings.warn(f"truncating segment at {centers[i]} from ({left}, {right}) "
                      f"to ({wl}, {wr})", stacklevel=2)
    return cut_segments(w, centers, spans, cfg.fft_size)


def encode_phase(phase: np.ndarray) -> np.ndarray:
    """[theta_1, wrapped first differences] along the last axis; same shape
    as the input."""
    phase = np.asarray(phase, dtype=np.float64)
    out = np.empty_like(phase)
    out[..., 0] = phase[..., 0]
    out[..., 1:] = wrap_phase(np.diff(phase, axis=-1))
    return out


def row_spectra(rows: np.ndarray) -> tuple:
    """Natural-log magnitude and phase feature (encode_phase) of the rfft of
    each row: (log_mag, phase_feature), each (rows, fft_size//2 + 1).  The
    rfft and the encoding take BLOCK rows at a time, so their temporaries
    stay one block however long the stack; rows never mix, so the block
    changes no bit."""
    log_mag = np.empty((len(rows), rows.shape[1] // 2 + 1))
    feature = np.empty_like(log_mag)
    for lo in range(0, len(rows), BLOCK):
        spec = np.fft.rfft(rows[lo:lo + BLOCK])
        np.abs(spec, out=log_mag[lo:lo + BLOCK])
        feature[lo:lo + BLOCK] = encode_phase(wrap_phase(np.angle(spec)))
    log_mag += EPS_MAG
    np.log(log_mag, out=log_mag)
    return log_mag, feature


def segments_to_features(rows: np.ndarray, centers, spans, voiced, fs: int,
                         mode: str) -> FeatureStream:
    """The feature stream of the cut_segments rows of (center, span) pairs,
    computed in one array pass: autocorrelations and gains of each row's
    wings, then one Levinson recursion, one LSP conversion of its
    reflection coefficients and the rfft of the stack."""
    fft_size = rows.shape[1]
    half = fft_size // 2
    views = [row[half - wl:half + wr + 1]
             for row, (wl, wr) in zip(rows, fit_wings(spans, fft_size))]
    r = np.array([autocorr(samples, LSP_ORDER) for samples in views])
    try:
        lsp = reflection_to_lsp_batch(lpc_predictors(r, LSP_ORDER)[1])
    except RowError as e:
        raise ValidationError(
            f"{e.reason} (segment at sample {centers[e.rows[0]]}; "
            f"{len(e.rows)} of {e.n_rows} segments fail)") from e
    log_mag, phase = row_spectra(rows)
    voiced = np.asarray(voiced, dtype=bool)
    right = np.reshape(np.array(spans, dtype=np.int64), (-1, 2))[:, 1]
    log_f0 = np.where(voiced, np.log(fs / right), np.log(1.0 / UNVOICED_SHIFT_S))
    # one np.mean per row: its pairwise sum depends on the row's length
    rms = np.sqrt([np.mean(samples ** 2) for samples in views])
    return FeatureStream(fs, fft_size, mode, centers, voiced, log_f0,
                         np.log(np.maximum(rms, GAIN_FLOOR)), lsp, phase,
                         log_mag if mode == "full" else None)


def analyze(w: Waveform, f0_ref: F0Contour, cfg: PipelineConfig | None = None) -> FeatureStream:
    """Waveform to feature stream: GCI detection, segmentation, features."""
    cfg = cfg or PipelineConfig()
    track = detect_gci(w, f0_ref)
    rows = extract_segments(w, track, cfg)
    inst = track.instants
    return segments_to_features(rows, inst[1:-1], segment_spans(inst)[1:-1],
                                track.voiced[1:-1], w.fs, cfg.mode)
