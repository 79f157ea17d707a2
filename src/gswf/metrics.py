"""Objective evaluation: waveform RMSE split by voicing, log-spectral
distance, mel-cepstral distortion, phase distortion, F0 RMSE and V/U error.

Spectral metrics run on segment pairs aligned by glottal instant; an empty
class reports 0 with count 0 rather than NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import FeatureStream
from .dsp import mel_cepstrum, wrap_phase
from .errors import ValidationError
from .gci import GciTrack
from .signal_io import Waveform
from .synthesis import segment_log_mag, segment_spans

DB = 10.0 / np.log(10.0)  # natural log to decibels

REPORT_KEYS = ("rmse_voiced", "rmse_unvoiced", "rmse", "lsd", "mcd", "dpd",
               "f0_rmse", "vuv_error_rate")


@dataclass
class MetricsReport:
    rmse_voiced: float
    rmse_unvoiced: float
    rmse: float
    lsd: float
    mcd: float
    dpd: float
    f0_rmse: float
    vuv_error_rate: float
    counts: dict

    def to_text(self) -> str:
        lines = [f"{key} {getattr(self, key):.9g} {self.counts[key]}"
                 for key in REPORT_KEYS]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in REPORT_KEYS}
        payload["counts"] = {k: int(v) for k, v in self.counts.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def voicing_mask(track: GciTrack, total_len: int) -> np.ndarray:
    """Sample-level voicing: each instant's flag extended over its two
    adjacent half-periods (midpoints between instants; edges mirror)."""
    inst = track.instants
    mask = np.zeros(total_len, dtype=bool)
    if len(inst) == 0:
        return mask
    if len(inst) == 1:
        mask[:] = track.voiced[0]
        return mask
    gaps = np.diff(inst)
    left = np.concatenate([[gaps[0]], gaps])
    right = np.concatenate([gaps, [gaps[-1]]])
    lo = np.clip(np.round(inst - left / 2).astype(np.int64), 0, total_len)
    hi = np.clip(np.round(inst + right / 2).astype(np.int64), 0, total_len)
    for i in range(len(inst)):
        mask[lo[i]:hi[i]] = track.voiced[i]
    return mask


def rmse_waveform(a: np.ndarray, b: np.ndarray, mask: np.ndarray):
    """(voiced, unvoiced, overall) RMSE plus the two sample counts."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if a.shape != b.shape or a.shape != mask.shape:
        raise ValidationError(
            f"waveforms and mask must share a length, got {a.shape}/{b.shape}/{mask.shape}"
        )
    sq = (a - b) ** 2
    n_v = int(np.count_nonzero(mask))
    n_u = len(mask) - n_v
    rv = float(np.sqrt(np.mean(sq[mask]))) if n_v else 0.0
    ru = float(np.sqrt(np.mean(sq[~mask]))) if n_u else 0.0
    ra = float(np.sqrt(np.mean(sq))) if len(sq) else 0.0
    return rv, ru, ra, n_v, n_u


def lsd(log_mag_a: np.ndarray, log_mag_b: np.ndarray) -> float:
    """Log-spectral distance in dB over aligned natural-log magnitude frames:
    sqrt of the frame-averaged sum over bins of squared dB differences."""
    a = np.atleast_2d(np.asarray(log_mag_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(log_mag_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    diff_db = DB * (a - b)
    return float(np.sqrt(np.mean(np.sum(diff_db ** 2, axis=1))))


def mcd(cep_a: np.ndarray, cep_b: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, c[0] excluded, averaged over frames."""
    a = np.atleast_2d(np.asarray(cep_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(cep_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError(f"cepstra shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    d = a[:, 1:] - b[:, 1:]
    return float(np.mean(DB * np.sqrt(2.0 * np.sum(d ** 2, axis=1))))


def dpd(phase_a: np.ndarray, phase_b: np.ndarray, wrap: bool = True) -> float:
    """Phase-feature distortion: frame-averaged Euclidean norm of the
    (wrapped) difference over all dimensions."""
    a = np.atleast_2d(np.asarray(phase_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(phase_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError(f"phase shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    d = wrap_phase(a - b) if wrap else a - b
    return float(np.mean(np.sqrt(np.sum(d ** 2, axis=1))))


def align_gci(pred_instants: np.ndarray, ref_instants: np.ndarray) -> list:
    """Pair predicted instants to nearest reference instants.

    Pairs farther than half the local reference period are dropped; each
    reference instant is used at most once, closest pair first.  Returns
    (pred_index, ref_index) pairs ordered by pred index."""
    pred = np.asarray(pred_instants, dtype=np.int64)
    ref = np.asarray(ref_instants, dtype=np.int64)
    if len(pred) == 0 or len(ref) == 0:
        return []
    right = np.searchsorted(ref, pred)
    nearest = np.empty(len(pred), dtype=np.int64)
    for i, (p, j) in enumerate(zip(pred, right)):
        lo = max(0, j - 1)
        hi = min(len(ref) - 1, j)
        nearest[i] = lo if abs(p - ref[lo]) <= abs(p - ref[hi]) else hi
    dist = np.abs(pred - ref[nearest])
    if len(ref) == 1:
        local = np.array([np.inf])
    else:
        gaps = np.diff(ref).astype(np.float64)
        local = (np.concatenate([[gaps[0]], gaps]) + np.concatenate([gaps, [gaps[-1]]])) / 2.0
    order = sorted(range(len(pred)), key=lambda i: (dist[i], i))
    used = np.zeros(len(ref), dtype=bool)
    pairs = []
    for i in order:
        j = nearest[i]
        if used[j] or dist[i] > local[j] / 2.0:
            continue
        used[j] = True
        pairs.append((int(i), int(j)))
    pairs.sort()
    return pairs


def _aligned_frames(pred: FeatureStream, ref: FeatureStream, span=None):
    pairs = align_gci(pred.positions, ref.positions)
    if span is not None:
        pairs = [(i, j) for i, j in pairs
                 if span[0] <= ref.positions[j] < span[1]]
    pred_spans = segment_spans(pred.positions) if len(pred) > 1 else [(1, 1)] * len(pred)
    ref_spans = segment_spans(ref.positions) if len(ref) > 1 else [(1, 1)] * len(ref)

    def log_mag_of(stream, spans, i):
        seg = stream.segments[i]
        left, right = spans[i]
        return segment_log_mag(seg, left + right + 1)

    voiced_pairs = [(i, j) for i, j in pairs if ref.segments[j].voiced]
    lm_p = [log_mag_of(pred, pred_spans, i) for i, _ in voiced_pairs]
    lm_r = [log_mag_of(ref, ref_spans, j) for _, j in voiced_pairs]
    ph_p = [pred.segments[i].phase_feature for i, _ in voiced_pairs]
    ph_r = [ref.segments[j].phase_feature for _, j in voiced_pairs]
    return pairs, voiced_pairs, lm_p, lm_r, ph_p, ph_r


def evaluate(pred_wav: Waveform, ref_wav: Waveform, pred_stream: FeatureStream,
             ref_stream: FeatureStream, *, span: tuple | None = None) -> MetricsReport:
    """Full report for a predicted utterance against its reference.

    span restricts scoring to a half-open (lo, hi) sample interval: waveform
    metrics cover only those samples and aligned pairs whose reference
    instant falls outside are dropped.  Round trips use it to leave out the
    mirrored edge windows, which never reconstruct exactly.
    """
    if pred_wav.fs != ref_wav.fs or pred_stream.fs != ref_stream.fs \
            or pred_wav.fs != pred_stream.fs:
        raise ValidationError("sample rates of waveforms and streams must match")
    if pred_stream.fft_size != ref_stream.fft_size:
        raise ValidationError(
            f"stream FFT sizes differ: {pred_stream.fft_size} vs {ref_stream.fft_size}"
        )
    if len(pred_wav.samples) != len(ref_wav.samples):
        raise ValidationError(
            f"waveform lengths differ: {len(pred_wav.samples)} vs {len(ref_wav.samples)}"
        )
    n = len(ref_wav.samples)
    if span is None:
        lo, hi = 0, n
    else:
        lo, hi = int(span[0]), int(span[1])
        if not 0 <= lo < hi <= n:
            raise ValidationError(f"span ({lo}, {hi}) outside waveform of {n} samples")
    ref_track = GciTrack(ref_stream.positions,
                         np.array([s.voiced for s in ref_stream.segments], dtype=bool),
                         ref_stream.fs)
    mask = voicing_mask(ref_track, n)
    rv, ru, ra, n_v, n_u = rmse_waveform(pred_wav.samples[lo:hi],
                                         ref_wav.samples[lo:hi], mask[lo:hi])

    pairs, voiced_pairs, lm_p, lm_r, ph_p, ph_r = _aligned_frames(
        pred_stream, ref_stream, span=None if span is None else (lo, hi))
    lsd_val = lsd(np.array(lm_p), np.array(lm_r)) if voiced_pairs else 0.0
    if voiced_pairs:
        cep_p = mel_cepstrum(np.array(lm_p), pred_stream.fs)
        cep_r = mel_cepstrum(np.array(lm_r), ref_stream.fs)
        mcd_val = mcd(cep_p, cep_r)
        dpd_val = dpd(np.array(ph_p), np.array(ph_r))
    else:
        mcd_val, dpd_val = 0.0, 0.0

    both_voiced = [(i, j) for i, j in pairs
                   if pred_stream.segments[i].voiced and ref_stream.segments[j].voiced]
    if both_voiced:
        fp = np.array([np.exp(pred_stream.segments[i].log_f0) for i, _ in both_voiced])
        fr = np.array([np.exp(ref_stream.segments[j].log_f0) for _, j in both_voiced])
        f0_rmse = float(np.sqrt(np.mean((fp - fr) ** 2)))
    else:
        f0_rmse = 0.0
    if pairs:
        mismatches = sum(1 for i, j in pairs
                         if pred_stream.segments[i].voiced != ref_stream.segments[j].voiced)
        vuv = mismatches / len(pairs)
    else:
        vuv = 0.0

    counts = {
        "rmse_voiced": n_v,
        "rmse_unvoiced": n_u,
        "rmse": n_v + n_u,
        "lsd": len(voiced_pairs),
        "mcd": len(voiced_pairs),
        "dpd": len(voiced_pairs),
        "f0_rmse": len(both_voiced),
        "vuv_error_rate": len(pairs),
    }
    return MetricsReport(rmse_voiced=rv, rmse_unvoiced=ru, rmse=ra, lsd=lsd_val,
                         mcd=mcd_val, dpd=dpd_val, f0_rmse=f0_rmse,
                         vuv_error_rate=vuv, counts=counts)
