"""Objective evaluation: waveform RMSE split by voicing, log-spectral
distance, mel-cepstral distortion, phase distortion, F0 RMSE and V/U error.

Spectral metrics run on segment pairs aligned by glottal instant; an empty
class reports 0 with count 0 rather than NaN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import FeatureStream, segment_log_mags, segment_spans
from .dsp import mel_cepstrum, wrap_phase
from .errors import ValidationError
from .signal_io import Waveform

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
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def voicing_mask(instants: np.ndarray, voiced: np.ndarray, total_len: int) -> np.ndarray:
    """Sample-level voicing of strictly increasing instants: each instant's
    flag extended over its two adjacent half-periods [lo, hi) (midpoints
    between instants; edges mirror), a later instant's over an earlier's."""
    inst = np.asarray(instants, dtype=np.int64)
    voiced = np.asarray(voiced, dtype=bool)
    if inst.shape != voiced.shape or np.any(np.diff(inst) <= 0):
        raise ValidationError("need one voicing flag per instant, instants strictly increasing")
    if len(inst) < 2:
        return np.full(total_len, len(inst) == 1 and bool(voiced[0]))
    bounds = np.round(inst[:, None] + segment_spans(inst) * [-0.5, 0.5]).astype(np.int64)
    lo, hi = np.clip(bounds, 0, total_len).T
    # lo and hi never decrease, so the last instant with lo <= t is the only
    # one whose [lo, hi) can still hold sample t
    t = np.arange(total_len)
    last = np.searchsorted(lo, t, side="right") - 1
    return (last >= 0) & (t < hi[last]) & voiced[last]


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


def _score_frames(frames_a, frames_b, what: str, formula) -> float:
    # formula of the aligned frame pairs as 2-d float64 arrays; no frames
    # score 0.0
    a = np.atleast_2d(np.asarray(frames_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(frames_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValidationError(f"{what} shapes differ: {a.shape} vs {b.shape}")
    return float(formula(a, b)) if a.size else 0.0


def lsd(log_mag_a: np.ndarray, log_mag_b: np.ndarray) -> float:
    """Log-spectral distance in dB over aligned natural-log magnitude frames:
    sqrt of the frame-averaged sum over bins of squared dB differences."""
    return _score_frames(log_mag_a, log_mag_b, "frame", lambda a, b: np.sqrt(
        np.mean(np.sum((DB * (a - b)) ** 2, axis=1))))


def mcd(cep_a: np.ndarray, cep_b: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, c[0] excluded, averaged over frames."""
    return _score_frames(cep_a, cep_b, "cepstra", lambda a, b: np.mean(
        DB * np.sqrt(2.0 * np.sum((a[:, 1:] - b[:, 1:]) ** 2, axis=1))))


def dpd(phase_a: np.ndarray, phase_b: np.ndarray) -> float:
    """Phase-feature distortion: frame-averaged Euclidean norm of the
    wrapped difference over all dimensions."""
    return _score_frames(phase_a, phase_b, "phase", lambda a, b: np.mean(
        np.sqrt(np.sum(wrap_phase(a - b) ** 2, axis=1))))


def align_gci(pred_instants: np.ndarray, ref_instants: np.ndarray) -> tuple:
    """Pair predicted instants to nearest reference instants.

    Pairs farther than half the local reference period are dropped; each
    reference instant is used at most once, closest pair first (the lower
    pred index on a tie).  Returns the (pred_index, ref_index) int64 arrays
    of the pairs, ordered by pred index."""
    pred = np.asarray(pred_instants, dtype=np.int64)
    ref = np.asarray(ref_instants, dtype=np.int64)
    if len(pred) == 0 or len(ref) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    right = np.searchsorted(ref, pred)
    lo = np.maximum(right - 1, 0)
    hi = np.minimum(right, len(ref) - 1)
    nearest = np.where(np.abs(pred - ref[lo]) <= np.abs(pred - ref[hi]), lo, hi)
    dist = np.abs(pred - ref[nearest])
    local = segment_spans(ref).sum(axis=1) / 2.0 if len(ref) > 1 else np.array([np.inf])
    # whether a pair passes the gate depends on its distance alone, so the
    # greedy pass is the first gated pair per reference in (distance, index)
    # order
    gated = np.flatnonzero(dist <= local[nearest] / 2.0)
    order = gated[np.lexsort((gated, dist[gated]))]
    _, first = np.unique(nearest[order], return_index=True)
    pred_idx = np.sort(order[first])
    return pred_idx, nearest[pred_idx]


def _log_mags(stream: FeatureStream, pos: np.ndarray, index: np.ndarray) -> np.ndarray:
    # each row as long as the wings synthesis gives it; a lone segment
    # spans (1, 1)
    spans = segment_spans(pos) if len(pos) > 1 else np.ones((1, 2), dtype=np.int64)
    return segment_log_mags(stream, index, spans[index])


def evaluate(pred_wav: Waveform, ref_wav: Waveform, pred_stream: FeatureStream,
             ref_stream: FeatureStream, *, span: tuple | None = None) -> MetricsReport:
    """Full report for a predicted utterance against its reference.

    span restricts scoring to a (lo, hi) sample interval: waveform metrics
    cover the samples in [lo, hi), and aligned pairs count only when their
    reference instant lies strictly inside it, so a segment centred on lo
    or hi, whose window reaches past it, is left out.  A round trip passes
    the span its stream reconstructs, from the first to the last instant.
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
    pred_pos, ref_pos = pred_stream.positions, ref_stream.positions
    pred_voiced, ref_voiced = pred_stream.voiced, ref_stream.voiced
    mask = voicing_mask(ref_pos, ref_voiced, n)
    rv, ru, ra, n_v, n_u = rmse_waveform(pred_wav.samples[lo:hi],
                                         ref_wav.samples[lo:hi], mask[lo:hi])

    pi, ri = align_gci(pred_pos, ref_pos)
    if span is not None:
        inside = (lo < ref_pos[ri]) & (ref_pos[ri] < hi)
        pi, ri = pi[inside], ri[inside]
    vp, vr = pi[ref_voiced[ri]], ri[ref_voiced[ri]]
    if len(vr):
        lm_p = _log_mags(pred_stream, pred_pos, vp)
        lm_r = _log_mags(ref_stream, ref_pos, vr)
        lsd_val = lsd(lm_p, lm_r)
        mcd_val = mcd(mel_cepstrum(lm_p, pred_stream.fs), mel_cepstrum(lm_r, ref_stream.fs))
        dpd_val = dpd(pred_stream.phase[vp], ref_stream.phase[vr])
    else:
        lsd_val = mcd_val = dpd_val = 0.0

    both = pred_voiced[pi] & ref_voiced[ri]
    if np.any(both):
        fp = np.exp(pred_stream.log_f0[pi[both]])
        fr = np.exp(ref_stream.log_f0[ri[both]])
        f0_rmse = float(np.sqrt(np.mean((fp - fr) ** 2)))
    else:
        f0_rmse = 0.0
    vuv = float(np.mean(pred_voiced[pi] != ref_voiced[ri])) if len(pi) else 0.0

    counts = {
        "rmse_voiced": n_v,
        "rmse_unvoiced": n_u,
        "rmse": n_v + n_u,
        "lsd": len(vr),
        "mcd": len(vr),
        "dpd": len(vr),
        "f0_rmse": int(np.count_nonzero(both)),
        "vuv_error_rate": len(pi),
    }
    return MetricsReport(rmse_voiced=rv, rmse_unvoiced=ru, rmse=ra, lsd=lsd_val,
                         mcd=mcd_val, dpd=dpd_val, f0_rmse=f0_rmse,
                         vuv_error_rate=vuv, counts=counts)
