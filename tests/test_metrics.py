import dataclasses
import json

import numpy as np
import pytest

from gswf import (FeatureStream, PipelineConfig, ValidationError, Waveform, analyze,
                  evaluate, synthesize)
from gswf.dsp import wrap_phase
from gswf.metrics import (DB, REPORT_KEYS, align_gci, dpd, lsd, mcd, rmse_waveform,
                          voicing_mask)
from signals import harmonic_tone, speech_like


# ------------------------------------------------------------- closed forms

def test_lsd_uniform_magnitude_ratio_closed_form():
    rng = np.random.default_rng(51)
    a = rng.normal(0.0, 1.0, (12, 257))
    b = a + np.log(10.0)  # a uniform 10x magnitude ratio
    assert lsd(a, b) == pytest.approx(10.0 * np.sqrt(257), rel=1e-12)
    assert lsd(a, b) == pytest.approx(160.3121954, rel=1e-6)


def test_mcd_single_coefficient_unit_difference():
    rng = np.random.default_rng(52)
    a = rng.normal(0.0, 1.0, (7, 25))
    b = a.copy()
    b[:, 1] += 1.0
    assert mcd(a, b) == pytest.approx(DB * np.sqrt(2.0), rel=1e-12)
    assert mcd(a, b) == pytest.approx(6.1415, rel=1e-3)


def test_mcd_ignores_c0():
    rng = np.random.default_rng(53)
    a = rng.normal(0.0, 1.0, (7, 25))
    b = a.copy()
    b[:, 0] += 5.0
    assert mcd(a, b) == 0.0


def test_dpd_uniform_offset_closed_form():
    rng = np.random.default_rng(54)
    a = wrap_phase(rng.uniform(-np.pi, np.pi, (9, 257)))
    b = wrap_phase(a + 0.70)
    assert dpd(a, b) == pytest.approx(0.70 * np.sqrt(257), rel=1e-9)
    assert dpd(a, b) == pytest.approx(11.22, rel=1e-3)


def test_dpd_wraps_near_two_pi():
    a = np.zeros((1, 8))
    b = np.full((1, 8), 2 * np.pi - 0.01)
    assert dpd(a, b) == pytest.approx(0.01 * np.sqrt(8), abs=1e-9)


# ------------------------------------------------------- pseudo-metric suite

@pytest.mark.parametrize("metric,shape", [(lsd, (5, 33)), (mcd, (5, 25)),
                                          (dpd, (5, 33))])
def test_metrics_are_pseudo_metrics(metric, shape):
    rng = np.random.default_rng(55)
    for _ in range(20):
        a = rng.normal(0.0, 1.0, shape)
        b = rng.normal(0.0, 1.0, shape)
        assert metric(a, a) == 0.0
        d_ab = metric(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(metric(b, a), rel=1e-12)


def test_metrics_reject_mismatched_shapes():
    with pytest.raises(ValidationError):
        lsd(np.zeros((2, 5)), np.zeros((3, 5)))
    with pytest.raises(ValidationError):
        mcd(np.zeros((2, 5)), np.zeros((2, 6)))
    with pytest.raises(ValidationError):
        dpd(np.zeros((2, 5)), np.zeros((1, 5)))


# ----------------------------------------------------------------- waveform

def test_rmse_decomposition_identity():
    rng = np.random.default_rng(56)
    a = rng.normal(0.0, 0.5, 400)
    b = rng.normal(0.0, 0.5, 400)
    mask = rng.uniform(size=400) < 0.6
    rv, ru, ra, n_v, n_u = rmse_waveform(a, b, mask)
    assert n_v + n_u == 400
    combined = np.sqrt((n_v * rv ** 2 + n_u * ru ** 2) / 400)
    assert ra == pytest.approx(combined, rel=1e-12)


def test_rmse_empty_class_reports_zero():
    a = np.ones(10)
    b = np.zeros(10)
    rv, ru, ra, n_v, n_u = rmse_waveform(a, b, np.ones(10, dtype=bool))
    assert (rv, ru) == (1.0, 0.0)
    assert n_u == 0


def _voicing_mask_loop(instants, voiced, total_len):
    # the per-instant reference: later instants overwrite earlier ones
    inst = np.asarray(instants)
    mask = np.zeros(total_len, dtype=bool)
    if len(inst) == 0:
        return mask
    if len(inst) == 1:
        mask[:] = voiced[0]
        return mask
    gaps = np.diff(inst)
    left = np.concatenate([[gaps[0]], gaps])
    right = np.concatenate([gaps, [gaps[-1]]])
    lo = np.clip(np.round(inst - left / 2).astype(np.int64), 0, total_len)
    hi = np.clip(np.round(inst + right / 2).astype(np.int64), 0, total_len)
    for i in range(len(inst)):
        mask[lo[i]:hi[i]] = voiced[i]
    return mask


def test_voicing_mask_extends_over_half_periods():
    mask = voicing_mask(np.array([100, 200, 300]), np.array([True, True, False]), 400)
    # instant 100 covers [50, 150), instant 200 covers [150, 250),
    # unvoiced instant 300 covers [250, 350)
    assert mask[60] and mask[149] and mask[200] and mask[249]
    assert not mask[250] and not mask[340]
    assert not mask[0:50].any()


def test_voicing_mask_matches_the_per_instant_loop():
    rng = np.random.default_rng(58)
    for trial in range(2000):
        n = int(rng.integers(0, 9)) if trial < 1000 else int(rng.integers(9, 60))
        # odd and even gaps, so midpoints round half to even both ways
        inst = np.cumsum(rng.integers(1, 40, n)) + int(rng.integers(-30, 30))
        voiced = rng.uniform(size=n) < 0.6
        # lengths that cut the mask inside, at and past the last half-period
        total = int(rng.integers(0, 40 * n + 60))
        expected = _voicing_mask_loop(inst, voiced, total)
        got = voicing_mask(inst, voiced, total)
        assert got.dtype == bool and got.shape == (total,)
        assert np.array_equal(got, expected), (inst, voiced, total)
    for instants, flags in (([100, 200], [True]), ([100, 100], [True, True]),
                            ([200, 100], [True, False])):
        with pytest.raises(ValidationError):
            voicing_mask(instants, flags, 400)
    for n in (0, 1, 2):
        inst = np.arange(1, n + 1) * 50
        for flags in ([False] * n, [True] * n):
            assert np.array_equal(voicing_mask(inst, flags, 200),
                                  _voicing_mask_loop(inst, flags, 200))


# -------------------------------------------------------------------- align

def _align_gci_loop(pred_instants, ref_instants):
    # the pair-by-pair reference: closest pair first, lower pred index on a
    # tie, each reference instant at most once
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


def _pairs(pred_idx, ref_idx):
    assert pred_idx.dtype == np.int64 and ref_idx.dtype == np.int64
    return list(zip(pred_idx.tolist(), ref_idx.tolist()))


def test_align_gci_exact_and_jittered():
    ref = np.array([100, 260, 420, 580])
    assert _pairs(*align_gci(ref, ref)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    pred = ref + np.array([3, -4, 5, 0])
    assert _pairs(*align_gci(pred, ref)) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_align_gci_drops_far_and_duplicate_predictions():
    ref = np.array([100, 260, 420])
    pred = np.array([100, 104, 420, 1000])
    # 104 loses instant 100 to the closer 100; 1000 is beyond half a period
    assert _pairs(*align_gci(pred, ref)) == [(0, 0), (2, 2)]


def test_align_gci_empty_inputs():
    assert _pairs(*align_gci(np.array([]), np.array([100]))) == []
    assert _pairs(*align_gci(np.array([100]), np.array([]))) == []


def test_align_gci_matches_the_pair_by_pair_loop():
    rng = np.random.default_rng(59)
    for trial in range(3000):
        n_ref = int(rng.integers(0, 4)) if trial < 600 else int(rng.integers(4, 30))
        n_pred = int(rng.integers(0, 4)) if trial % 2 else int(rng.integers(0, 40))
        # small gaps on a coarse grid make equal distances, to one reference
        # and to both neighbors, common
        ref = np.cumsum(rng.integers(1, 12, n_ref)) * 2
        hi = int(ref[-1]) + 20 if n_ref else 40
        pred = np.sort(rng.integers(-10, hi, n_pred))
        if trial % 3 == 0:
            pred = np.unique(pred)
        assert _pairs(*align_gci(pred, ref)) == _align_gci_loop(pred, ref), (pred, ref)
    # exact ties: two predictions one sample either side of a reference,
    # and one prediction midway between two references
    assert _pairs(*align_gci([99, 101], [100])) == [(0, 0)]
    assert _pairs(*align_gci([150], [100, 200])) == [(0, 0)]
    assert _pairs(*align_gci([150, 150], [100, 200])) == [(0, 0)]


# ----------------------------------------------------------------- evaluate

def _toy_stream(positions, voiced, f0s, fs=16000, seed=57):
    rng = np.random.default_rng(seed)
    n = len(positions)
    return FeatureStream(fs, 512, "parametric", positions, voiced, np.log(f0s),
                         np.full(n, -2.0), np.sort(rng.uniform(0.05, 3.09, (n, 40)), axis=1),
                         rng.uniform(-1.0, 1.0, (n, 257)))


def test_evaluate_identity_is_all_zeros():
    w, contour = harmonic_tone(dur=0.4)
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    report = evaluate(w, w, stream, stream)
    for key in REPORT_KEYS:
        assert getattr(report, key) == 0.0, key
    assert report.counts["vuv_error_rate"] == len(stream)


def test_evaluate_f0_and_vuv_on_constructed_streams():
    positions = [1000, 1160, 1320, 1480]
    ref = _toy_stream(positions, [1, 1, 1, 0], [100.0, 100.0, 100.0, 200.0])
    pred = _toy_stream([p + 2 for p in positions], [1, 1, 0, 0],
                       [110.0, 110.0, 100.0, 200.0])
    x = np.zeros(2000)
    report = evaluate(Waveform(x, 16000), Waveform(x, 16000), pred, ref)
    assert report.f0_rmse == pytest.approx(10.0)
    assert report.counts["f0_rmse"] == 2
    assert report.vuv_error_rate == pytest.approx(0.25)
    assert report.counts["vuv_error_rate"] == 4


def test_evaluate_with_no_voiced_pair_reports_zero_with_count_zero():
    # every reference instant unvoiced: no spectral pair and no F0 pair
    positions = [1000, 1160, 1320, 1480]
    ref = _toy_stream(positions, [0, 0, 0, 0], [200.0] * 4)
    pred = _toy_stream([p + 2 for p in positions], [1, 1, 1, 1], [110.0] * 4)
    x = np.zeros(2000)
    report = evaluate(Waveform(x, 16000), Waveform(x, 16000), pred, ref)
    for key in ("lsd", "mcd", "dpd", "f0_rmse"):
        assert getattr(report, key) == 0.0 and report.counts[key] == 0, key
    assert report.vuv_error_rate == 1.0 and report.counts["vuv_error_rate"] == 4


def test_evaluate_span_restricts_samples_and_pairs():
    positions = [1000, 1160, 1320, 1480]
    ref = _toy_stream(positions, [1, 1, 1, 0], [100.0, 100.0, 100.0, 200.0])
    pred = _toy_stream([p + 2 for p in positions], [1, 1, 0, 0],
                       [110.0, 110.0, 100.0, 200.0])
    x = np.zeros(2000)
    noisy = x.copy()
    noisy[:50] = 0.5  # junk ahead of the span must not count
    report = evaluate(Waveform(noisy, 16000), Waveform(x, 16000), pred, ref,
                      span=(1100, 1400))
    assert report.rmse == 0.0
    assert report.counts["rmse"] == 300
    assert report.counts["vuv_error_rate"] == 2
    assert report.vuv_error_rate == pytest.approx(0.5)
    assert report.counts["f0_rmse"] == 1
    assert report.f0_rmse == pytest.approx(10.0)
    full = evaluate(Waveform(noisy, 16000), Waveform(x, 16000), pred, ref)
    assert full.rmse > 0.0
    for bad in ((-1, 100), (100, 100), (0, 2001)):
        with pytest.raises(ValidationError):
            evaluate(Waveform(x, 16000), Waveform(x, 16000), pred, ref, span=bad)


def test_evaluate_checks_rates_and_lengths():
    w, contour = harmonic_tone(dur=0.3)
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    with pytest.raises(ValidationError):
        evaluate(Waveform(w.samples[:-10], w.fs), w, stream, stream)
    with pytest.raises(ValidationError):
        evaluate(Waveform(w.samples, 8000), w, stream, stream)
    wide = analyze(w, contour, dataclasses.replace(cfg, fft_size=1024))
    with pytest.raises(ValidationError, match="FFT sizes"):
        evaluate(w, w, wide, stream)


def test_roundtrip_report_is_small_everywhere():
    # a broadband signal keeps every spectral bin above the log floor, so the
    # full-band distances measure reconstruction instead of dead-band noise
    w, contour = speech_like()
    cfg = PipelineConfig(mode="full")
    ref_stream = analyze(w, contour, cfg)
    y = synthesize(ref_stream)
    n = len(w.samples)
    padded = np.zeros(n)
    padded[:min(n, len(y.samples))] = y.samples[:min(n, len(y.samples))]
    pred_stream = analyze(Waveform(padded, w.fs), contour, cfg)
    report = evaluate(Waveform(padded, w.fs), w, pred_stream, ref_stream)
    assert report.rmse_voiced < 0.01
    assert report.lsd < 2.0
    assert report.mcd < 0.5
    assert report.dpd < 0.5
    assert report.f0_rmse < 2.0
    assert report.vuv_error_rate < 0.05
    assert report.counts["lsd"] <= report.counts["vuv_error_rate"]


def test_report_text_and_json_formats():
    w, contour = harmonic_tone(dur=0.3)
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    report = evaluate(w, w, stream, stream)
    text = report.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == len(REPORT_KEYS)
    for line, key in zip(lines, REPORT_KEYS):
        parts = line.split()
        assert parts[0] == key
        float(parts[1])
        int(parts[2])
    payload = json.loads(report.to_json())
    assert set(payload) == set(REPORT_KEYS) | {"counts"}
    # NaN and Infinity are not JSON: a non-finite score is never written
    with pytest.raises(ValueError, match="JSON compliant"):
        dataclasses.replace(report, f0_rmse=float("nan")).to_json()
