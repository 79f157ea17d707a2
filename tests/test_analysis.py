import numpy as np
import pytest

from gswf import (GciTrack, PipelineConfig, ValidationError, Waveform, analyze,
                  decode_phase, encode_phase, extract_segments,
                  segment_to_features, wrap_phase)
from gswf.analysis import GAIN_FLOOR, LSP_ORDER, Segment
from gswf.gci import UNVOICED_SHIFT_S
from signals import harmonic_tone


def _track(instants, fs=16000, voiced=None):
    instants = np.asarray(instants, dtype=np.int64)
    if voiced is None:
        voiced = np.ones(len(instants), dtype=bool)
    return GciTrack(instants, np.asarray(voiced, dtype=bool), fs)


# ---------------------------------------------------------------- segments

def test_extract_segments_frozen_asymmetric_case():
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 0.2, 600)
    segs = extract_segments(Waveform(x, 16000), _track([100, 200, 350]))
    assert len(segs) == 1
    seg = segs[0]
    assert seg.center == 200 and seg.left_len == 100 and seg.right_len == 150
    assert len(seg.samples) == 251
    # window peak passes the instant sample through untouched
    assert seg.samples[100] == pytest.approx(x[200])
    assert seg.samples[0] == 0.0 and seg.samples[-1] == 0.0


def test_extract_segments_requires_three_instants():
    x = np.zeros(500)
    with pytest.raises(ValidationError):
        extract_segments(Waveform(x, 16000), _track([100, 200]))


def test_extract_segments_bounds_check():
    x = np.zeros(300)
    with pytest.raises(ValidationError):
        extract_segments(Waveform(x, 16000), _track([100, 200, 350]))


def test_segments_overlap_add_to_windowed_identity():
    # constant period: falling half of segment s plus rising half of s+1
    # rebuild the signal exactly between instants
    rng = np.random.default_rng(22)
    x = rng.normal(0.0, 0.3, 2000)
    instants = np.arange(100, 2000, 160)
    segs = extract_segments(Waveform(x, 16000), _track(instants))
    acc = np.zeros(2000)
    for seg in segs:
        acc[seg.center - seg.left_len:seg.center + seg.right_len + 1] += seg.samples
    lo, hi = int(instants[1]), int(instants[-2])
    assert np.max(np.abs(acc[lo:hi] - x[lo:hi])) <= 1e-12


# ------------------------------------------------------------ phase feature

def test_encode_phase_frozen():
    theta = np.array([0.5, 0.2, 3.0])
    feat = encode_phase(theta)
    assert feat[0] == 0.5
    assert feat[1] == pytest.approx(-0.3)
    assert feat[2] == pytest.approx(2.8)


def test_phase_feature_roundtrip_property():
    rng = np.random.default_rng(23)
    for _ in range(50):
        theta = wrap_phase(rng.uniform(-np.pi, np.pi, 257))
        back = decode_phase(encode_phase(theta))
        err = wrap_phase(back - theta)
        assert np.max(np.abs(err)) <= 1e-12


def test_phase_feature_compacts_linear_phase():
    # a pure delay has wildly wrapping phase but a near-constant feature
    k = np.arange(257)
    theta = wrap_phase(-2 * np.pi * k * 77 / 512)
    feat = encode_phase(theta)
    assert np.std(feat[1:]) < 1e-9
    assert np.std(theta) > 1.0


# ----------------------------------------------------------------- features

def _segment_from_signal(x, center, left, right, fs=16000, voiced=True):
    from gswf import asymmetric_hann
    win = asymmetric_hann(left, right)
    return Segment(center, left, right,
                   x[center - left:center + right + 1] * win, voiced)


def test_segment_features_shapes_and_values():
    w, _ = harmonic_tone(dur=0.2)
    cfg = PipelineConfig(mode="full")
    seg = _segment_from_signal(w.samples, 800, 133, 133)
    f = segment_to_features(seg, 16000, cfg)
    assert f.position == 800 and f.voiced
    assert len(f.lsp) == LSP_ORDER
    assert len(f.phase_feature) == cfg.fft_size // 2 + 1
    assert f.log_mag is not None and len(f.log_mag) == 257
    assert f.log_f0 == pytest.approx(np.log(16000 / 133))
    rms = np.sqrt(np.mean(seg.samples ** 2))
    assert f.gain == pytest.approx(np.log(rms))


def test_segment_features_parametric_mode_drops_log_mag():
    w, _ = harmonic_tone(dur=0.2)
    cfg = PipelineConfig(mode="parametric")
    seg = _segment_from_signal(w.samples, 800, 133, 133)
    assert segment_to_features(seg, 16000, cfg).log_mag is None


def test_segment_features_unvoiced_log_f0_is_mark_rate():
    cfg = PipelineConfig()
    seg = Segment(500, 80, 80, np.zeros(161), False)
    f = segment_to_features(seg, 16000, cfg)
    assert f.log_f0 == pytest.approx(np.log(1.0 / UNVOICED_SHIFT_S))
    assert f.gain == pytest.approx(np.log(GAIN_FLOOR))


def test_silent_segment_gets_uniform_lsp_grid():
    cfg = PipelineConfig()
    seg = Segment(500, 80, 80, np.zeros(161), False)
    f = segment_to_features(seg, 16000, cfg)
    expect = np.arange(1, LSP_ORDER + 1) * np.pi / (LSP_ORDER + 1)
    assert np.allclose(f.lsp, expect, atol=1e-9)


def test_oversize_segment_error_and_truncate_modes():
    rng = np.random.default_rng(24)
    x = rng.normal(0.0, 0.1, 2000)
    seg = _segment_from_signal(x, 1000, 300, 300)
    with pytest.raises(ValidationError):
        segment_to_features(seg, 16000, PipelineConfig(fft_size=512))
    cfg = PipelineConfig(fft_size=512, oversize_segment="truncate")
    with pytest.warns(UserWarning):
        f = segment_to_features(seg, 16000, cfg)
    assert len(f.phase_feature) == 257


def test_wing_longer_than_half_fft_is_oversize():
    rng = np.random.default_rng(25)
    x = rng.normal(0.0, 0.1, 2000)
    # total fits in 512 but the left wing exceeds fft_size/2
    seg = _segment_from_signal(x, 1000, 300, 100)
    with pytest.raises(ValidationError):
        segment_to_features(seg, 16000, PipelineConfig(fft_size=512))


# ------------------------------------------------------------------ analyze

def test_analyze_produces_consistent_stream():
    w, contour = harmonic_tone()
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    assert stream.fs == 16000
    assert stream.mode == "full"
    assert len(stream) > 100
    pos = stream.positions
    assert np.all(np.diff(pos) > 0)
    gaps = np.diff(pos)
    assert np.all(np.abs(gaps - 16000 / 120.0) < 4)
    for seg in stream.segments:
        assert seg.voiced
        assert len(seg.lsp) == 40
        assert np.all(np.diff(seg.lsp) > 0)


def test_full_mode_stream_requires_log_mag():
    from gswf import FeatureStream, SegmentFeatures

    def seg(k=257, log_mag=None):
        return SegmentFeatures(position=100, voiced=True, log_f0=np.log(120.0), gain=-2.0,
                               lsp=np.linspace(0.1, 3.0, 40), phase_feature=np.zeros(k),
                               log_mag=log_mag)

    # full mode without log_mag, parametric mode with it, and phase vectors
    # whose length disagrees with the header's fft_size
    for mode, f in (("full", seg()),
                    ("parametric", seg(log_mag=np.zeros(257))),
                    ("parametric", seg(k=513)),
                    ("full", seg(k=129, log_mag=np.zeros(129)))):
        with pytest.raises(ValidationError):
            FeatureStream(fs=16000, fft_size=512, mode=mode, segments=[f])
