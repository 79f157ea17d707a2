import dataclasses
import logging

import numpy as np
import pytest

import gswf.synthesis
from gswf import (ConfigError, FeatureStream, PipelineConfig, SegmentFeatures,
                  ValidationError, analyze, read_features, synthesize,
                  synthesize_min_phase, write_features)
from gswf.analysis import Segment, encode_phase, segment_spans
from gswf.cli import run
from gswf.dsp import wrap_phase
from gswf.synthesis import (_generation_positions, build_segments, decode_phase,
                            overlap_add, window_envelope)
from signals import harmonic_tone, speech_like


def _interior_rmse(y, x, positions):
    lo, hi = int(positions[0]), int(positions[-2])
    n = min(len(y), len(x))
    y, x = y[:n], x[:n]
    return float(np.sqrt(np.mean((y[lo:hi] - x[lo:hi]) ** 2)))


# ------------------------------------------------------------------ decode

def test_decode_phase_inverts_encode():
    rng = np.random.default_rng(41)
    theta = wrap_phase(rng.uniform(-4.0, 4.0, 257))
    assert np.allclose(wrap_phase(decode_phase(encode_phase(theta)) - theta), 0.0,
                       atol=1e-12)


def test_decode_phase_output_range():
    feat = np.array([3.0, 3.0, 3.0, 3.0])
    out = decode_phase(feat)
    assert np.all(out > -np.pi) and np.all(out <= np.pi)


# ---------------------------------------------------------------- envelope

def test_window_envelope_is_unity_for_constant_period():
    period = 160
    positions = np.arange(480, 4000, period)
    spans = [(period, period)] * len(positions)
    env = window_envelope(spans, positions, 4200)
    lo, hi = positions[0], positions[-1]
    assert np.max(np.abs(env[lo:hi + 1] - 1.0)) <= 1e-12


def test_window_envelope_is_unity_even_for_varying_period():
    # matched wings partition unity between any two neighbors
    rng = np.random.default_rng(42)
    positions = np.cumsum(rng.integers(110, 190, 25)) + 200
    spans = segment_spans(positions)
    env = window_envelope(spans, positions, int(positions[-1] + 400))
    lo, hi = int(positions[0]), int(positions[-1])
    assert np.max(np.abs(env[lo:hi + 1] - 1.0)) <= 1e-12


def test_window_envelope_bounded_for_mismatched_spans():
    # spans detached from the position grid: spec only promises [0.6, 1.4]
    # for period ratios <= 1.3
    rng = np.random.default_rng(43)
    periods = [140]
    for _ in range(20):
        periods.append(int(np.clip(periods[-1] * rng.uniform(0.8, 1.25), 110, 190)))
    positions = np.cumsum(periods) + 300
    spans = [(p, p) for p in periods]  # symmetric wings, not gap-matched
    env = window_envelope(spans, positions, int(positions[-1] + 400))
    lo, hi = int(positions[1]), int(positions[-2])
    assert np.all(env[lo:hi] >= 0.6) and np.all(env[lo:hi] <= 1.4)


# ------------------------------------------------------------- round trips

def test_full_mode_roundtrip_is_near_exact():
    w, contour = harmonic_tone()
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    y = synthesize(stream)
    assert y.fs == w.fs
    assert _interior_rmse(y.samples, w.samples, stream.positions) < 1e-9


def test_full_mode_roundtrip_on_varying_pitch():
    w, contour = speech_like()
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    y = synthesize(stream)
    assert _interior_rmse(y.samples, w.samples, stream.positions) < 1e-3


def test_parametric_roundtrip_keeps_scale_and_shape():
    w, contour = harmonic_tone()
    cfg = PipelineConfig(mode="parametric")
    stream = analyze(w, contour, cfg)
    y = synthesize(stream)
    # envelope magnitude is lossy; scale must survive (factor-2 invariant)
    ratio = np.sqrt(np.mean(y.samples ** 2)) / np.sqrt(np.mean(w.samples ** 2))
    assert 0.5 < ratio < 2.0
    assert _interior_rmse(y.samples, w.samples, stream.positions) < 0.15


def test_min_phase_degrades_but_keeps_energy():
    w, contour = harmonic_tone()
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    y_full = synthesize(stream)
    y_mp = synthesize_min_phase(stream)
    r_full = _interior_rmse(y_full.samples, w.samples, stream.positions)
    r_mp = _interior_rmse(y_mp.samples, w.samples, stream.positions)
    assert r_mp > 10 * r_full
    ratio = np.sqrt(np.mean(y_mp.samples ** 2)) / np.sqrt(np.mean(w.samples ** 2))
    assert 0.3 < ratio < 2.0


# ----------------------------------------------------------------- segments

def _features(gain=-2.0, k=257, voiced=True, log_mag=None, position=1000):
    # zero phase would park the grain at circular-buffer index 0; the
    # pivot convention expects the fft_size/2 delay ramp
    theta = wrap_phase(-np.pi * np.arange(k))
    return SegmentFeatures(position=position, voiced=voiced,
                           log_f0=float(np.log(120.0)), gain=gain,
                           lsp=np.arange(1, 41) * np.pi / 41,
                           phase_feature=encode_phase(theta), log_mag=log_mag)


def test_min_phase_flat_magnitude_is_windowed_impulse_at_pivot():
    f = _features(log_mag=np.zeros(257))
    (seg,) = build_segments([f], [(100, 150)], min_phase=True)
    assert len(seg.samples) == 251
    peak = int(np.argmax(np.abs(seg.samples)))
    assert peak == 100
    assert seg.samples[100] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(seg.samples, 100)
    assert np.max(np.abs(others)) < 1e-9


def _parametric_pair():
    return FeatureStream(fs=16000, fft_size=512, mode="parametric",
                         segments=[_features(position=1000), _features(position=1133)])


def test_min_phase_on_parametric_stream_needs_config():
    with pytest.raises(ConfigError):
        synthesize_min_phase(_parametric_pair())
    y = synthesize_min_phase(_parametric_pair(), from_envelope=True)
    assert len(y.samples) == 1133 + 133 + 1
    # the segment builder itself takes the envelope magnitude
    (seg,) = build_segments([_features()], [(100, 100)], min_phase=True)
    assert len(seg.samples) == 201


def test_min_phase_config_error_comes_before_any_segment(monkeypatch):
    calls = []
    build = gswf.synthesis.build_segments

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(gswf.synthesis, "build_segments", counted)
    with pytest.raises(ConfigError, match="min_phase_from_envelope"):
        synthesize_min_phase(_parametric_pair())
    assert calls == []
    synthesize_min_phase(_parametric_pair(), from_envelope=True)
    assert len(calls) == 1


def test_build_segments_rejects_oversize():
    feats = [_features(log_mag=np.zeros(257), position=p) for p in (1000, 1200)]
    for min_phase in (False, True):
        with pytest.raises(ValidationError, match="segment at 1200 needs 801 samples"):
            build_segments(feats, [(100, 100), (400, 400)], min_phase)


def test_segment_geometry_comes_from_the_features():
    # 801 samples overflow the default fft_size 512 but fit the 1024-point
    # spectrum the features carry; no config is consulted
    for log_mag in (np.zeros(513), None):
        f = _features(k=513, log_mag=log_mag)
        for min_phase in (False, True):
            (seg,) = build_segments([f], [(400, 400)], min_phase)
            assert len(seg.samples) == 801
            with pytest.raises(ValidationError):
                build_segments([f], [(600, 600)], min_phase)


def test_parametric_segment_energy_tracks_gain():
    gains = (-3.0, -1.0, 0.5)
    segs = build_segments([_features(gain=g) for g in gains], [(120, 120)] * 3)
    for gain, seg in zip(gains, segs):
        # grain energy before windowing matches exp(gain); the Hann costs
        # a bounded factor
        rms = np.sqrt(np.mean(seg.samples ** 2))
        assert 0.3 * np.exp(gain) < rms < 1.2 * np.exp(gain)


@pytest.fixture(scope="module")
def speech_streams():
    """speech_like() analyzed in full mode, and the same stream without its
    magnitudes (parametric); 129 segments, so two default blocks."""
    w, contour = speech_like()
    full = analyze(w, contour, PipelineConfig(mode="full"))
    par = FeatureStream(fs=full.fs, fft_size=full.fft_size, mode="parametric",
                        segments=[dataclasses.replace(s, log_mag=None)
                                  for s in full.segments])
    return full, par


def _all_syntheses(full, par):
    out = []
    for positions in ("stream", "f0"):
        for stream in (full, par):
            out.append(synthesize(stream, positions=positions).samples.tobytes())
            out.append(synthesize_min_phase(stream, from_envelope=True,
                                            positions=positions).samples.tobytes())
    return out


def test_block_boundaries_are_invisible(speech_streams, monkeypatch):
    full, par = speech_streams
    assert len(full) > gswf.synthesis.BLOCK
    expected = _all_syntheses(full, par)
    for block in (1, 7):
        monkeypatch.setattr(gswf.synthesis, "BLOCK", block)
        assert _all_syntheses(full, par) == expected


def test_parametric_lsp_error_names_the_segment(speech_streams, tmp_path, capsys):
    _, par = speech_streams
    segments = list(par.segments)
    bad = segments[70]
    lsp = bad.lsp.copy()
    lsp[5], lsp[6] = lsp[6], lsp[6] - 1e-3  # out of order by 1e-3
    segments[70] = dataclasses.replace(bad, lsp=lsp)
    stream = dataclasses.replace(par, segments=segments)
    for synth in (synthesize, lambda s: synthesize_min_phase(s, from_envelope=True)):
        with pytest.raises(ValidationError,
                           match=rf"segment at {bad.position}: line spectral "
                                 r"frequencies out of order by 1\.000e-03 at index 6"):
            synth(stream)
    feat = str(tmp_path / "bad.gswf")
    write_features(feat, stream)
    assert read_features(feat).segments[70].position == bad.position
    assert run(["synthesize", feat, str(tmp_path / "out.wav")]) == 3
    assert f"segment at {bad.position}" in capsys.readouterr().err


# -------------------------------------------------------------- overlap-add

def test_overlap_add_rejects_mismatched_lists():
    seg = Segment(100, 10, 10, np.zeros(21), True)
    with pytest.raises(ValidationError):
        overlap_add([seg], np.array([100, 200]), 300)


def test_overlap_add_reconstructs_windowed_grains():
    rng = np.random.default_rng(44)
    x = rng.normal(0.0, 0.3, 1500)
    from gswf import Waveform
    from gswf.analysis import extract_segments
    from gswf.gci import GciTrack
    instants = np.arange(100, 1500, 137)
    track = GciTrack(instants, np.ones(len(instants), dtype=bool), 16000)
    segs = extract_segments(Waveform(x, 16000), track)
    pos = np.array([s.center for s in segs])
    out = overlap_add(segs, pos, 1500)
    lo, hi = int(pos[1]), int(pos[-2])
    assert np.max(np.abs(out[lo:hi] - x[lo:hi])) < 1e-12


# --------------------------------------------------------------- generation

def test_generation_positions_follow_log_f0():
    segs = [_features(position=0) for _ in range(10)]
    stream = FeatureStream(fs=16000, fft_size=512, mode="parametric",
                           segments=[])
    stream.segments = segs  # positions in the file are ignored in f0 mode
    pos = _generation_positions(stream)
    period = 16000 / 120.0
    assert pos[0] == int(round(period))
    gaps = np.diff(pos)
    assert np.all(np.abs(gaps - period) <= 1.0)
    # long-run rate stays exact despite rounding
    assert abs(pos[-1] - 10 * period) <= 1.0


def test_generation_mode_synthesizes_at_f0_spacing():
    w, contour = harmonic_tone(dur=0.3)
    cfg = PipelineConfig(mode="full")
    stream = analyze(w, contour, cfg)
    y = synthesize(stream, positions="f0")
    assert len(y.samples) > 0.25 * w.fs
    ratio = np.sqrt(np.mean(y.samples ** 2)) / np.sqrt(np.mean(w.samples ** 2))
    assert 0.5 < ratio < 2.0


def test_synthesize_validates_inputs():
    stream = FeatureStream(fs=16000, fft_size=512, mode="parametric", segments=[])
    with pytest.raises(ValidationError):
        synthesize(stream)
    one = FeatureStream(fs=16000, fft_size=512, mode="parametric",
                        segments=[_features()])
    with pytest.raises(ValidationError):
        synthesize(one)
    two = FeatureStream(fs=16000, fft_size=512, mode="parametric",
                        segments=[_features(position=1000), _features(position=1133)])
    with pytest.raises(ConfigError):
        synthesize(two, positions="nonsense")


def test_peak_overflow_clips_instead_of_rescaling(caplog):
    # a huge stored gain forces the parametric grain over full scale
    segs = [_features(gain=3.0, position=1000 + 133 * i) for i in range(4)]
    stream = FeatureStream(fs=16000, fft_size=512, mode="parametric", segments=segs)
    with caplog.at_level(logging.WARNING):
        y = synthesize(stream)
    assert np.max(np.abs(y.samples)) <= 1.0
    assert any("peak" in rec.message for rec in caplog.records)
    # every over-scale grain saturates at the rails; a global rescale would
    # leave exactly one sample at full scale and shrink everything else
    assert np.count_nonzero(np.abs(y.samples) == 1.0) >= len(segs)
