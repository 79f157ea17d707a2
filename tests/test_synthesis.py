import dataclasses
import logging

import numpy as np
import pytest

import gswf.synthesis
from gswf import (ConfigError, FeatureStream, PipelineConfig, ValidationError, analyze,
                  read_features, synthesize, synthesize_min_phase, write_features)
from gswf.analysis import encode_phase, fit_wings, segment_log_mags, segment_spans, window_rows
from gswf.cli import run
from gswf.dsp import inverse_spectrum, wrap_phase
from gswf.synthesis import (EPS_OLA, _add_wings, _generation_positions, build_segments,
                            decode_phase)
from signals import (asymmetric_hann, harmonic_tone, low_pitch_onsets, speech_like,
                     window_envelope)


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
    env = window_envelope(spans, positions, 4200, 512)
    lo, hi = positions[0], positions[-1]
    assert np.max(np.abs(env[lo:hi + 1] - 1.0)) <= 1e-12


def test_window_envelope_is_unity_even_for_varying_period():
    # matched wings partition unity between any two neighbors
    rng = np.random.default_rng(42)
    positions = np.cumsum(rng.integers(110, 190, 25)) + 200
    spans = segment_spans(positions)
    env = window_envelope(spans, positions, int(positions[-1] + 400), 512)
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
    env = window_envelope(spans, positions, int(positions[-1] + 400), 512)
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

def _stream(positions=(1000,), gain=-2.0, k=257, full=False):
    # voiced segments of flat LSPs at the positions, with fft_size 2 (k - 1)
    # and zero log magnitudes if full; zero phase would park the grain at
    # circular-buffer index 0, and the pivot convention expects the
    # fft_size/2 delay ramp
    n = len(positions)
    theta = wrap_phase(-np.pi * np.arange(k))
    return FeatureStream(16000, 2 * (k - 1), "full" if full else "parametric", positions,
                         np.ones(n, dtype=bool), np.full(n, np.log(120.0)),
                         np.zeros(n) + gain, np.tile(np.arange(1, 41) * np.pi / 41, (n, 1)),
                         np.tile(encode_phase(theta), (n, 1)),
                         np.zeros((n, k)) if full else None)


def test_min_phase_flat_magnitude_is_windowed_impulse_at_pivot():
    stream = _stream(full=True)
    (row,) = build_segments(stream, [0], [(100, 150)], window_rows([(100, 150)], 512),
                            min_phase=True)
    assert row.shape == (512,)
    peak = int(np.argmax(np.abs(row)))
    assert peak == 256
    assert row[256] == pytest.approx(1.0, abs=1e-9)
    others = np.delete(row, 256)
    assert np.max(np.abs(others)) < 1e-9


def test_min_phase_on_parametric_stream_needs_config():
    with pytest.raises(ConfigError):
        synthesize_min_phase(_stream((1000, 1133)))
    y = synthesize_min_phase(_stream((1000, 1133)), from_envelope=True)
    assert len(y.samples) == 1133 + 133 + 1
    # the segment builder itself takes the envelope magnitude, windowed to
    # the span's wings
    (row,) = build_segments(_stream(), [0], [(100, 100)], window_rows([(100, 100)], 512),
                            min_phase=True)
    assert np.any(row[156:357]) and not np.any(row[:156]) and not np.any(row[357:])


def test_min_phase_config_error_comes_before_any_segment(monkeypatch):
    calls = []
    build = gswf.synthesis.build_segments

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(gswf.synthesis, "build_segments", counted)
    with pytest.raises(ConfigError, match="requires from_envelope"):
        synthesize_min_phase(_stream((1000, 1133)))
    assert calls == []
    synthesize_min_phase(_stream((1000, 1133)), from_envelope=True)
    assert len(calls) == 1


def test_build_segments_clips_oversize_spans():
    # a span longer than the row holds is cut to the wings (256, 255) of a
    # 512-sample row, and the parametric gain target is the kept length
    assert fit_wings([(400, 400)], 512).tolist() == [[256, 255]]
    for full in (True, False):
        stream = _stream((1000, 1200), full=full)
        for min_phase in (False, True):
            spans, kept = [(100, 100), (400, 400)], [(100, 100), (256, 255)]
            rows = build_segments(stream, [0, 1], spans, window_rows(spans, 512), min_phase)
            clipped = build_segments(stream, [0, 1], kept, window_rows(kept, 512), min_phase)
            assert rows.shape == (2, 512)
            assert rows[0].tobytes() == clipped[0].tobytes()
            if not full or min_phase:
                # the same row under the (400, 400) and the (256, 255) window
                w400, w256 = window_rows([(400, 400), (256, 255)], 512)
                assert np.allclose(rows[1] * w256, clipped[1] * w400, atol=1e-12)
            else:
                assert rows[1].tobytes() == clipped[1].tobytes()


def test_segment_geometry_comes_from_the_features():
    # 801 samples overflow the default fft_size 512 but fit the 1024-point
    # spectrum the features carry, which the stream header states; no
    # config is consulted
    for full in (True, False):
        stream = _stream(k=513, full=full)
        assert stream.fft_size == 1024
        for min_phase in (False, True):
            (row,) = build_segments(stream, [0], [(400, 400)],
                                    window_rows([(400, 400)], 1024), min_phase)
            assert row.shape == (1024,)
            if not full or min_phase:
                assert np.any(row[112:913])
                assert not np.any(row[:112]) and not np.any(row[913:])


def test_parametric_segment_energy_tracks_gain():
    gains = (-3.0, -1.0, 0.5)
    stream = _stream(1000 + 240 * np.arange(3), gain=gains)
    rows = build_segments(stream, [0, 1, 2], [(120, 120)] * 3,
                          window_rows([(120, 120)] * 3, 512))
    for gain, row in zip(gains, rows):
        # grain energy before windowing matches exp(gain); the Hann costs
        # a bounded factor
        rms = np.sqrt(np.mean(row[256 - 120:256 + 121] ** 2))
        assert 0.3 * np.exp(gain) < rms < 1.2 * np.exp(gain)


@pytest.fixture(scope="module")
def speech_streams():
    """speech_like() analyzed in full mode, and the same stream without its
    magnitudes (parametric); 129 segments, so two default blocks."""
    w, contour = speech_like()
    full = analyze(w, contour, PipelineConfig(mode="full"))
    par = dataclasses.replace(full, mode="parametric", log_mag=None)
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
    bad = par.positions[70]
    lsp = par.lsp.copy()
    lsp[70, 5], lsp[70, 6] = lsp[70, 6], lsp[70, 6] - 1e-3  # out of order by 1e-3
    stream = dataclasses.replace(par, lsp=lsp)
    for synth in (synthesize, lambda s: synthesize_min_phase(s, from_envelope=True)):
        with pytest.raises(ValidationError,
                           match=rf"segment at {bad}: line spectral "
                                 r"frequencies out of order by 1\.000e-03 at index 6"):
            synth(stream)
    feat = str(tmp_path / "bad.gswf")
    write_features(feat, stream)
    assert read_features(feat).positions[70] == bad
    assert run(["synthesize", feat, str(tmp_path / "out.wav")]) == 3
    assert f"segment at {bad}" in capsys.readouterr().err


def _complex_min_phase_rows(log_mag, fft_size, dtype=np.float64):
    # minimum-phase rows through complex transforms of the whole spectrum,
    # the fold done on a real cepstrum of the given float type
    half = fft_size // 2
    cep = np.fft.irfft(log_mag, n=fft_size).astype(dtype)
    cep[:, 1:half] *= 2.0
    cep[:, half + 1:] = 0.0
    return np.roll(np.fft.ifft(np.exp(np.fft.fft(cep))).real, half, axis=1)


@pytest.mark.parametrize("make", [speech_like, harmonic_tone])
def test_min_phase_rows_match_the_complex_transform_path(make):
    # the real transforms of the Hermitian half agree with the complex ones
    # as closely as the complex ones agree with an extended-precision run of
    # themselves (up to 1.9e-15 of the row peak, on the tone)
    w, contour = make()
    full = analyze(w, contour, PipelineConfig(mode="full"))
    par = dataclasses.replace(full, mode="parametric", log_mag=None)
    spans = segment_spans(full.positions)
    index, ones = np.arange(len(full)), np.ones((len(full), full.fft_size))
    for stream in (full, par):
        rows = build_segments(stream, index, spans, ones, min_phase=True)
        log_mag = segment_log_mags(stream, index, spans)
        complex_rows = _complex_min_phase_rows(log_mag, stream.fft_size)
        extended = _complex_min_phase_rows(log_mag, stream.fft_size, np.longdouble)
        peak = np.max(np.abs(extended), axis=1, keepdims=True)
        assert np.all(np.abs(rows - complex_rows) <= 4e-15 * peak)
        assert np.all(np.abs(rows - extended) <= 4e-15 * peak)


@pytest.mark.parametrize("make", [speech_like, harmonic_tone])
def test_unwrapped_phase_rows_match_the_decoded_rows(make):
    # decode_phase reduces the cumulative phases by the float64 2 pi, which
    # is 2.4e-16 short, so its phases drift by that much per turn (speech_like
    # reaches 107 turns); the unwrapped rows agree with a reduction by an
    # extended-precision 2 pi to rounding
    w, contour = make()
    full = analyze(w, contour, PipelineConfig(mode="full"))
    spans = segment_spans(full.positions)
    index = np.arange(len(full))
    rows = build_segments(full, index, spans, window_rows(spans, full.fft_size))
    decoded = inverse_spectrum(full.log_mag, decode_phase(full.phase), full.fft_size)
    theta = np.cumsum(full.phase, axis=-1).astype(np.longdouble)
    two_pi = 8.0 * np.arctan(np.longdouble(1.0))
    reduced = (theta - np.round(theta / two_pi) * two_pi).astype(np.float64)
    exact = inverse_spectrum(full.log_mag, reduced, full.fft_size)
    peak = np.max(np.abs(exact), axis=1, keepdims=True)
    assert np.all(np.abs(rows - exact) <= 1e-15 * peak)
    assert np.all(np.abs(rows - decoded) <= 1e-14 * peak)


# -------------------------------------------------------------- overlap-add

def test_overlap_add_reconstructs_windowed_grains():
    rng = np.random.default_rng(44)
    x = rng.normal(0.0, 0.3, 1500)
    from gswf import Waveform
    from gswf.analysis import extract_segments
    from gswf.gci import GciTrack
    instants = np.arange(100, 1500, 137)
    track = GciTrack(instants, np.ones(len(instants), dtype=bool))
    rows = extract_segments(Waveform(x, 16000), track, PipelineConfig())
    pos, spans = instants[1:-1], segment_spans(instants)[1:-1]
    acc = np.zeros(1500)
    _add_wings(acc, rows, pos, spans)
    out = acc / np.maximum(window_envelope(spans, pos, 1500, rows.shape[1]), EPS_OLA)
    lo, hi = int(pos[1]), int(pos[-2])
    assert np.max(np.abs(out[lo:hi] - x[lo:hi])) < 1e-12


def _old_start(n, fft_size, pivot):
    # the removed dsp._buffer_start: a one-sample shift was tolerated
    start = fft_size // 2 - pivot
    clamped = min(max(start, 0), fft_size - n)
    assert abs(clamped - start) <= 1
    return clamped


def test_synthesis_rows_match_the_old_slice_extraction(speech_streams):
    full, par = speech_streams
    for positions in (full.positions, _generation_positions(full)):
        spans = segment_spans(positions)[:gswf.synthesis.BLOCK]
        for stream in (full, par):
            index = range(gswf.synthesis.BLOCK)
            for min_phase in (False, True):
                rows = build_segments(stream, index, spans, window_rows(spans, 512),
                                      min_phase)
                # the old builder sliced each unwindowed buffer at the span
                # and windowed the slice
                bufs = build_segments(stream, index, spans, np.ones((len(spans), 512)),
                                      min_phase)
                rewindow = min_phase or stream.mode == "parametric"
                for row, buf, (left, right) in zip(rows, bufs, spans):
                    size = left + right + 1
                    start = _old_start(size, 512, left)
                    old = buf[start:start + size]
                    if rewindow:
                        old = old * asymmetric_hann(left, right)
                    assert row[256 - left:256 + right + 1].tobytes() == old.tobytes()


def test_last_gap_of_half_fft_synthesizes():
    # analysis accepts a left wing of fft_size/2; the last segment mirrors it
    # as its right wing, one more than a row holds, and is cut to the row
    stream = _stream((1000, 1200, 1456))
    for y in (synthesize(stream), synthesize_min_phase(stream, from_envelope=True)):
        assert len(y.samples) == 1456 + 256 + 1 and np.all(np.isfinite(y.samples))


@pytest.mark.parametrize("make", [speech_like, harmonic_tone,
                                  lambda: low_pitch_onsets(seed=0)])
def test_truncated_stream_resynthesizes(make):
    # at fft_size 256 the wings of 120 Hz and lower periods are truncated;
    # synthesis uses the same wings, so full mode still reconstructs
    w, contour = make()
    cfg = PipelineConfig(fft_size=256, oversize_segment="truncate")
    with pytest.warns(UserWarning, match="truncat"):
        stream = analyze(w, contour, cfg)
    pos = stream.positions
    assert np.any(fit_wings(segment_spans(pos), 256) != segment_spans(pos))
    y = synthesize(stream).samples
    lo, hi = int(pos[0]), int(pos[-1])
    assert np.sqrt(np.mean((y[lo:hi] - w.samples[lo:hi]) ** 2)) < 1e-9
    assert np.all(np.isfinite(synthesize_min_phase(stream).samples))


# --------------------------------------------------------------- generation

def test_generation_positions_follow_log_f0():
    stream = _stream(range(10))  # f0 mode ignores the stream's positions
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
    with pytest.raises(ValidationError):
        synthesize(_stream(()))
    with pytest.raises(ValidationError):
        synthesize(_stream())
    two = _stream((1000, 1133))
    with pytest.raises(ConfigError):
        synthesize(two, positions="nonsense")


def test_peak_overflow_clips_instead_of_rescaling(caplog):
    # a huge stored gain forces the parametric grain over full scale
    stream = _stream(1000 + 133 * np.arange(4), gain=3.0)
    with caplog.at_level(logging.WARNING):
        y = synthesize(stream)
    assert np.max(np.abs(y.samples)) <= 1.0
    assert any("peak" in rec.message for rec in caplog.records)
    # every over-scale grain saturates at the rails; a global rescale would
    # leave exactly one sample at full scale and shrink everything else
    assert np.count_nonzero(np.abs(y.samples) == 1.0) >= len(stream)
