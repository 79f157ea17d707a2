import os
import subprocess
import sys

import numpy as np
import pytest

import gswf.analysis
from gswf import PipelineConfig, ValidationError, Waveform, analyze
from gswf.analysis import (GAIN_FLOOR, LSP_ORDER, cut_segments, encode_phase,
                           extract_segments, fit_wings, segments_to_features, window_rows)
from gswf.dsp import autocorr, lpc_predictors, reflection_to_lsp_batch, wrap_phase
from gswf.gci import GciTrack, detect_gci
from gswf.synthesis import decode_phase, synthesize
from gswf.gci import UNVOICED_SHIFT_S
from signals import asymmetric_hann, harmonic_tone, speech_like


def _track(instants, voiced=None):
    instants = np.asarray(instants, dtype=np.int64)
    if voiced is None:
        voiced = np.ones(len(instants), dtype=bool)
    return GciTrack(instants, np.asarray(voiced, dtype=bool))


# ---------------------------------------------------------------- segments

def test_extract_segments_frozen_asymmetric_case():
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 0.2, 600)
    rows = extract_segments(Waveform(x, 16000), _track([100, 200, 350]), PipelineConfig())
    assert rows.shape == (1, 512)
    row = rows[0]
    # the (100, 150) span around 200 sits in the row with the instant at 256
    assert row[156:407].tolist() == (x[100:351] * asymmetric_hann(100, 150)).tolist()
    # window peak passes the instant sample through untouched
    assert row[256] == x[200]
    assert row[156] == 0.0 and row[406] == 0.0
    assert not np.any(row[:156]) and not np.any(row[407:])


def test_extract_segments_requires_three_instants():
    x = np.zeros(500)
    with pytest.raises(ValidationError):
        extract_segments(Waveform(x, 16000), _track([100, 200]), PipelineConfig())


def test_extract_segments_bounds_check():
    x = np.zeros(300)
    with pytest.raises(ValidationError):
        extract_segments(Waveform(x, 16000), _track([100, 200, 350]), PipelineConfig())


def test_cut_segments_pads_zeros_outside_the_waveform():
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 0.2, 300)
    head, inner, tail = cut_segments(Waveform(x, 16000), [40, 150, 280],
                                     [(100, 60), (50, 70), (30, 90)], 512)
    padded = np.concatenate([np.zeros(60), x, np.zeros(71)])
    assert head[156:317].tolist() == (padded[0:161] * asymmetric_hann(100, 60)).tolist()
    assert inner[206:327].tolist() == (x[100:221] * asymmetric_hann(50, 70)).tolist()
    assert tail[226:347].tolist() == (padded[310:431] * asymmetric_hann(30, 90)).tolist()
    for row, (lo, hi) in zip((head, inner, tail), ((156, 317), (206, 327), (226, 347))):
        assert not np.any(row[:lo]) and not np.any(row[hi:])


def _old_layout(x, centers, spans, fft_size):
    """The chain the layout replaced, kept as the reference: cut and window
    a segment, cut its wings to the buffer (fit_segments), then place it
    with the instant at fft_size//2 (_buffer_start's placement)."""
    half = fft_size // 2
    rows, cut = np.zeros((len(centers), fft_size)), []
    for row, center, (left, right) in zip(rows, centers, spans):
        lo, hi = center - left, center + right + 1
        samples = np.zeros(hi - lo)
        a, b = max(lo, 0), min(hi, len(x))
        samples[a - lo:b - lo] = x[a:b]
        samples = samples * asymmetric_hann(left, right)
        lcut, rcut = max(left - half, 0), max(right - (half - 1), 0)
        samples = samples[lcut:len(samples) - rcut]
        start = half - (left - lcut)
        clamped = min(max(start, 0), fft_size - len(samples))
        assert abs(clamped - start) <= 1
        row[clamped:clamped + len(samples)] = samples
        cut.append(samples)
    return rows, cut


def test_cut_segments_matches_the_old_layout_chain():
    rng = np.random.default_rng(26)
    x = rng.normal(0.0, 0.3, 1200)
    for fft_size in (128, 256, 512):
        # centers near both file edges and wings up to twice what a row holds
        centers = np.concatenate([rng.integers(0, 60, 20), rng.integers(0, 1200, 60),
                                  rng.integers(1140, 1200, 20)])
        spans = [(int(a), int(b)) for a, b in rng.integers(1, fft_size + 1, (100, 2))]
        want, cut = _old_layout(x, centers, spans, fft_size)
        got = cut_segments(Waveform(x, 16000), centers, spans, fft_size)
        assert got.tobytes() == want.tobytes()
        assert np.any(fit_wings(spans, fft_size) != spans)
        # the wings of a row are the samples the old chain kept, bit for bit
        half = fft_size // 2
        for row, (wl, wr), samples in zip(got, fit_wings(spans, fft_size), cut):
            view = row[half - wl:half + wr + 1]
            assert autocorr(view, LSP_ORDER).tobytes() == \
                autocorr(samples, LSP_ORDER).tobytes()


def test_segments_overlap_add_to_windowed_identity():
    # constant period: falling half of segment s plus rising half of s+1
    # rebuild the signal exactly between instants
    rng = np.random.default_rng(22)
    x = rng.normal(0.0, 0.3, 2000)
    instants = np.arange(100, 2000, 160)
    rows = extract_segments(Waveform(x, 16000), _track(instants), PipelineConfig())
    acc = np.zeros(2000)
    for row, center in zip(rows, instants[1:-1]):
        acc[center - 160:center + 161] += row[256 - 160:256 + 161]
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

def _features(x, center, left, right, cfg, voiced=True):
    # the one segment of the instants center - left, center, center + right
    rows = extract_segments(Waveform(x, 16000), _track([center - left, center, center + right]),
                            cfg)
    return rows, segments_to_features(rows, [center], [(left, right)], [voiced], 16000,
                                      cfg.mode)


def test_segment_features_shapes_and_values():
    w, _ = harmonic_tone(dur=0.2)
    cfg = PipelineConfig(mode="full")
    rows, f = _features(w.samples, 800, 133, 133, cfg)
    assert f.positions.tolist() == [800] and f.voiced.tolist() == [True]
    assert f.lsp.shape == (1, LSP_ORDER)
    assert f.phase.shape == (1, cfg.fft_size // 2 + 1)
    assert f.log_mag is not None and f.log_mag.shape == (1, 257)
    assert f.log_f0[0] == pytest.approx(np.log(16000 / 133))
    rms = np.sqrt(np.mean(rows[0, 256 - 133:256 + 134] ** 2))
    assert f.gain[0] == pytest.approx(np.log(rms))


def test_segment_features_parametric_mode_drops_log_mag():
    w, _ = harmonic_tone(dur=0.2)
    cfg = PipelineConfig(mode="parametric")
    assert _features(w.samples, 800, 133, 133, cfg)[1].log_mag is None


def test_segment_features_unvoiced_log_f0_is_mark_rate():
    _, f = _features(np.zeros(1000), 500, 80, 80, PipelineConfig(), voiced=False)
    assert f.log_f0[0] == pytest.approx(np.log(1.0 / UNVOICED_SHIFT_S))
    assert f.gain[0] == pytest.approx(np.log(GAIN_FLOOR))


def test_silent_segment_gets_uniform_lsp_grid():
    _, f = _features(np.zeros(1000), 500, 80, 80, PipelineConfig(), voiced=False)
    expect = np.arange(1, LSP_ORDER + 1) * np.pi / (LSP_ORDER + 1)
    assert np.allclose(f.lsp[0], expect, atol=1e-9)


def test_oversize_segment_error_and_truncate_modes():
    rng = np.random.default_rng(24)
    x = rng.normal(0.0, 0.1, 2000)
    with pytest.raises(ValidationError, match=r"segment at 1000 spans \(300, 300\)"):
        _features(x, 1000, 300, 300, PipelineConfig(fft_size=512))
    cfg = PipelineConfig(fft_size=512, oversize_segment="truncate")
    with pytest.warns(UserWarning, match=r"truncating segment at 1000 from "
                                         r"\(300, 300\) to \(256, 255\)"):
        rows, f = _features(x, 1000, 300, 300, cfg)
    assert f.phase.shape == (1, 257)
    # log F0 keeps the period; the gain is the RMS of the samples kept
    assert f.log_f0[0] == pytest.approx(np.log(16000 / 300))
    assert f.gain[0] == pytest.approx(np.log(np.sqrt(np.mean(rows[0] ** 2))))


def test_wing_longer_than_half_fft_is_oversize():
    rng = np.random.default_rng(25)
    x = rng.normal(0.0, 0.1, 2000)
    # total fits in 512 but the left wing exceeds fft_size/2
    with pytest.raises(ValidationError):
        _features(x, 1000, 300, 100, PipelineConfig(fft_size=512))
    # the instant sits at index 256, so a right wing of 256 is one too many
    with pytest.raises(ValidationError):
        _features(x, 1000, 100, 256, PipelineConfig(fft_size=512))
    _features(x, 1000, 256, 255, PipelineConfig(fft_size=512))


def test_window_rows_are_asymmetric_hann_over_the_wings():
    rng = np.random.default_rng(26)
    for fft_size in (128, 256, 512, 1024):
        half = fft_size // 2
        # short spans, spans that fill the row and spans longer than it
        spans = np.concatenate([rng.integers(1, 6, (40, 2)),
                                rng.integers(1, fft_size + 60, (200, 2)),
                                [[half, half - 1], [half + 1, half]]])
        rows = window_rows(spans, fft_size)
        assert rows.shape == (len(spans), fft_size)
        for row, (left, right), (wl, wr) in zip(rows, spans, fit_wings(spans, fft_size)):
            win = asymmetric_hann(int(left), int(right))[left - wl:left + wr + 1]
            assert row[half - wl:half + wr + 1].tobytes() == win.tobytes()
            assert not row[:half - wl].any() and not row[half + wr + 1:].any()
    assert window_rows(np.zeros((0, 2), dtype=np.int64), 128).shape == (0, 128)
    with pytest.raises(ValidationError, match="half lengths"):
        window_rows([(3, 0)], 128)


def test_window_rows_past_the_row_and_empty_at_every_fft_size():
    rng = np.random.default_rng(27)
    for fft_size in (128, 256, 512, 1024, 2048):
        half = fft_size // 2
        # one side or both longer than the whole row
        spans = np.concatenate([rng.integers(fft_size + 1, 3 * fft_size, (6, 2)),
                                [[fft_size + 1, 3], [2, 5 * fft_size]]])
        rows = window_rows(spans, fft_size)
        for row, (left, right), (wl, wr) in zip(rows, spans, fit_wings(spans, fft_size)):
            win = asymmetric_hann(int(left), int(right))[left - wl:left + wr + 1]
            assert row[half - wl:half + wr + 1].tobytes() == win.tobytes()
            assert not row[:half - wl].any() and not row[half + wr + 1:].any()
        assert window_rows(np.zeros((0, 2), dtype=np.int64), fft_size).shape == (0, fft_size)


def test_window_table_is_read_only_and_built_once_per_fft_size():
    # the table covers the longest fitted side, rounded up to a power of two
    # and capped at fft_size//2: 256 rows here, 8 for the short spans alone
    spans = [(3, 7), (200, 255), (256, 12)]
    first, short = window_rows(spans, 512), window_rows(spans[:1], 512)
    for size in (256, 8):
        table = gswf.analysis._falling_windows(size)
        assert table.shape == (size + 1, size + 1) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 0] = 2.0
    with pytest.MonkeyPatch.context() as mp:
        def refuse(*args, **kwargs):
            raise AssertionError("window_rows rebuilt a window")
        mp.setattr(np, "cos", refuse)
        mp.setattr(np, "unique", refuse)
        assert window_rows(spans, 512).tobytes() == first.tobytes()
        assert window_rows(spans[:1], 512).tobytes() == short.tobytes()


def test_short_spans_at_a_large_fft_size_build_a_small_table():
    # a table sized by fft_size alone was (32769, 32769) here, 8 GiB
    rng = np.random.default_rng(28)
    fft_size, half = 65536, 32768
    spans = np.concatenate([rng.integers(1, 300, (30, 2)), [[257, 1], [1, 511]]])
    gswf.analysis._falling_windows.cache_clear()
    rows = window_rows(spans, fft_size)
    assert gswf.analysis._falling_windows.cache_info().currsize == 1
    assert gswf.analysis._falling_windows(512).shape == (513, 513)
    assert gswf.analysis._falling_windows.cache_info().hits == 1
    for row, (left, right) in zip(rows, spans):
        assert row[half - left:half + right + 1].tobytes() == \
            asymmetric_hann(int(left), int(right)).tobytes()
        assert not row[:half - left].any() and not row[half + right + 1:].any()


def test_importing_the_cli_builds_no_window_table():
    # the table is built on first use: a fresh process pays nothing for it
    # at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(gswf.analysis.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import gswf.cli, gswf.analysis as a; "
            "print(a._falling_windows.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "0"


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
    assert np.all(stream.voiced)
    assert stream.lsp.shape == (len(stream), 40)
    assert np.all(np.diff(stream.lsp, axis=1) > 0)


def test_analyze_converts_all_segments_in_one_lsp_call(monkeypatch):
    # one batched conversion of every segment's reflection coefficients
    calls = []

    def counted(k):
        calls.append(np.shape(k))
        return reflection_to_lsp_batch(k)

    monkeypatch.setattr(gswf.analysis, "reflection_to_lsp_batch", counted)
    w, contour = speech_like()
    stream = analyze(w, contour, PipelineConfig())
    assert len(stream) > 100
    assert calls == [(len(stream), LSP_ORDER)]


def _stream_bytes(stream):
    return [None if c is None else c.tobytes() for c in
            (stream.positions, stream.voiced, stream.log_f0, stream.gain, stream.lsp,
             stream.phase, stream.log_mag)]


def test_analysis_block_size_changes_no_bit(monkeypatch):
    # cut_segments and row_spectra work BLOCK rows at a time; analysis in
    # both modes and a roundtrip's re-measurement of its resynthesis must
    # not depend on it
    from gswf.cli import _measure_at_instants

    w, contour = speech_like()

    def outputs():
        got = []
        for mode in ("full", "parametric"):
            stream = analyze(w, contour, PipelineConfig(mode=mode))
            got.append(_stream_bytes(stream))
            got.append(_stream_bytes(_measure_at_instants(synthesize(stream), stream)))
        return got

    expected = outputs()
    assert len(analyze(w, contour)) > gswf.analysis.BLOCK
    for block in (1, 7, 10**6):
        monkeypatch.setattr(gswf.analysis, "BLOCK", block)
        assert outputs() == expected


def test_analyze_error_names_the_failing_segment(monkeypatch):
    w, contour = speech_like()
    cfg = PipelineConfig()
    centers = detect_gci(w, contour).instants[1:-1]
    bad = 37

    def spoiled(r, order):
        a, k = lpc_predictors(r, order)
        k[bad, 0] = -1.5  # zero at z = 1.5: not minimum phase
        return a, k

    monkeypatch.setattr(gswf.analysis, "lpc_predictors", spoiled)
    with pytest.raises(ValidationError) as err:
        analyze(w, contour, cfg)
    msg = str(err.value)
    assert f"segment at sample {centers[bad]};" in msg
    assert f"1 of {len(centers)} segments fail" in msg
    assert "magnitude >= 1" in msg and err.value.exit_code == 3


def test_full_mode_stream_requires_log_mag():
    from gswf import FeatureStream

    def columns(n=1, k=257, log_mag=None, **change):
        cols = dict(positions=100 + 133 * np.arange(n), voiced=np.ones(n, dtype=bool),
                    log_f0=np.full(n, np.log(120.0)), gain=np.full(n, -2.0),
                    lsp=np.tile(np.linspace(0.1, 3.0, 40), (n, 1)), phase=np.zeros((n, k)),
                    log_mag=log_mag)
        return {**cols, **change}

    # full mode without log_mag, parametric mode with it, phase rows whose
    # length disagrees with the header's fft_size, LSP rows of another
    # order, a column a row short and positions that do not increase
    for mode, cols in (("full", columns()),
                       ("parametric", columns(log_mag=np.zeros((1, 257)))),
                       ("parametric", columns(k=513)),
                       ("parametric", columns(lsp=np.linspace(0.1, 3.0, 30)[None])),
                       ("full", columns(k=129, log_mag=np.zeros((1, 129)))),
                       ("parametric", columns(n=3, gain=np.zeros(2))),
                       ("parametric", columns(n=2, positions=[100, 100]))):
        with pytest.raises(ValidationError):
            FeatureStream(16000, 512, mode, **cols)
    FeatureStream(16000, 512, "full", **columns(n=2, log_mag=np.zeros((2, 257))))
