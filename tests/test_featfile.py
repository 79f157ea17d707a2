from pathlib import Path

import numpy as np
import pytest

from gswf import (FeatureStream, FormatError, PipelineConfig, SegmentFeatures,
                  ValidationError, analyze, read_features, write_features)
from gswf.analysis import LSP_ORDER
from gswf.featfile import MAGIC
from signals import harmonic_tone


def _stream(mode="full", n=5, k=257, fs=16000, fft_size=512, seed=31):
    rng = np.random.default_rng(seed)
    segs = []
    pos = 100
    for i in range(n):
        segs.append(SegmentFeatures(
            position=pos,
            voiced=bool(i % 2 == 0),
            log_f0=float(rng.uniform(4.0, 5.5)),
            gain=float(rng.uniform(-5.0, 0.0)),
            lsp=np.sort(rng.uniform(0.01, 3.1, LSP_ORDER)),
            phase_feature=rng.uniform(-np.pi, np.pi, k),
            log_mag=rng.normal(0.0, 1.0, k) if mode == "full" else None,
        ))
        pos += int(rng.integers(100, 200))
    return FeatureStream(fs=fs, fft_size=fft_size, mode=mode, segments=segs)


@pytest.mark.parametrize("mode", ["parametric", "full"])
def test_roundtrip_preserves_float32_values(tmp_path, mode):
    stream = _stream(mode)
    path = str(tmp_path / "s.gswf")
    write_features(path, stream)
    back = read_features(path)
    assert back.fs == stream.fs
    assert back.fft_size == stream.fft_size
    assert back.mode == mode
    assert len(back) == len(stream)
    for a, b in zip(stream.segments, back.segments):
        assert b.position == a.position and b.voiced == a.voiced
        assert b.log_f0 == np.float32(a.log_f0)
        assert b.gain == np.float32(a.gain)
        assert np.array_equal(b.lsp, a.lsp.astype(np.float32))
        assert np.array_equal(b.phase_feature, a.phase_feature.astype(np.float32))
        if mode == "full":
            assert np.array_equal(b.log_mag, a.log_mag.astype(np.float32))


def test_file_is_bitwise_deterministic(tmp_path):
    stream = _stream("full")
    p1, p2 = str(tmp_path / "a.gswf"), str(tmp_path / "b.gswf")
    write_features(p1, stream)
    write_features(p2, stream)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_header_magic_and_version_checked(tmp_path):
    path = str(tmp_path / "s.gswf")
    write_features(path, _stream("parametric"))
    data = bytearray(Path(path).read_bytes())
    bad = bytes(data).replace(MAGIC, b"NOPE", 1)
    (tmp_path / "bad.gswf").write_bytes(bad)
    with pytest.raises(FormatError):
        read_features(str(tmp_path / "bad.gswf"))
    data[4] = 99  # version field
    (tmp_path / "v99.gswf").write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_features(str(tmp_path / "v99.gswf"))


def test_truncated_file_reports_offset(tmp_path):
    path = str(tmp_path / "s.gswf")
    write_features(path, _stream("full"))
    blob = Path(path).read_bytes()
    for cut in (3, 20, len(blob) // 2, len(blob) - 5):
        (tmp_path / "cut.gswf").write_bytes(blob[:cut])
        with pytest.raises(FormatError) as err:
            read_features(str(tmp_path / "cut.gswf"))
        assert "offset" in str(err.value) or "header" in str(err.value)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "s.gswf")
    write_features(path, _stream("parametric"))
    blob = Path(path).read_bytes() + b"\x00\x00"
    (tmp_path / "pad.gswf").write_bytes(blob)
    with pytest.raises(FormatError):
        read_features(str(tmp_path / "pad.gswf"))


def test_wrong_lsp_width_rejected_at_write(tmp_path):
    seg = SegmentFeatures(position=10, voiced=True, log_f0=4.5, gain=-1.0,
                          lsp=np.linspace(0.1, 3.0, 30),
                          phase_feature=np.zeros(257))
    stream = FeatureStream(fs=16000, fft_size=512, mode="parametric", segments=[seg])
    with pytest.raises(FormatError):
        write_features(str(tmp_path / "w.gswf"), stream)


def test_analyzed_stream_survives_file_roundtrip(tmp_path):
    w, contour = harmonic_tone(dur=0.3)
    stream = analyze(w, contour, PipelineConfig(mode="full"))
    path = str(tmp_path / "tone.gswf")
    write_features(path, stream)
    back = read_features(path)
    assert np.array_equal(back.positions, stream.positions)
    # float32 storage keeps phase features to ~1e-7
    worst = max(np.max(np.abs(a.phase_feature - b.phase_feature))
                for a, b in zip(stream.segments, back.segments))
    assert worst < 1e-6
