import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gswf import (FeatureStream, FormatError, PipelineConfig, ValidationError, analyze,
                  read_features, synthesize, write_features)
from gswf.analysis import LOG_MAG_LIMIT, LSP_ORDER
from gswf.cli import run
from gswf.featfile import _HEADER, MAGIC, _record
from gswf.signal_io import write_f0_ref, write_wav
from signals import harmonic_tone, speech_like


def _stream(mode="full", n=5, k=257, fs=16000, fft_size=512, seed=31):
    rng = np.random.default_rng(seed)
    return FeatureStream(
        fs, fft_size, mode, positions=100 + np.cumsum(rng.integers(100, 200, n)),
        voiced=np.arange(n) % 2 == 0, log_f0=rng.uniform(4.0, 5.5, n),
        gain=rng.uniform(-5.0, 0.0, n),
        lsp=np.sort(rng.uniform(0.01, 3.1, (n, LSP_ORDER)), axis=1),
        phase=rng.uniform(-np.pi, np.pi, (n, k)),
        log_mag=rng.normal(0.0, 1.0, (n, k)) if mode == "full" else None)


@pytest.mark.parametrize("mode", ["parametric", "full"])
def test_roundtrip_preserves_float32_values(tmp_path, mode):
    # five segments, and none: an empty stream keeps its column shapes and
    # is refused only when synthesized
    for n in (5, 0):
        stream = _stream(mode, n)
        path = str(tmp_path / "s.gswf")
        write_features(path, stream)
        back = read_features(path)
        assert (back.fs, back.fft_size, back.mode) == (stream.fs, stream.fft_size, mode)
        assert len(back) == n
        assert back.positions.dtype == np.int64 and back.voiced.dtype == bool
        assert np.array_equal(back.positions, stream.positions)
        assert np.array_equal(back.voiced, stream.voiced)
        names = ("log_f0", "gain", "lsp", "phase") + (("log_mag",) if mode == "full" else ())
        for name in names:
            got, sent = getattr(back, name), getattr(stream, name)
            assert got.dtype == np.float64 and got.shape == sent.shape, name
            assert np.array_equal(got, sent.astype(np.float32)), name
        assert back.lsp.shape == (n, LSP_ORDER) and back.phase.shape == (n, 257)
        assert (back.log_mag is None) == (mode == "parametric")
    with pytest.raises(ValidationError, match="need at least 2 segments to synthesize"):
        synthesize(back)
    assert run(["synthesize", path, str(tmp_path / "out.wav")]) == 3


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


def test_fft_size_is_a_power_of_two_from_128_in_both_directions(tmp_path):
    # a stream holds any geometry, but a feature file only those analysis
    # writes: the writer refuses the rest, and so does the reader
    path = tmp_path / "f.gswf"
    write_features(str(path), _stream("full", n=2, k=65, fft_size=128))
    assert read_features(str(path)).fft_size == 128
    blob = path.read_bytes()
    for fft_size in (4, 6, 8, 64, 96, 130):
        stream = _stream("full", n=2, k=fft_size // 2 + 1, fft_size=fft_size)
        with pytest.raises(FormatError, match=f"not {fft_size}"):
            write_features(str(tmp_path / "w.gswf"), stream)
        head = _HEADER.unpack_from(blob, 0)
        (tmp_path / "r.gswf").write_bytes(_HEADER.pack(*head[:3], fft_size, *head[4:]))
        with pytest.raises(FormatError, match=f"fft_size {fft_size} is not a power of two"):
            read_features(str(tmp_path / "r.gswf"))
    assert not (tmp_path / "w.gswf").exists()


def test_wrong_lsp_width_rejected_at_write(tmp_path):
    # a stream of another LSP width cannot be built, so it never reaches
    # the file: the shape check at construction refuses it
    path = tmp_path / "w.gswf"
    with pytest.raises(ValidationError, match=r"stream lsp has shape \(1, 30\)"):
        write_features(str(path), dataclasses.replace(_stream("parametric", n=1),
                                                      lsp=np.linspace(0.1, 3.0, 30)[None]))
    assert not path.exists()


def test_negative_positions_refused(tmp_path, capsys):
    columns = dataclasses.asdict(_stream("parametric", n=2))
    columns["positions"] = [-1, 5]
    with pytest.raises(ValidationError, match="non-negative"):
        FeatureStream(**columns)
    # u8 positions of 2**63 and over read back as negative int64 values: the
    # reader refuses them, so synthesize writes no one-frame wav
    path = tmp_path / "neg.gswf"
    write_features(str(path), _stream("full", n=3))
    blob = bytearray(path.read_bytes())
    rec = np.frombuffer(blob, dtype=_record("full", 512), offset=_HEADER.size)
    rec["positions"] = [2 ** 64 - 300, 2 ** 64 - 200, 2 ** 64 - 100]
    path.write_bytes(blob)
    with pytest.raises(ValidationError, match="non-negative, the first is -300"):
        read_features(str(path))
    out = tmp_path / "out.wav"
    assert run(["synthesize", str(path), str(out)]) == 3
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_log_f0_gain_and_log_mag_bounds_admit_what_writers_write(tmp_path):
    # a one-sample span gives log_f0 = log(fs), which float32 rounds up at
    # 8 kHz, as it rounds a phase of pi up; the bound on gain and log_mag is
    # exact in float32
    path = str(tmp_path / "b.gswf")
    stream = _stream("full", n=2, fs=8000)
    edge = dataclasses.replace(stream, log_f0=np.full(2, np.log(8000)),
                               gain=np.array([-LOG_MAG_LIMIT, LOG_MAG_LIMIT]),
                               log_mag=np.full((2, 257), LOG_MAG_LIMIT),
                               phase=np.outer([-1.0, 1.0], np.full(257, np.pi)))
    assert np.float32(np.log(8000)) > np.log(8000) and float(np.float32(np.pi)) > np.pi
    write_features(path, edge)
    back = read_features(path)
    assert back.log_f0[0] > np.log(8000) and back.phase[1, 0] > np.pi
    above = np.nextafter(max(np.log(8000), np.float32(np.log(8000))), np.inf)
    for name, value, message in (
            ("log_f0", above, r"log_f0 is 8\.98719788 in row 1, above log\(fs\) = 8\.98719682"),
            ("gain", 300.5, r"gain is 300\.5 in row 1, outside \+-300"),
            ("gain", -300.5, r"gain is -300\.5 in row 1, outside \+-300"),
            ("log_mag", -300.5, r"log_mag is -300\.5 in row 1, outside \+-300"),
            ("phase", np.nextafter(np.float32(np.pi), np.float32(4)),
             r"phase is 3\.14159298 in row 1, outside \+-3\.14159274")):
        column = getattr(stream, name).copy()
        column[1, ...] = value
        with pytest.raises(ValidationError, match=f"stream {message}"):
            dataclasses.replace(stream, **{name: column})
    with pytest.raises(ValidationError, match="sample rate must be positive, got 0"):
        dataclasses.replace(stream, fs=0)


def test_analyzed_stream_survives_file_roundtrip(tmp_path):
    w, contour = harmonic_tone(dur=0.3)
    stream = analyze(w, contour, PipelineConfig(mode="full"))
    path = str(tmp_path / "tone.gswf")
    write_features(path, stream)
    back = read_features(path)
    assert np.array_equal(back.positions, stream.positions)
    # float32 storage keeps phase features to ~1e-7
    worst = np.max(np.abs(back.phase - stream.phase))
    assert worst < 1e-6


def test_record_view_rebuilds_what_parametric_analysis_writes(tmp_path):
    # scripts outside the package still read SegmentFeatures records: a
    # full stream's records without their magnitudes make the parametric
    # stream, and the voiced records' positions are the voiced instants
    w, contour = speech_like()
    wav, f0 = str(tmp_path / "s.wav"), str(tmp_path / "s.f0")
    write_wav(wav, w)
    write_f0_ref(f0, contour)
    full, par, rebuilt = (str(tmp_path / name) for name in ("f.gswf", "p.gswf", "r.gswf"))
    assert run(["analyze", wav, f0, full]) == 0
    assert run(["analyze", "--mode", "parametric", wav, f0, par]) == 0
    stream = read_features(full)
    records = [dataclasses.replace(s, log_mag=None) for s in stream.segments]
    write_features(rebuilt, FeatureStream(fs=stream.fs, fft_size=stream.fft_size,
                                          mode="parametric", segments=records))
    assert Path(rebuilt).read_bytes() == Path(par).read_bytes()
    with pytest.raises(ValidationError, match="log_mag"):
        FeatureStream(fs=stream.fs, fft_size=stream.fft_size, mode="full", segments=records)
    voiced = [s.position for s in stream.segments if s.voiced]
    assert 0 < len(voiced) < len(stream)
    assert voiced == stream.positions[stream.voiced].tolist()
