import numpy as np
import pytest

from gswf import (F0Contour, FormatError, ValidationError, Waveform, read_f0_ref,
                  read_wav, write_wav)
from gswf.signal_io import write_f0_ref


def test_wav_roundtrip_is_code_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.99, 0.99, 1600)
    path = str(tmp_path / "a.wav")
    write_wav(path, Waveform(x, 16000))
    back = read_wav(path)
    assert back.fs == 16000
    # quantized to 1/32768 steps, then bit-stable thereafter
    assert np.max(np.abs(back.samples - x)) <= 0.5 / 32768
    write_wav(path, back)
    again = read_wav(path)
    assert np.array_equal(again.samples, back.samples)


def test_wav_full_scale_clips_to_max_code(tmp_path):
    path = str(tmp_path / "c.wav")
    write_wav(path, Waveform(np.array([1.0, -1.0]), 16000))
    back = read_wav(path)
    assert back.samples[0] == pytest.approx(32767 / 32768)
    assert back.samples[1] == -1.0


def test_wav_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Waveform(np.array([0.0, np.nan]), 16000)


def test_read_wav_rejects_stereo(tmp_path):
    import wave
    path = str(tmp_path / "st.wav")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(b"\x00\x00" * 8)
    with pytest.raises(FormatError):
        read_wav(path)


def test_read_wav_rejects_8bit(tmp_path):
    import wave
    path = str(tmp_path / "b8.wav")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(b"\x80" * 8)
    with pytest.raises(FormatError):
        read_wav(path)


def test_f0_file_roundtrip(tmp_path):
    path = str(tmp_path / "f.f0")
    contour = F0Contour(np.array([0.0, 110.0, 120.5, 0.0]), 0.005)
    write_f0_ref(path, contour)
    back = read_f0_ref(path, 0.005)
    assert np.allclose(back.values, contour.values)
    assert back.frame_shift_s == 0.005
    assert list(back.voiced) == [False, True, True, False]


def test_f0_file_bad_token_reports_line(tmp_path):
    path = str(tmp_path / "bad.f0")
    path_obj = tmp_path / "bad.f0"
    path_obj.write_text("120.0\nabc\n")
    with pytest.raises(FormatError) as err:
        read_f0_ref(path, 0.005)
    assert "2" in str(err.value)


def test_f0_file_negative_is_invalid(tmp_path):
    (tmp_path / "neg.f0").write_text("120.0\n-5.0\n")
    with pytest.raises(ValidationError):
        read_f0_ref(str(tmp_path / "neg.f0"), 0.005)


def test_f0_file_empty_is_format_error(tmp_path):
    (tmp_path / "empty.f0").write_text("")
    with pytest.raises(FormatError):
        read_f0_ref(str(tmp_path / "empty.f0"), 0.005)


def test_contour_check_range():
    contour = F0Contour(np.array([0.0, 40.0, 120.0]), 0.005)
    with pytest.raises(ValidationError):
        contour.check_range(50.0, 500.0)
    contour.check_range(30.0, 500.0)


def test_contour_rejects_nonfinite_and_bad_shift():
    with pytest.raises(ValidationError):
        F0Contour(np.array([np.inf]), 0.005)
    with pytest.raises(ValidationError):
        F0Contour(np.array([100.0]), 0.0)
