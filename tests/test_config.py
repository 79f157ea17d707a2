import dataclasses
import os

import pytest

from gswf import ConfigError, PipelineConfig
from gswf.config import load_config
from gswf.cli import run
from signals import harmonic_tone

KEPT = {"fft_size", "mode", "oversize_segment", "f0_min", "f0_max", "frame_shift_s"}

# fixed by the representation, duplicated by a library default, or removed
# with the option it set (cost_norm's squared Viterbi norm); a config file
# that still sets one is refused as an unknown key
DELETED = {"lsp_order": "40", "mel_bands": "40", "mel_order": "24",
           "unvoiced_shift_s": "0.005", "candidates_per_interval": "5",
           "candidate_min_sep_s": "0.0005", "residual_frame_s": "0.025",
           "residual_shift_s": "0.005", "eps_ola": "0.001", "dpd_wrap": "true",
           "cost_norm": "abs"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_inputs")
    w, contour = harmonic_tone(dur=0.3)
    from gswf import write_wav
    from gswf.signal_io import write_f0_ref
    wav, f0 = str(root / "tone.wav"), str(root / "tone.f0")
    write_wav(wav, w)
    write_f0_ref(f0, contour)
    return wav, f0


def _config_file(tmp_path, body):
    path = tmp_path / "gswf.cfg"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_config_has_only_the_settable_fields():
    assert {f.name for f in dataclasses.fields(PipelineConfig)} == KEPT


def test_smallest_fft_size_is_128():
    assert PipelineConfig(fft_size=128).fft_size == 128


@pytest.mark.parametrize("kwargs, match", [
    ({"fft_size": 64}, "fft_size"),
    ({"fft_size": 100}, "fft_size"),
    ({"fft_size": 0}, "fft_size"),
    ({"mode": "lossy"}, "mode"),
    ({"oversize_segment": "drop"}, "oversize_segment"),
    ({"f0_min": 0.0}, "f0_min"),
    ({"f0_min": 300.0, "f0_max": 200.0}, "f0_min"),
    ({"frame_shift_s": 0.0}, "frame_shift_s"),
])
def test_validate_rejects(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize("body, match", [
    ("fft_size 1024\n", "expected 'key = value'"),
    ("f0_min = low\n", "expected a number"),
    ("banana = 1\n", "unknown config key 'banana'"),
])
def test_load_config_errors(tmp_path, body, match):
    with pytest.raises(ConfigError, match=match):
        load_config(_config_file(tmp_path, body))


def test_load_config_reads_values_and_applies_overrides(tmp_path):
    path = _config_file(tmp_path, "# setup\nfft_size = 1024  # wide\n\n"
                                  "mode = parametric\nf0_min = 60\n")
    cfg = load_config(path, {"f0_min": 70.0})
    assert (cfg.fft_size, cfg.mode, cfg.f0_min) == (1024, "parametric", 70.0)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize("key", sorted(DELETED))
def test_deleted_key_exits_4_before_work(inputs, tmp_path, capsys, key):
    wav, f0 = inputs
    out = str(tmp_path / "x.gswf")
    cfg_path = _config_file(tmp_path, f"{key} = {DELETED[key]}\n")
    assert run(["analyze", wav, f0, out, "--config", cfg_path]) == 4
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_envelope_key_is_unknown_to_every_config_reader(inputs, tmp_path, capsys):
    # the envelope is a synthesis choice, which synthesize takes as its own
    # flag: gci, analyze and roundtrip refuse a config file that sets it
    wav, f0 = inputs
    cfg_path = _config_file(tmp_path, "min_phase_from_envelope = true\n")
    outs = [str(tmp_path / name) for name in ("t.gci", "t.gswf", "rt")]
    for argv in (["gci", wav, f0, outs[0]], ["analyze", wav, f0, outs[1]],
                 ["roundtrip", wav, f0, outs[2]]):
        assert run([*argv, "--config", cfg_path]) == 4, argv
        assert "unknown config key 'min_phase_from_envelope'" in capsys.readouterr().err
    assert not any(map(os.path.exists, outs))
