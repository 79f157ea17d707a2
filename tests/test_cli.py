import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import gswf.cli
from gswf import PipelineConfig, analyze, read_features, read_wav, write_wav
from gswf.cli import run
from gswf.analysis import FeatureStream, extract_segments
from gswf.config import load_config
from gswf.featfile import _HEADER, _record
from gswf.gci import detect_gci
from gswf.signal_io import read_f0_ref, write_f0_ref
from signals import harmonic_tone, low_pitch_onsets, speech_like

FS = 16000


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 0.5 s tone with its reference contour, written once for the module."""
    root = tmp_path_factory.mktemp("cli_inputs")
    w, contour = harmonic_tone(dur=0.5)
    from gswf import write_wav
    from gswf.signal_io import write_f0_ref
    wav = str(root / "tone.wav")
    f0 = str(root / "tone.f0")
    write_wav(wav, w)
    write_f0_ref(f0, contour)
    return wav, f0


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------- gci

def test_gci_writes_track(inputs, tmp_path):
    wav, f0 = inputs
    out = str(tmp_path / "tone.gci")
    assert run(["gci", wav, f0, out]) == 0
    # one `sample_index voiced_flag` line per instant
    track = np.loadtxt(out, dtype=np.int64, ndmin=2)
    assert track.shape[1] == 2 and len(track) > 0
    assert track[0, 0] >= 0 and np.all(np.diff(track[:, 0]) > 0)
    assert set(track[:, 1].tolist()) <= {0, 1}


def test_gci_missing_f0_names_path(inputs, tmp_path, capsys):
    wav, _ = inputs
    missing = str(tmp_path / "nope.f0")
    assert run(["gci", wav, missing, str(tmp_path / "out.gci")]) == 2
    assert "nope.f0" in capsys.readouterr().err


def test_gci_duration_mismatch_is_validation_error(inputs, tmp_path, capsys):
    wav, f0 = inputs
    short = str(tmp_path / "short.f0")
    with open(f0, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(short, "w", encoding="utf-8") as fh:
        fh.writelines(lines[: len(lines) // 2])
    assert run(["gci", wav, short, str(tmp_path / "out.gci")]) == 3
    assert "duration" in capsys.readouterr().err


def test_gci_out_of_range_f0_is_validation_error(inputs, tmp_path):
    wav, f0 = inputs
    assert run(["gci", wav, f0, str(tmp_path / "out.gci"),
                "--f0-min", "200"]) == 3


# ------------------------------------------------------------------ analyze

def test_analyze_segment_count(inputs, tmp_path):
    wav, f0 = inputs
    out = str(tmp_path / "tone.gswf")
    assert run(["analyze", wav, f0, out]) == 0
    stream = read_features(out)
    # 0.5 s of 120 Hz has 60 periods; the ends contribute no interior instant
    assert abs(len(stream) - 58) <= 2


def test_analyze_mode_changes_file_size(inputs, tmp_path):
    wav, f0 = inputs
    full = str(tmp_path / "full.gswf")
    par = str(tmp_path / "par.gswf")
    assert run(["analyze", wav, f0, full, "--mode", "full"]) == 0
    assert run(["analyze", wav, f0, par, "--mode", "parametric"]) == 0
    n = len(read_features(par))
    assert os.path.getsize(full) - os.path.getsize(par) == n * 257 * 4


_IMPORT_PROBE = """
import sys
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
import gswf.cli
print(*scipy_modules())
wav, f0, track, feat, out, report, rt_dir = sys.argv[1:]
for argv in (["gci", wav, f0, track], ["analyze", wav, f0, feat],
             ["synthesize", feat, out], ["synthesize", feat, out, "--min-phase"],
             ["metrics", wav, wav, feat, feat, report], ["roundtrip", wav, f0, rt_dir]):
    print(gswf.cli.run(argv), *scipy_modules())
"""


def test_cli_loads_no_scipy_in_any_command(inputs, tmp_path):
    # a fresh process pays for every module it imports: the CLI loads no
    # scipy module at import, nor to detect instants, analyze, synthesize,
    # score or run a roundtrip
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop("GSWF_CONFIG", None)
    wav, f0 = inputs
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, wav, f0,
                           *(str(tmp_path / name) for name in
                             ("tone.gci", "tone.gswf", "resynth.wav", "report.txt", "rt"))],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["", "0", "0", "0", "0", "0", "0"]


def test_runs_in_one_process_leak_no_state(inputs, tmp_path):
    # the parser is shared by every run of a process: a flag of one run
    # must not carry over into the next
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    assert run(["analyze", wav, f0, feat]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("GSWF_CONFIG", None)
    out = {}
    for name, flags in (("mp", ["--min-phase"]), ("plain", [])):
        shared, alone = str(tmp_path / f"{name}.wav"), str(tmp_path / f"{name}.alone.wav")
        assert run(["synthesize", feat, shared, *flags]) == 0
        subprocess.run([sys.executable, "-m", "gswf.cli", "synthesize", feat, alone, *flags],
                       env=env, check=True)
        with open(shared, "rb") as a, open(alone, "rb") as b:
            out[name] = a.read()
            assert out[name] == b.read(), name
    assert out["mp"] != out["plain"]


def test_analyze_corrupt_wav(inputs, tmp_path, capsys):
    _, f0 = inputs
    bad = str(tmp_path / "bad.wav")
    with open(bad, "wb") as fh:
        fh.write(b"RIFFgarbage that is not a wav at all")
    assert run(["analyze", bad, f0, str(tmp_path / "out.gswf")]) == 2
    assert capsys.readouterr().err.startswith("gswf:")


# --------------------------------------------------------------- synthesize

def test_synthesize_roundtrip_duration(inputs, tmp_path):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    out = str(tmp_path / "resynth.wav")
    assert run(["analyze", wav, f0, feat]) == 0
    assert run(["synthesize", feat, out]) == 0
    original = read_wav(wav)
    resynth = read_wav(out)
    assert resynth.fs == original.fs
    two_periods = 2 * FS / 120.0
    assert abs(len(resynth.samples) - len(original.samples)) <= two_periods


def test_synthesize_min_phase_flag(inputs, tmp_path):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    plain = str(tmp_path / "plain.wav")
    minp = str(tmp_path / "minp.wav")
    assert run(["analyze", wav, f0, feat]) == 0
    assert run(["synthesize", feat, plain]) == 0
    assert run(["synthesize", feat, minp, "--min-phase"]) == 0
    a = read_wav(plain).samples
    b = read_wav(minp).samples
    n = min(len(a), len(b))
    assert np.sqrt(np.mean((a[:n] - b[:n]) ** 2)) > 0.01


def test_synthesize_min_phase_needs_magnitude(inputs, tmp_path, capsys):
    wav, f0 = inputs
    feat = str(tmp_path / "par.gswf")
    assert run(["analyze", wav, f0, feat, "--mode", "parametric"]) == 0
    out = str(tmp_path / "out.wav")
    assert run(["synthesize", feat, out, "--min-phase"]) == 4
    # the message names the flag that grants the envelope
    assert "--min-phase-from-envelope" in capsys.readouterr().err
    assert run(["synthesize", feat, out, "--min-phase",
                "--min-phase-from-envelope"]) == 0


def test_synthesize_truncated_file_reports_offset(inputs, tmp_path, capsys):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    assert run(["analyze", wav, f0, feat]) == 0
    cut = str(tmp_path / "cut.gswf")
    blob = _read(feat)
    with open(cut, "wb") as fh:
        fh.write(blob[: len(blob) - 100])
    assert run(["synthesize", cut, str(tmp_path / "out.wav")]) == 2
    err = capsys.readouterr().err
    assert "offset" in err or "header" in err


@pytest.fixture(scope="module")
def wide(inputs, tmp_path_factory):
    """The tone analyzed at fft_size 1024, full and parametric."""
    wav, f0 = inputs
    root = tmp_path_factory.mktemp("wide")
    full, par = str(root / "full.gswf"), str(root / "par.gswf")
    assert run(["analyze", wav, f0, full, "--fft-size", "1024"]) == 0
    assert run(["analyze", wav, f0, par, "--fft-size", "1024", "--mode", "parametric"]) == 0
    return full, par


def test_synthesize_takes_fft_size_from_file(inputs, wide, tmp_path, monkeypatch):
    full, _ = wide
    # config-file geometry does not apply to synthesize
    cfg_path = str(tmp_path / "gswf.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("fft_size = 512\nmode = parametric\n")
    for flags in ([], ["--min-phase"]):
        plain, other = str(tmp_path / "plain.wav"), str(tmp_path / "other.wav")
        monkeypatch.delenv("GSWF_CONFIG", raising=False)
        assert run(["synthesize", full, plain, *flags]) == 0
        monkeypatch.setenv("GSWF_CONFIG", cfg_path)
        assert run(["synthesize", full, other, *flags]) == 0
        assert _read(plain) == _read(other)
    # full-mode resynthesis at the stored geometry reconstructs the input
    assert run(["synthesize", full, plain]) == 0
    x, y = read_wav(inputs[0]).samples, read_wav(plain).samples
    pos = read_features(full).positions
    assert np.max(np.abs(y[pos[0]:pos[-2]] - x[pos[0]:pos[-2]])) < 1e-3


def test_synthesize_and_metrics_refuse_geometry_flags(inputs, wide, tmp_path, capsys):
    # a feature file's header is its geometry, so the commands that read one
    # take no --fft-size or --mode and refuse them as any unknown flag;
    # synthesize refuses --config too, as it reads no config file
    wav, _ = inputs
    full, par = wide
    out, report = str(tmp_path / "out.wav"), str(tmp_path / "report.txt")
    for argv in (["synthesize", full, out, "--fft-size", "512"],
                 ["synthesize", full, out, "--config", "gswf.cfg"],
                 ["synthesize", full, out, "--mode", "parametric"],
                 ["synthesize", par, out, "--min-phase", "--min-phase-from-envelope",
                  "--mode", "full"],
                 ["metrics", wav, wav, full, full, report, "--fft-size", "1024"],
                 ["metrics", wav, wav, par, par, report, "--mode", "parametric"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --" in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(report)


# ---------------------------------------------------------------- roundtrip

def test_roundtrip_outputs_and_report(inputs, tmp_path):
    wav, f0 = inputs
    out_dir = str(tmp_path / "rt")
    assert run(["roundtrip", wav, f0, out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "tone.gswf"))
    assert os.path.exists(os.path.join(out_dir, "tone.full.wav"))
    assert os.path.exists(os.path.join(out_dir, "tone.minphase.wav"))
    with open(os.path.join(out_dir, "tone.report.txt"), encoding="utf-8") as fh:
        report = fh.read()
    rows = dict()
    for line in report.strip().splitlines():
        key, value, count = line.split()
        rows[key] = float(value)
    assert rows["full.rmse_voiced"] < 0.01
    assert "minphase.rmse_voiced" in rows
    assert rows["minphase.rmse_voiced"] > rows["full.rmse_voiced"]


def test_roundtrip_report_survives_jittered_edge_gaps(tmp_path):
    # seed 3 lands edge gaps that differ from their mirrored guesses; the
    # leftover wing used to overshoot full scale and drag down the whole file
    w, contour = harmonic_tone(FS, 120.0, 0.5, 10, seed=3)
    from gswf import write_wav
    from gswf.signal_io import write_f0_ref
    wav = str(tmp_path / "jit.wav")
    f0 = str(tmp_path / "jit.f0")
    write_wav(wav, w)
    write_f0_ref(f0, contour)
    out_dir = str(tmp_path / "rt")
    assert run(["roundtrip", wav, f0, out_dir]) == 0
    rows = dict()
    with open(os.path.join(out_dir, "jit.report.txt"), encoding="utf-8") as fh:
        for line in fh.read().strip().splitlines():
            key, value, count = line.split()
            rows[key] = float(value)
    assert rows["full.rmse_voiced"] < 0.01
    assert rows["full.rmse"] < 0.01
    full = read_wav(os.path.join(out_dir, "jit.full.wav"))
    assert np.max(np.abs(full.samples)) <= 1.0


def test_roundtrip_missing_positional_args(capsys):
    assert run(["roundtrip"]) == 3
    assert "roundtrip" in capsys.readouterr().err


def test_roundtrip_refuses_positionals_with_list(inputs, tmp_path, capsys):
    # one job named on the command line and a manifest are two forms of the
    # command; given both, the named job used to be dropped without a word
    wav, f0 = inputs
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'listed'}\n")
    for positionals in ([wav, f0, str(tmp_path / "posout")], [wav]):
        assert run(["roundtrip", *positionals, "--list", manifest]) == 3
        err = capsys.readouterr().err
        assert "in_wav f0_ref out_dir or --list, and not both" in err
    assert not (tmp_path / "posout").exists() and not (tmp_path / "listed").exists()


def test_roundtrip_list_jobs(inputs, tmp_path):
    wav, f0 = inputs
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'a'}\n\n{wav} {f0} {tmp_path / 'b'}\n")
    assert run(["roundtrip", "--list", manifest, "--jobs", "2"]) == 0
    for sub in ("a", "b"):
        assert os.path.exists(str(tmp_path / sub / "tone.report.txt"))
    assert _read(str(tmp_path / "a" / "tone.full.wav")) == \
        _read(str(tmp_path / "b" / "tone.full.wav"))


def test_roundtrip_list_bad_line(inputs, tmp_path, capsys):
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("only two-fields\n")
    assert run(["roundtrip", "--list", manifest]) == 3
    assert "jobs.txt:1" in capsys.readouterr().err


def test_roundtrip_list_of_no_jobs_exits_3(tmp_path, capsys):
    # a manifest of blank lines names no work; it used to exit 0 silently
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n  \n\n")
    assert run(["roundtrip", "--list", manifest]) == 3
    assert capsys.readouterr().err == f"gswf: {manifest}: no jobs\n"


def test_roundtrip_list_collects_failures(inputs, tmp_path, capsys):
    wav, f0 = inputs
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{tmp_path / 'missing.wav'} {f0} {tmp_path / 'x'}\n")
        fh.write(f"{wav} {f0} {tmp_path / 'y'}\n")
    assert run(["roundtrip", "--list", manifest, "--jobs", "2"]) == 2
    assert "missing.wav" in capsys.readouterr().err
    assert os.path.exists(str(tmp_path / "y" / "tone.report.txt"))


def test_roundtrip_list_rejects_jobs_that_write_the_same_files(inputs, tmp_path, capsys,
                                                             monkeypatch):
    # two wavs of one stem and one out dir, once absolute and once relative,
    # would write the same four files; the manifest is refused before any job
    wav, f0 = inputs
    other = tmp_path / "b"
    other.mkdir()
    (other / "tone.wav").write_bytes(_read(wav))
    monkeypatch.chdir(tmp_path)
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'out'}\n\nb/tone.wav {f0} out\n")
    assert run(["roundtrip", "--list", manifest, "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert "lines 1 and 3" in err and str(tmp_path / "out" / "tone") in err
    assert not (tmp_path / "out").exists()


def test_roundtrip_list_reports_failures_in_manifest_order(inputs, tmp_path, capsys):
    wav, f0 = inputs
    # job 1 fails late, writing its feature file over a directory; job 2 fails
    # at once on a missing wav, so with two workers it finishes first
    (tmp_path / "a" / "tone.gswf").mkdir(parents=True)
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'a'}\n")
        fh.write(f"{tmp_path / 'missing.wav'} {f0} {tmp_path / 'b'}\n")
    for jobs in ("1", "2"):
        assert run(["roundtrip", "--list", manifest, "--jobs", jobs]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"gswf: {wav}: ")
        assert lines[1].startswith(f"gswf: {tmp_path / 'missing.wav'}: ")


def test_roundtrip_honours_parametric_mode(inputs, tmp_path, capsys):
    wav, f0 = inputs
    out_dir = str(tmp_path / "rt")
    # the mode alone decides: the minimum-phase half of a parametric
    # roundtrip takes its magnitude from the envelope, with no flag to grant it
    with pytest.raises(SystemExit) as exc:
        run(["roundtrip", wav, f0, out_dir, "--mode", "parametric",
             "--min-phase-from-envelope"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --min-phase-from-envelope" in capsys.readouterr().err
    assert not os.path.exists(out_dir)
    assert run(["roundtrip", wav, f0, out_dir, "--mode", "parametric"]) == 0
    assert read_features(os.path.join(out_dir, "tone.gswf")).mode == "parametric"
    with open(os.path.join(out_dir, "tone.report.txt"), encoding="utf-8") as fh:
        rows = [line.split() for line in fh.read().strip().splitlines()]
    assert len(rows) == 16
    assert all(len(row) == 3 and np.isfinite(float(row[1])) for row in rows)


def _write_inputs(tmp_path, stem, w, contour):
    wav, f0 = str(tmp_path / f"{stem}.wav"), str(tmp_path / f"{stem}.f0")
    write_wav(wav, w)
    write_f0_ref(f0, contour)
    return wav, f0


def _report_rows(path):
    with open(path, encoding="utf-8") as fh:
        return {key: float(value) for key, value, _ in
                (line.split() for line in fh.read().strip().splitlines())}


@pytest.mark.parametrize("make", [speech_like, harmonic_tone])
def test_roundtrip_report_scores_the_reconstructed_span(make, tmp_path):
    # the full-phase resynthesis rebuilds the input between the first and
    # last instants, so its scores there read reconstruction error only
    wav, f0 = _write_inputs(tmp_path, "x", *make())
    out_dir = str(tmp_path / "rt")
    assert run(["roundtrip", wav, f0, out_dir]) == 0
    rows = _report_rows(os.path.join(out_dir, "x.report.txt"))
    for key in ("rmse_voiced", "rmse_unvoiced", "rmse"):
        assert rows[f"full.{key}"] < 1e-9
    assert rows["full.lsd"] < 0.1
    assert rows["minphase.rmse_voiced"] >= 2.0 * rows["full.rmse_voiced"]
    for label in ("full", "minphase"):
        assert rows[f"{label}.f0_rmse"] == 0.0
        assert rows[f"{label}.vuv_error_rate"] == 0.0


def test_roundtrip_analyzes_once_per_job(inputs, tmp_path, monkeypatch):
    wav, f0 = inputs
    calls = []
    real = gswf.cli.analyze

    def counting(*args, **kwargs):
        calls.append(1)  # list.append is atomic, so pool workers lose no call
        return real(*args, **kwargs)

    monkeypatch.setattr(gswf.cli, "analyze", counting)
    assert run(["roundtrip", wav, f0, str(tmp_path / "one")]) == 0
    assert len(calls) == 1
    assert run(["roundtrip", wav, f0, str(tmp_path / "par"), "--mode", "parametric"]) == 0
    assert len(calls) == 2
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'a'}\n{wav} {f0} {tmp_path / 'b'}\n")
    assert run(["roundtrip", "--list", manifest, "--jobs", "2"]) == 0
    assert len(calls) == 4


def test_no_command_builds_per_segment_records(inputs, tmp_path, monkeypatch):
    # every command works on the stream's columns; a SegmentFeatures record
    # is a view that only scripts ask for
    from gswf.analysis import SegmentFeatures

    def refuse(self):
        raise AssertionError("a command built a SegmentFeatures record")

    monkeypatch.setattr(SegmentFeatures, "__post_init__", refuse)
    wav, f0 = inputs
    full, par, out = (str(tmp_path / name) for name in ("f.gswf", "p.gswf", "out.wav"))
    rt = str(tmp_path / "rt")
    for argv in (["analyze", wav, f0, full],
                 ["analyze", "--mode", "parametric", wav, f0, par],
                 ["synthesize", full, out],
                 ["synthesize", "--min-phase", full, out],
                 ["synthesize", par, out],
                 ["synthesize", "--min-phase", "--min-phase-from-envelope", par, out],
                 ["roundtrip", wav, f0, rt],
                 ["roundtrip", "--mode", "parametric", wav, f0, str(tmp_path / "rt_par")],
                 ["metrics", os.path.join(rt, "tone.minphase.wav"), wav, full, full,
                  str(tmp_path / "full.txt")],
                 ["metrics", wav, wav, par, par, str(tmp_path / "par.txt")]):
        assert run(argv) == 0, argv


@pytest.mark.parametrize("seed", [0, 2])
def test_roundtrip_of_low_pitch_onsets_exits_0(seed, tmp_path):
    # voicing leads each stretch's first pulse by a period at 110-150 Hz;
    # the input analyzes, and re-detecting pulses on the minimum-phase
    # resynthesis used to miss an onset pulse and exit 3 on these seeds
    wav, f0 = _write_inputs(tmp_path, "low", *low_pitch_onsets(seed=seed))
    assert run(["analyze", wav, f0, str(tmp_path / "low.gswf")]) == 0
    out_dir = str(tmp_path / "rt")
    assert run(["roundtrip", wav, f0, out_dir]) == 0
    rows = _report_rows(os.path.join(out_dir, "low.report.txt"))
    assert rows["full.rmse"] < 1e-9


def test_truncated_stream_synthesizes_and_roundtrips(tmp_path):
    # at fft_size 256 the longest periods of speech_like() overflow a row;
    # synthesis uses the wings analysis truncated them to
    wav, f0 = _write_inputs(tmp_path, "s", *speech_like())
    cfg_path = str(tmp_path / "truncate.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("oversize_segment = truncate\n")
    feats = str(tmp_path / "s.gswf")
    flags = ["--fft-size", "256", "--config", cfg_path]
    with pytest.warns(UserWarning, match="truncat") as from_analyze:
        assert run(["analyze", wav, f0, feats, *flags]) == 0
    assert run(["synthesize", feats, str(tmp_path / "s.out.wav")]) == 0
    assert run(["synthesize", feats, str(tmp_path / "s.mp.wav"), "--min-phase"]) == 0
    out_dir = str(tmp_path / "rt")
    with pytest.warns(UserWarning, match="truncat") as from_roundtrip:
        assert run(["roundtrip", wav, f0, out_dir, *flags]) == 0
    assert _report_rows(os.path.join(out_dir, "s.report.txt"))["full.rmse"] < 1e-9
    # the roundtrip's warnings are those of its one analysis, each pointing
    # at analyze; scoring cuts the resyntheses quietly
    lines, first = inspect.getsourcelines(analyze)
    assert [str(r.message) for r in from_roundtrip] == [str(r.message) for r in from_analyze]
    assert all(r.filename == inspect.getsourcefile(analyze)
               and first <= r.lineno < first + len(lines) for r in from_roundtrip)


def test_roundtrip_fft_size_below_the_mel_bands_exits_4_before_work(tmp_path, capsys):
    # a 300 Hz tone analyzes and synthesizes at fft_size 128, but 65 bins at
    # 16 kHz leave the first of the metrics' 40 mel bands without a bin
    wav, f0 = _write_inputs(tmp_path, "hi", *harmonic_tone(f0=300.0, dur=0.3))
    assert run(["analyze", wav, f0, str(tmp_path / "hi.gswf"), "--fft-size", "128"]) == 0
    out_dir = str(tmp_path / "rt")
    assert run(["roundtrip", wav, f0, out_dir, "--fft-size", "128"]) == 4
    err = capsys.readouterr().err
    # the one job's failure is reported as a --list job's is
    assert err.startswith(f"gswf: {wav}: ") and "fft_size 128 at fs 16000 Hz" in err
    assert not os.path.exists(out_dir)
    assert run(["roundtrip", wav, f0, out_dir, "--fft-size", "256"]) == 0
    assert os.path.exists(os.path.join(out_dir, "hi.gswf"))


def test_metrics_on_fft_size_below_the_mel_bands_exits_4_before_reading_wavs(tmp_path,
                                                                            capsys):
    # analyze accepts fft_size 128 at 16 kHz; metrics refuses its stream from
    # the header, before it reads a wav or writes the report
    wav, f0 = _write_inputs(tmp_path, "hi", *harmonic_tone(f0=300.0, dur=0.3))
    feat, out = str(tmp_path / "hi.gswf"), str(tmp_path / "report.txt")
    assert run(["analyze", wav, f0, feat, "--fft-size", "128"]) == 0
    capsys.readouterr()
    assert run(["metrics", wav, wav, feat, feat, out]) == 4
    assert "fft_size 128 at fs 16000 Hz" in capsys.readouterr().err
    missing = str(tmp_path / "missing.wav")
    assert run(["metrics", missing, missing, feat, feat, out]) == 4
    assert not os.path.exists(out)


def test_unstorable_lsp_order_exits_4_before_work(inputs, tmp_path, capsys):
    wav, f0 = inputs
    cfg_path = str(tmp_path / "order.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("lsp_order = 20\n")
    out = str(tmp_path / "x.gswf")
    assert run(["analyze", wav, f0, out, "--config", cfg_path]) == 4
    assert not os.path.exists(out)
    assert run(["roundtrip", wav, f0, str(tmp_path / "rt"), "--config", cfg_path]) == 4
    capsys.readouterr()
    manifest = str(tmp_path / "jobs.txt")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(f"{wav} {f0} {tmp_path / 'a'}\n{wav} {f0} {tmp_path / 'b'}\n")
    assert run(["roundtrip", "--list", manifest, "--config", cfg_path]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "unknown config key 'lsp_order'" in lines[0]
    assert not any(os.path.exists(str(tmp_path / d)) for d in ("rt", "a", "b"))


# ------------------------------------------------------------------ metrics

def test_metrics_identical_pair_is_zero(inputs, tmp_path):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    out = str(tmp_path / "report.txt")
    assert run(["analyze", wav, f0, feat]) == 0
    assert run(["metrics", wav, wav, feat, feat, out]) == 0
    with open(out, encoding="utf-8") as fh:
        for line in fh.read().strip().splitlines():
            _, value, _ = line.split()
            assert float(value) == 0.0


def test_metrics_json_output(inputs, tmp_path):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    out = str(tmp_path / "report.json")
    assert run(["analyze", wav, f0, feat]) == 0
    assert run(["metrics", wav, wav, feat, feat, out, "--json"]) == 0
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["lsd"] == 0.0
    assert payload["counts"]["lsd"] > 0


def test_metrics_mismatched_fs(inputs, tmp_path, capsys):
    wav, f0 = inputs
    feat = str(tmp_path / "tone.gswf")
    assert run(["analyze", wav, f0, feat]) == 0
    from gswf import Waveform, write_wav
    other = str(tmp_path / "slow.wav")
    write_wav(other, Waveform(read_wav(wav).samples, 8000))
    assert run(["metrics", wav, other, feat, feat,
                str(tmp_path / "r.txt")]) == 3


def test_parametric_metrics_take_fft_size_from_files(inputs, wide, tmp_path):
    wav, f0 = inputs
    _, ref = wide
    # a quieter, slightly noisy copy gives a prediction that differs
    from gswf import Waveform, write_wav
    x = read_wav(wav).samples
    noisy = 0.8 * x + np.random.default_rng(5).normal(0.0, 1e-3, len(x))
    pred_wav, pred = str(tmp_path / "pred.wav"), str(tmp_path / "pred.gswf")
    write_wav(pred_wav, Waveform(noisy, FS))
    assert run(["analyze", pred_wav, f0, pred, "--fft-size", "1024",
                "--mode", "parametric"]) == 0
    for flags in ([], ["--json"]):
        plain = str(tmp_path / "plain.txt")
        assert run(["metrics", pred_wav, wav, pred, ref, plain, *flags]) == 0


# ------------------------------------------------------------------- config

def test_config_file_env_and_flag_precedence(inputs, tmp_path, monkeypatch):
    wav, f0 = inputs
    cfg_path = str(tmp_path / "gswf.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("# comment\nfft_size = 1024\nf0_min = 60\n")
    by_flag = str(tmp_path / "flag.gswf")
    assert run(["analyze", wav, f0, by_flag, "--config", cfg_path]) == 0
    assert read_features(by_flag).fft_size == 1024

    by_env = str(tmp_path / "env.gswf")
    monkeypatch.setenv("GSWF_CONFIG", cfg_path)
    assert run(["analyze", wav, f0, by_env]) == 0
    assert read_features(by_env).fft_size == 1024

    overridden = str(tmp_path / "override.gswf")
    assert run(["analyze", wav, f0, overridden, "--fft-size", "512"]) == 0
    assert read_features(overridden).fft_size == 512


def test_one_config_file_serves_every_command(inputs, tmp_path, monkeypatch):
    # a file that sets every PipelineConfig key: each analysis command reads
    # the keys it needs and passes over the rest, and synthesize and metrics
    # read no config at all
    wav, f0 = inputs
    body = {"fft_size": "1024", "mode": "parametric", "oversize_segment": "truncate",
            "f0_min": "60", "f0_max": "400", "frame_shift_s": "0.005"}
    assert set(body) == {f.name for f in fields(PipelineConfig)}
    cfg_path = tmp_path / "all.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in body.items()), encoding="utf-8")
    flags = ["--config", str(cfg_path)]
    feat, out = str(tmp_path / "t.gswf"), str(tmp_path / "t.wav")
    assert run(["gci", wav, f0, str(tmp_path / "t.gci"), *flags]) == 0
    assert run(["analyze", wav, f0, feat, *flags]) == 0
    stream = read_features(feat)
    assert (stream.fft_size, stream.mode) == (1024, "parametric")
    # only the command's own flag lets a parametric stream synthesize at
    # minimum phase
    monkeypatch.setenv("GSWF_CONFIG", str(cfg_path))
    assert run(["synthesize", feat, out, "--min-phase"]) == 4
    assert run(["synthesize", feat, out, "--min-phase", "--min-phase-from-envelope"]) == 0
    monkeypatch.delenv("GSWF_CONFIG")
    assert run(["roundtrip", wav, f0, str(tmp_path / "rt"), *flags]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n", encoding="utf-8")
    monkeypatch.setenv("GSWF_CONFIG", str(bad))
    assert run(["gci", wav, f0, str(tmp_path / "t.gci")]) == 4
    assert run(["synthesize", feat, out]) == 0
    assert run(["metrics", wav, wav, feat, feat, str(tmp_path / "r.txt")]) == 0


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in gswf.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {flag for a in p._actions for flag in a.option_strings
                  if flag.startswith("--") and flag != "--help"}
           for name, p in sub.choices.items()}
    inputs = {"--config", "--f0-min", "--f0-max", "--frame-shift"}
    analysis = inputs | {"--fft-size", "--mode"}
    assert got == {"gci": inputs, "analyze": analysis,
                   "synthesize": {"--min-phase", "--min-phase-from-envelope"},
                   "roundtrip": analysis | {"--list", "--jobs"},
                   "metrics": {"--json"}}
    assert sum(map(len, got.values())) == 21
    assert not hasattr(gswf.cli, "_check_geometry")
    assert not hasattr(gswf.cli, "_add_envelope_arg")


def test_the_benchmark_command_shapes_parse(tmp_path):
    # bench/run.py drives the CLI with these shapes; a cut to the command
    # line that would break the benchmark fails here first
    parse = gswf.cli.build_parser().parse_args
    args = parse(["synthesize", "--min-phase", "--min-phase-from-envelope", "in.gswf", "o.wav"])
    assert (args.func, args.min_phase, args.min_phase_from_envelope) == \
        (gswf.cli.cmd_synthesize, True, True)
    args = parse(["roundtrip", "--config", "c.cfg", "--list", "m.txt", "--jobs", "2"])
    assert (args.func, args.config, args.list, args.jobs) == \
        (gswf.cli.cmd_roundtrip, "c.cfg", "m.txt", 2)
    args = parse(["analyze", "a.wav", "a.f0", "a.gswf"])
    assert args.func is gswf.cli.cmd_analyze
    # and the roundtrip batch's config file, RoundtripBatch.CONFIG, still loads
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text("oversize_segment = truncate\n", encoding="utf-8")
    assert load_config(str(cfg_path)).oversize_segment == "truncate"


def test_the_library_surface_the_benchmark_reads(inputs, tmp_path):
    # bench/run.py, bench/checks.py and bench/tracing.py call these names; a
    # cut that would break the benchmark fails here first
    assert all(callable(f) for f in (gswf.featfile.read_features, gswf.signal_io.read_wav,
                                     gswf.synthesis.synthesize, gswf.cli._roundtrip_one))
    wav, f0 = inputs
    path = str(tmp_path / "tone.gswf")
    assert run(["analyze", wav, f0, path]) == 0
    full = read_features(path)
    # the synth_mix set-up: the parametric stream built from the records
    par = FeatureStream(segments=[dataclasses.replace(s, log_mag=None) for s in full.segments],
                        mode="parametric", fs=full.fs, fft_size=full.fft_size)
    assert (par.mode, par.log_mag, len(par)) == ("parametric", None, len(full))
    # the GCI score reads each record's position and voicing
    assert [s.position for s in full.segments if s.voiced] == \
        full.positions[full.voiced].tolist()
    # the tracer counts segments as the length of what extract_segments returns
    w = read_wav(wav)
    rows = extract_segments(w, detect_gci(w, read_f0_ref(f0, 0.005)), PipelineConfig())
    assert len(rows) == len(full)


def test_bad_config_values_exit_4(inputs, tmp_path, capsys):
    wav, f0 = inputs
    cases = ["fft_size = 100\n", "banana = 1\n", "fft_size = many\n",
             "no equals sign\n"]
    for body in cases:
        cfg_path = str(tmp_path / "bad.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(body)
        code = run(["analyze", wav, f0, str(tmp_path / "x.gswf"),
                    "--config", cfg_path])
        assert code == 4, body
    assert run(["analyze", wav, f0, str(tmp_path / "x.gswf"),
                "--config", str(tmp_path / "missing.cfg")]) == 4


# ------------------------------------------------------ crafted feature files

def _feature_mutants(path):
    """One-field changes of the feature file at path that no writer makes,
    as (label, bytes, the exit code the readers answer with)."""
    data = _read(path)
    magic, version, fs, fft_size, mode_byte, count = _HEADER.unpack_from(data, 0)
    mode = "full" if mode_byte else "parametric"
    rec = np.frombuffer(data, dtype=_record(mode, fft_size), offset=_HEADER.size)

    def mutant(name, value):
        rows = rec.copy()
        rows[name] = value
        return data[:_HEADER.size] + rows.tobytes()

    columns = ("log_f0", "gain", "lsp", "phase") + (("log_mag",) if mode == "full" else ())
    for name in columns:
        for value in (np.nan, np.inf, -np.inf):
            yield f"{name} {value}", mutant(name, value), 3
    # finite, but F0 above fs, or a log magnitude whose exp(2 x) leaves float64
    for name, value in (("log_f0", 1e30), ("gain", 1e30), ("gain", -1e30), ("log_mag", 1e30)):
        if name in columns:
            yield f"{name} {value:g}", mutant(name, value), 3
    yield "voiced byte 7", mutant("voiced", 7), 2
    yield "fs 0", _HEADER.pack(magic, version, 0, fft_size, mode_byte, count) + \
        data[_HEADER.size:], 2
    yield "positions reversed", mutant("positions", rec["positions"][::-1]), 3
    yield "position repeated", mutant("positions", np.r_[rec["positions"][:1],
                                                         rec["positions"][:-1]]), 3


@pytest.mark.parametrize("mode", ["full", "parametric"])
def test_every_reader_refuses_what_no_writer_writes(mode, tmp_path, capsys):
    # each mutant through synthesis, minimum-phase synthesis and scoring:
    # a documented exit code, no traceback or warning, and strict JSON
    def strict(token):
        raise ValueError(f"{token} is not JSON")

    wav, f0 = _write_inputs(tmp_path, "tone", *harmonic_tone(dur=0.3))
    good, bad = str(tmp_path / "good.gswf"), str(tmp_path / "bad.gswf")
    out, report = str(tmp_path / "out.wav"), str(tmp_path / "report.json")
    assert run(["analyze", "--mode", mode, wav, f0, good]) == 0
    for label, data, want in [("unchanged", _read(good), 0), *_feature_mutants(good)]:
        with open(bad, "wb") as fh:
            fh.write(data)
        for argv in (["synthesize", bad, out],
                     ["synthesize", "--min-phase", "--min-phase-from-envelope", bad, out],
                     ["metrics", "--json", wav, wav, bad, good, report]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = run(argv)
                except Exception as exc:  # a traceback at the command line
                    pytest.fail(f"{label}: {' '.join(argv[:2])} raised {exc!r}")
            err = capsys.readouterr().err
            assert code == want, (label, argv[:2], err)
            if code == 0 and argv[0] == "metrics":
                with open(report, encoding="utf-8") as fh:
                    json.loads(fh.read(), parse_constant=strict)


# -------------------------------------------------------------- determinism

def test_subcommands_are_deterministic(inputs, tmp_path):
    wav, f0 = inputs
    produced = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        gci = str(d / "t.gci")
        feat = str(d / "t.gswf")
        wav_out = str(d / "t.wav")
        minp = str(d / "t.min.wav")
        report = str(d / "t.txt")
        assert run(["gci", wav, f0, gci]) == 0
        assert run(["analyze", wav, f0, feat]) == 0
        assert run(["synthesize", feat, wav_out]) == 0
        assert run(["synthesize", feat, minp, "--min-phase"]) == 0
        assert run(["metrics", wav_out, wav_out, feat, feat, report]) == 0
        produced[tag] = [_read(p) for p in (gci, feat, wav_out, minp, report)]
    assert produced["one"] == produced["two"]
