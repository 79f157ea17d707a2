"""Command line front end.

Subcommands: gci, analyze, synthesize, roundtrip, metrics.  Exit codes:
0 success, 2 I/O or file-format problem, 3 input validation failure,
4 configuration problem.  Each subcommand takes the flags of only the
settings it reads.  gci, analyze and roundtrip read a config file of
analysis settings passed with --config; individual flags override file
values, and a set GSWF_CONFIG environment variable exits 4 rather than
being ignored.  synthesize and metrics read no config: they take the FFT
size and mode from the feature files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np

from .analysis import (FeatureStream, analyze, cut_segments, row_spectra, segment_spans,
                       segments_to_features)
from .config import MODES, PipelineConfig, load_config
from .dsp import mel_support
from .errors import ConfigError, GswfError, ValidationError
from .featfile import read_features, write_features
from .gci import detect_gci, write_gci_track
from .metrics import evaluate
from .signal_io import Waveform, read_f0_ref, read_wav, write_wav
from .synthesis import synthesize, synthesize_min_phase

DURATION_TOLERANCE = 0.10


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    # --config and the settings that reading a wav and its F0 contour uses
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--f0-min", type=float, dest="f0_min")
    parser.add_argument("--f0-max", type=float, dest="f0_max")
    parser.add_argument("--frame-shift", type=float, dest="frame_shift_s",
                        help="reference F0 frame shift in seconds")


def _add_analysis_args(parser: argparse.ArgumentParser) -> None:
    # the input flags plus the geometry analysis writes into a stream's header
    _add_input_args(parser)
    parser.add_argument("--fft-size", type=int, dest="fft_size")
    parser.add_argument("--mode", choices=MODES, dest="mode")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    # each config field whose flag was given; a flag left out reads None
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None}
    if "GSWF_CONFIG" in os.environ:
        raise ConfigError("GSWF_CONFIG is not read; name the config file with --config")
    if args.config:
        return load_config(args.config, overrides)
    return PipelineConfig(**overrides)


def _check_mel_support(fft_size: int, fs: int) -> None:
    if not mel_support(fft_size // 2 + 1, fs):
        raise ConfigError(f"fft_size {fft_size} at fs {fs} Hz leaves a mel band of "
                          f"the metrics without a spectral bin; raise fft_size")


def _read_inputs(wav_path: str, f0_path: str, cfg: PipelineConfig):
    w = read_wav(wav_path)
    f0 = read_f0_ref(f0_path, cfg.frame_shift_s)
    if w.duration_s <= 0:
        raise ValidationError(f"{wav_path}: empty waveform")
    mismatch = abs(w.duration_s - f0.duration_s) / w.duration_s
    if mismatch > DURATION_TOLERANCE:
        raise ValidationError(
            f"waveform ({w.duration_s:.3f} s) and F0 contour ({f0.duration_s:.3f} s) "
            f"durations differ by {100 * mismatch:.1f}%"
        )
    f0.check_range(cfg.f0_min, cfg.f0_max)
    return w, f0


def cmd_gci(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    w, f0 = _read_inputs(args.in_wav, args.f0_ref, cfg)
    track = detect_gci(w, f0)
    write_gci_track(args.out_track, track)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    w, f0 = _read_inputs(args.in_wav, args.f0_ref, cfg)
    stream = analyze(w, f0, cfg)
    write_features(args.out_features, stream)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    stream = read_features(args.in_features)
    if args.min_phase:
        out = synthesize_min_phase(stream, from_envelope=args.min_phase_from_envelope)
    else:
        out = synthesize(stream)
    write_wav(args.out_wav, out)
    return 0


def _fit_length(w: Waveform, total_len: int) -> Waveform:
    if len(w.samples) >= total_len:
        return Waveform(w.samples[:total_len], w.fs)
    padded = np.zeros(total_len)
    padded[:len(w.samples)] = w.samples
    return Waveform(padded, w.fs)


def _measure_at_instants(out: Waveform, stream: FeatureStream) -> FeatureStream:
    """The stream with each field that evaluate scores in its mode measured
    again on the resynthesis out, cut at the stream's own instants with the
    layout synthesis used.  Voicing and log F0 stay the stream's: synthesis
    placed the pulses there."""
    pos = stream.positions
    spans = segment_spans(pos)
    rows = cut_segments(out, pos, spans, stream.fft_size)
    if stream.mode == "full":
        # spectra and phases are all evaluate reads of a full-mode stream
        log_mag, phase = row_spectra(rows)
        return replace(stream, log_mag=log_mag, phase=phase)
    # parametric magnitudes come from the LSP envelope and the gain
    f = segments_to_features(rows, pos, spans, stream.voiced, out.fs, stream.mode)
    return replace(stream, gain=f.gain, lsp=f.lsp, phase=f.phase)


def _output_base(wav_path: str, out_dir: str) -> str:
    # a roundtrip's outputs are this path plus .gswf, .full.wav, .minphase.wav
    # and .report.txt
    return os.path.join(out_dir, os.path.splitext(os.path.basename(wav_path))[0])


def _roundtrip_one(wav_path: str, f0_path: str, out_dir: str,
                   cfg: PipelineConfig) -> None:
    base = _output_base(wav_path, out_dir)
    w, f0 = _read_inputs(wav_path, f0_path, cfg)
    _check_mel_support(cfg.fft_size, w.fs)
    os.makedirs(out_dir, exist_ok=True)
    stream = analyze(w, f0, cfg)
    write_features(base + ".gswf", stream)
    # the span the stream reconstructs; evaluate leaves out the segments
    # centred on its ends, whose windows reach the unreconstructed edges
    span = (int(stream.positions[0]), int(stream.positions[-1]))
    reports = []
    # a parametric stream's only magnitude is its envelope
    min_phase = functools.partial(synthesize_min_phase, from_envelope=True)
    for label, synth in (("full", synthesize), ("minphase", min_phase)):
        out = _fit_length(synth(stream), len(w.samples))
        write_wav(f"{base}.{label}.wav", out)
        report = evaluate(out, w, _measure_at_instants(out, stream), stream, span=span)
        reports.append((label, report))
    with open(base + ".report.txt", "w", encoding="utf-8") as fh:
        for label, report in reports:
            for line in report.to_text().splitlines():
                fh.write(f"{label}.{line}\n")


def cmd_roundtrip(args: argparse.Namespace) -> int:
    positionals = (args.in_wav, args.f0_ref, args.out_dir)
    if (any(positionals) if args.list else not all(positionals)):
        raise ValidationError("roundtrip needs in_wav f0_ref out_dir or --list, and not both")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _config_from_args(args)
    jobs = [positionals]
    if args.list:
        jobs = []
        first_line = {}  # output base -> the manifest line that writes it
        with open(args.list, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise ValidationError(
                        f"{args.list}:{lineno}: expected 'wav f0 outdir', got {line!r}"
                    )
                base = os.path.abspath(_output_base(parts[0], parts[2]))
                if base in first_line:
                    raise ValidationError(
                        f"{args.list}: lines {first_line[base]} and {lineno} both write "
                        f"{base}.*; give them different out dirs or wav names")
                first_line[base] = lineno
                jobs.append(tuple(parts))
        if not jobs:
            raise ValidationError(f"{args.list}: no jobs")

    def run_one(job):
        try:
            _roundtrip_one(*job, cfg)
        except (GswfError, OSError) as exc:
            return exc
        return None

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run_one, jobs))
    # manifest order, whatever order the workers finished in
    failures = [(job[0], exc) for job, exc in zip(jobs, results) if exc is not None]
    for path, exc in failures:
        print(f"gswf: {path}: {exc}", file=sys.stderr)
    return max((getattr(exc, "exit_code", 2) for _, exc in failures), default=0)


def cmd_metrics(args: argparse.Namespace) -> int:
    pred_stream = read_features(args.pred_features)
    ref_stream = read_features(args.ref_features)
    for stream in (pred_stream, ref_stream):
        _check_mel_support(stream.fft_size, stream.fs)
    pred_wav = read_wav(args.pred_wav)
    ref_wav = read_wav(args.ref_wav)
    report = evaluate(pred_wav, ref_wav, pred_stream, ref_stream)
    text = report.to_json() if args.json else report.to_text()
    with open(args.out_report, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gswf argument parser, built once per process: parsing leaves it
    unchanged, so every run shares it."""
    parser = argparse.ArgumentParser(
        prog="gswf",
        description="Glottal-synchronous waveform analysis, resynthesis and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gci", help="detect glottal closure instants")
    p.add_argument("in_wav")
    p.add_argument("f0_ref")
    p.add_argument("out_track")
    _add_input_args(p)
    p.set_defaults(func=cmd_gci)

    p = sub.add_parser("analyze", help="extract a feature stream")
    p.add_argument("in_wav")
    p.add_argument("f0_ref")
    p.add_argument("out_features")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="resynthesize a waveform")
    p.add_argument("in_features")
    p.add_argument("out_wav")
    p.add_argument("--min-phase", action="store_true",
                   help="replace transmitted phase with minimum phase")
    p.add_argument("--min-phase-from-envelope", action="store_true",
                   help="let --min-phase take a parametric stream's magnitude "
                        "from its LSP envelope")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("roundtrip",
                       help="analyze, resynthesize (full and min-phase) and evaluate")
    p.add_argument("in_wav", nargs="?")
    p.add_argument("f0_ref", nargs="?")
    p.add_argument("out_dir", nargs="?")
    p.add_argument("--list", help="batch manifest: one 'wav f0 outdir' per line")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for --list")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("metrics", help="evaluate a prediction against a reference")
    p.add_argument("pred_wav")
    p.add_argument("ref_wav")
    p.add_argument("pred_features")
    p.add_argument("ref_features")
    p.add_argument("out_report")
    p.add_argument("--json", action="store_true", help="write the report as JSON")
    p.set_defaults(func=cmd_metrics)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GswfError, OSError) as exc:
        print(f"gswf: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
