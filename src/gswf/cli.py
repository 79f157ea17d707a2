"""Command line front end.

Subcommands: gci, analyze, synthesize, roundtrip, metrics.  Exit codes:
0 success, 2 I/O or file-format problem, 3 input validation failure,
4 configuration problem.  A config file can be passed with --config or the
GSWF_CONFIG environment variable; individual flags override file values.
synthesize and metrics take the FFT size and mode from the feature files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .analysis import analyze
from .config import COST_NORMS, MODES, PipelineConfig, load_config
from .errors import ConfigError, GswfError, ValidationError
from .featfile import read_features, write_features
from .gci import detect_gci, write_gci_track
from .metrics import evaluate
from .signal_io import Waveform, read_f0_ref, read_wav, write_wav
from .synthesis import synthesize, synthesize_min_phase

DURATION_TOLERANCE = 0.10

_OVERRIDE_FIELDS = ("fft_size", "mode", "f0_min", "f0_max", "frame_shift_s", "cost_norm")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--fft-size", type=int, dest="fft_size")
    parser.add_argument("--mode", choices=MODES, dest="mode")
    parser.add_argument("--f0-min", type=float, dest="f0_min")
    parser.add_argument("--f0-max", type=float, dest="f0_max")
    parser.add_argument("--frame-shift", type=float, dest="frame_shift_s",
                        help="reference F0 frame shift in seconds")
    parser.add_argument("--cost-norm", choices=COST_NORMS, dest="cost_norm")
    parser.add_argument("--min-phase-from-envelope", action="store_true",
                        dest="min_phase_from_envelope")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for name in _OVERRIDE_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "min_phase_from_envelope", False):
        overrides["min_phase_from_envelope"] = True
    path = args.config or os.environ.get("GSWF_CONFIG")
    if path:
        return load_config(path, overrides)
    return PipelineConfig(**overrides)


def _check_geometry(args: argparse.Namespace, path: str, stream) -> None:
    """A feature file fixes its FFT size and mode; flags may only repeat them."""
    for name in ("fft_size", "mode"):
        flag, stored = getattr(args, name), getattr(stream, name)
        if flag is not None and flag != stored:
            raise ConfigError(f"--{name.replace('_', '-')} {flag} conflicts with "
                              f"{path}, which has {name} {stored}")


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
    track = detect_gci(w, f0, cfg)
    write_gci_track(args.out_track, track)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    w, f0 = _read_inputs(args.in_wav, args.f0_ref, cfg)
    stream = analyze(w, f0, cfg)
    write_features(args.out_features, stream)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    stream = read_features(args.in_features)
    _check_geometry(args, args.in_features, stream)
    if args.min_phase:
        out = synthesize_min_phase(stream, cfg)
    else:
        out = synthesize(stream, cfg)
    write_wav(args.out_wav, out)
    return 0


def _fit_length(w: Waveform, total_len: int) -> Waveform:
    if len(w.samples) >= total_len:
        return Waveform(w.samples[:total_len], w.fs)
    padded = np.zeros(total_len)
    padded[:len(w.samples)] = w.samples
    return Waveform(padded, w.fs)


def _edge_trim_span(stream, total_len: int) -> tuple:
    """One local period off each end; the mirrored edge windows there do not
    reconstruct the signal and would swamp the scores."""
    head = int(round(stream.fs / math.exp(stream.segments[0].log_f0)))
    tail = int(round(stream.fs / math.exp(stream.segments[-1].log_f0)))
    lo = min(head, total_len - 1)
    hi = max(total_len - tail, lo + 1)
    return lo, hi


def _roundtrip_one(wav_path: str, f0_path: str, out_dir: str,
                   cfg: PipelineConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(wav_path))[0]
    w, f0 = _read_inputs(wav_path, f0_path, cfg)
    stream = analyze(w, f0, cfg)
    write_features(os.path.join(out_dir, stem + ".gswf"), stream)
    span = _edge_trim_span(stream, len(w.samples))
    reports = []
    for label, synth in (("full", synthesize), ("minphase", synthesize_min_phase)):
        out = _fit_length(synth(stream, cfg), len(w.samples))
        write_wav(os.path.join(out_dir, f"{stem}.{label}.wav"), out)
        resynth_stream = analyze(out, f0, cfg)
        report = evaluate(out, w, resynth_stream, stream, span=span)
        reports.append((label, report))
    with open(os.path.join(out_dir, stem + ".report.txt"), "w", encoding="utf-8") as fh:
        for label, report in reports:
            for line in report.to_text().splitlines():
                fh.write(f"{label}.{line}\n")


def cmd_roundtrip(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.mode == "parametric" and not cfg.min_phase_from_envelope:
        raise ConfigError("a parametric roundtrip needs --min-phase-from-envelope "
                          "for its minimum-phase resynthesis")
    if args.list:
        jobs = []
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
                jobs.append(tuple(parts))

        def run_one(job):
            try:
                _roundtrip_one(*job, cfg)
            except (GswfError, OSError) as exc:
                return exc
            return None

        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            results = list(pool.map(run_one, jobs))
        # manifest order, whatever order the workers finished in
        failures = [(job[0], exc) for job, exc in zip(jobs, results) if exc is not None]
        for path, exc in failures:
            print(f"gswf: {path}: {exc}", file=sys.stderr)
        if failures:
            codes = [getattr(exc, "exit_code", 2) for _, exc in failures]
            return max(codes)
        return 0
    if not (args.in_wav and args.f0_ref and args.out_dir):
        raise ValidationError("roundtrip needs in_wav f0_ref out_dir (or --list)")
    _roundtrip_one(args.in_wav, args.f0_ref, args.out_dir, cfg)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    _config_from_args(args)  # no setting applies, but a bad config file still exits 4
    pred_wav = read_wav(args.pred_wav)
    ref_wav = read_wav(args.ref_wav)
    pred_stream = read_features(args.pred_features)
    ref_stream = read_features(args.ref_features)
    _check_geometry(args, args.pred_features, pred_stream)
    _check_geometry(args, args.ref_features, ref_stream)
    report = evaluate(pred_wav, ref_wav, pred_stream, ref_stream)
    text = report.to_json() if args.json else report.to_text()
    with open(args.out_report, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gswf",
        description="Glottal-synchronous waveform analysis, resynthesis and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gci", help="detect glottal closure instants")
    p.add_argument("in_wav")
    p.add_argument("f0_ref")
    p.add_argument("out_track")
    _add_config_args(p)
    p.set_defaults(func=cmd_gci)

    p = sub.add_parser("analyze", help="extract a feature stream")
    p.add_argument("in_wav")
    p.add_argument("f0_ref")
    p.add_argument("out_features")
    _add_config_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="resynthesize a waveform")
    p.add_argument("in_features")
    p.add_argument("out_wav")
    p.add_argument("--min-phase", action="store_true",
                   help="replace transmitted phase with minimum phase")
    _add_config_args(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("roundtrip",
                       help="analyze, resynthesize (full and min-phase) and evaluate")
    p.add_argument("in_wav", nargs="?")
    p.add_argument("f0_ref", nargs="?")
    p.add_argument("out_dir", nargs="?")
    p.add_argument("--list", help="batch manifest: one 'wav f0 outdir' per line")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for --list")
    _add_config_args(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("metrics", help="evaluate a prediction against a reference")
    p.add_argument("pred_wav")
    p.add_argument("ref_wav")
    p.add_argument("pred_features")
    p.add_argument("ref_features")
    p.add_argument("out_report")
    p.add_argument("--json", action="store_true", help="write the report as JSON")
    _add_config_args(p)
    p.set_defaults(func=cmd_metrics)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GswfError as exc:
        print(f"gswf: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"gswf: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
