"""gswf benchmark: real-time factor of the CLI paths, plus a traced per-layer
breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports gswf from
./src and nothing else.  One closed-loop client in this process drives the
command line through ``gswf.cli.run(argv)`` on synthetic inputs made from
the seed (see inputs.py); the next op starts when the previous one returns.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 alternates one untraced and one traced pass over the workload's
ops, reports self time per layer from the traced passes and the gap
between the two as tracing overhead.  Either way every output is checked
(checks.py) and the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (environment, sample counts, failures), which is also written
to .bench_out/ together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import inputs
from tracing import LAYERS, SpanStats, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3       # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10        # rtf_tail: highest percentile with this many samples beyond
PROBE_TIMEOUT_S = 150

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "rtf_p50": ("s/audio_s", "lower"),
    "rtf_tail": ("s/audio_s", "lower"),
    "audio_s_per_s": ("audio_s/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "gci_id_rate": ("ratio", "higher"),
}
COUNTS = {  # per-layer metrics that are not self times
    "gci.instants_per_audio_s": ("count/audio_s", "lower"),
    "gci.miss_rate": ("ratio", "lower"),
    "gci.false_alarm_rate": ("ratio", "lower"),
    "gci.timing_error_ms": ("ms", "lower"),
    "analysis.segments_per_audio_s": ("count/audio_s", "lower"),
    "analysis.analyze.calls": ("count/op", "lower"),
    "analysis.truncated_segments": ("count/op", "lower"),
    "dsp.lpc_to_lsp.calls": ("count/op", "lower"),
    "dsp.lsp_to_lpc.calls": ("count/op", "lower"),
    "dsp.mel_filterbank.calls": ("count/op", "lower"),
    "synthesis.window_envelope.calls": ("count/op", "lower"),
    "synthesis.clipped_outputs": ("count/op", "lower"),
    "featfile.bytes_per_audio_s": ("B/audio_s", "lower"),
    "cli.pool.parallel_efficiency": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer_names() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    out = {f"{prefix}.{fn}.ms": ("ms/audio_s", "lower")
           for prefix, (_, fns) in LAYERS.items() for fn in fns}
    out.update(COUNTS)
    return out


# ---------------------------------------------------------------- workloads


@dataclass
class Op:
    key: str            # names the input; ops with one key must repeat bytes
    argv: list
    audio_s: float
    outputs: list       # files the op writes


@dataclass
class Workload:
    ops: list                       # one pass, in schedule order
    warmup: list                    # ops; the first is the set-up probe's op
    # the timed loop stops only between rounds, and an RTF sample is one
    # round: synth_mix's four cases differ ~5x in cost, and the median of
    # four per-case clusters would fall in the gap between two of them
    round_size: int = 1
    prep: list = field(default_factory=list)   # argvs run before set-up
    jobs: int = 1

    def after_prep(self) -> None:
        pass

    def check(self, key: str, score) -> list:
        raise NotImplementedError


# F0 strata are generated low to high; bit-reversed order keeps any prefix
# of a pass balanced between low and high F0, which sets segments per second
def _interleaved(count: int) -> list:
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError(f"{count} is not a power of two")
    return sorted(range(count), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


class AnalyzeMix(Workload):
    """One `gswf analyze` per op, full mode, fft_size 512, on 0.5-4 s
    utterances; detection and forward LSP do nearly all the work."""

    def __init__(self, seed: int, work: Path, nproc: int):
        self.utts = {}
        ops = []
        utts = inputs.mix(seed, 8, (0.5, 4.0))
        for i in _interleaved(len(utts)):
            wav, f0 = inputs.save(str(work / f"a{i}"), utts[i])
            out = str(work / f"a{i}.gswf")
            ops.append(Op(f"a{i}", ["analyze", wav, f0, out], utts[i].duration_s, [out]))
            self.utts[f"a{i}"] = (utts[i], out)
        u = inputs.warmup()
        wav, f0 = inputs.save(str(work / "warm"), u)
        out = str(work / "warm.gswf")
        super().__init__(ops, [Op("warm", ["analyze", wav, f0, out], u.duration_s, [out])])

    def check(self, key, score):
        import checks
        u, path = self.utts[key]
        stream, errors = checks.check_features(path, u, resynth=True)
        score.add(stream, u)
        return errors


SYNTH_CASES = (("full", []), ("full_mp", ["--min-phase"]),
               ("par", []), ("par_mp", ["--min-phase", "--min-phase-from-envelope"]))


class SynthMix(Workload):
    """One `gswf synthesize` per op on feature files prepared before timing
    from 2-8 s utterances; ops cycle through full-mode streams, full-mode
    with --min-phase, parametric, and parametric min-phase from the LSP
    envelope.  Overlap-add, min-phase FFTs and LSP->LPC do the work."""

    def __init__(self, seed: int, work: Path, nproc: int):
        # both utterances sweep the same F0 range, so a round of the four
        # cases costs the same per second on either
        utts = inputs.sweeps(seed, 2, (2.0, 8.0))
        stems = [(u, str(work / f"s{i}")) for i, u in enumerate(utts)]
        stems.append((inputs.warmup(), str(work / "warm")))
        prep, ops, warm = [], [], []
        self.utts = {}
        for u, stem in stems:
            wav, f0 = inputs.save(stem, u)
            prep.append(["analyze", wav, f0, stem + ".full.gswf"])
            name = os.path.basename(stem)
            for case, flags in SYNTH_CASES:
                src = stem + (".par.gswf" if case.startswith("par") else ".full.gswf")
                out = f"{stem}.{case}.wav"
                op = Op(f"{name}.{case}", ["synthesize", *flags, src, out],
                        u.duration_s, [out])
                if name == "warm":
                    warm.append(op)
                else:
                    ops.append(op)
                    self.utts[op.key] = (u, stem)
        self.stems = [stem for _, stem in stems]
        super().__init__(ops, warm, round_size=len(SYNTH_CASES), prep=prep)

    def after_prep(self):
        # the parametric stream is the full one without log magnitudes,
        # written by the program's own format code: byte-for-byte what
        # `gswf analyze --mode parametric` writes, for half the set-up cost
        from gswf.analysis import FeatureStream
        from gswf.featfile import read_features, write_features
        for stem in self.stems:
            full = read_features(stem + ".full.gswf")
            segments = [replace(s, log_mag=None) for s in full.segments]
            write_features(stem + ".par.gswf", FeatureStream(
                fs=full.fs, fft_size=full.fft_size, mode="parametric", segments=segments))

    def check(self, key, score):
        import checks
        u, stem = self.utts[key]
        case = key.split(".", 1)[1]
        stream, errors = checks.check_features(stem + ".full.gswf", u, resynth=False)
        y, read_errors = checks.read_audio(f"{stem}.{case}.wav", u)
        errors += read_errors
        if case == "full":
            score.add(stream, u)
            errors += checks.full_phase_errors(y, stream, u)
        elif case == "full_mp":
            y_full, _ = checks.read_audio(f"{stem}.full.wav", u)
            errors += checks.min_phase_errors(y_full, y, stream, u)
        return errors


class RoundtripBatch(Workload):
    """One `gswf roundtrip --list --jobs nproc` per op over a manifest of
    nproc 1-2 s utterances; the only workload that runs metrics.evaluate,
    re-analysis, wav writes and the batch thread pool."""

    MANIFESTS = 2
    # With the default policy (error), re-analysis of the minimum-phase
    # resynthesis exits 3 on about a third of utterances below 150 Hz: it
    # misses pulses at voicing onsets and leaves a gap longer than
    # fft_size/2.  Truncating lets the job finish; the truncations are
    # counted in analysis.truncated_segments, so the defect stays visible.
    CONFIG = "oversize_segment = truncate\n"

    def __init__(self, seed: int, work: Path, nproc: int):
        utts = inputs.sweeps(seed, self.MANIFESTS * nproc, (1.0, 2.0))
        self.config = work / "roundtrip.cfg"
        self.config.write_text(self.CONFIG, encoding="utf-8")
        self.jobs_of = {}
        ops = []
        for m in range(self.MANIFESTS):
            # utterance i is in duration stratum i, so manifests are alike
            members = [(utts[j], str(work / f"r{j}")) for j in
                       range(m, len(utts), self.MANIFESTS)]
            ops.append(self._manifest(work / f"m{m}.txt", f"m{m}", members, nproc))
            self.jobs_of[f"m{m}"] = members
        # one short job keeps set-up cheap; the pool is still built per op
        warm = self._manifest(work / "warm.txt", "warm",
                              [(inputs.warmup(), str(work / "w0"))], nproc)
        super().__init__(ops, [warm], jobs=nproc)

    def _manifest(self, path: Path, key: str, members: list, nproc: int) -> Op:
        outputs = []
        with open(path, "w", encoding="utf-8") as fh:
            for u, stem in members:
                wav, f0 = inputs.save(stem, u)
                fh.write(f"{wav} {f0} {stem}.out\n")
                name = os.path.basename(stem)
                outputs += [f"{stem}.out/{name}{ext}" for ext in
                            (".gswf", ".full.wav", ".minphase.wav", ".report.txt")]
        audio = sum(u.duration_s for u, _ in members)
        return Op(key, ["roundtrip", "--config", str(self.config), "--list", str(path),
                        "--jobs", str(nproc)], audio, outputs)

    def check(self, key, score):
        import checks
        errors = []
        for u, stem in self.jobs_of[key]:
            base = f"{stem}.out/{os.path.basename(stem)}"
            stream, errs = checks.check_features(base + ".gswf", u, resynth=False)
            score.add(stream, u)
            y_full, e_full = checks.read_audio(base + ".full.wav", u)
            y_min, e_min = checks.read_audio(base + ".minphase.wav", u)
            errors += errs + e_full + e_min + checks.check_report(base + ".report.txt")
            errors += checks.full_phase_errors(y_full, stream, u)
            errors += checks.min_phase_errors(y_full, y_min, stream, u)
        return errors


# analyze_mix runs by hand only; BENCHMARK.json names the other two (see
# "Why two workloads" in README.md)
WORKLOADS = {"analyze_mix": AnalyzeMix, "synth_mix": SynthMix,
             "roundtrip_batch": RoundtripBatch}


# ---------------------------------------------------------------- running ops


@dataclass
class Record:
    key: str
    wall_s: float
    audio_s: float
    ok: bool


class Runner:
    """Runs ops through the CLI; a repeated key must reproduce the bytes of
    its first run (README criterion 10)."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.digests = {}
        self.n_ops = 0

    def _digest(self, op: Op) -> str:
        h = hashlib.sha256()
        for path in op.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def verify(self, op: Op) -> bool:
        """Digest the op's outputs; False if they are missing or differ from
        an earlier run of the same key."""
        try:
            digest = self._digest(op)
        except OSError as exc:
            print(f"bench: {op.key}: {exc}", file=sys.stderr)
            return False
        first = self.digests.setdefault(op.key, digest)
        if first != digest:
            print(f"bench: {op.key}: output differs from its first run", file=sys.stderr)
            return False
        return True

    def execute(self, op: Op) -> Record:
        if self.tracer is not None:
            self.tracer.op = self.n_ops
        self.n_ops += 1
        start = time.perf_counter()
        try:
            rc = self.cli.run(op.argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        if rc not in (0, None):
            print(f"bench: {op.key}: exit {rc}", file=sys.stderr)
        return Record(op.key, wall, op.audio_s, rc == 0 and self.verify(op))

    def timed(self, wl: Workload, seconds: float) -> tuple:
        """Closed loop over the schedule until `seconds` have passed, ending
        on a round boundary.  Returns (records, loop wall seconds)."""
        records, i = [], 0
        start = time.perf_counter()
        while True:
            for _ in range(wl.round_size):
                records.append(self.execute(wl.ops[i % len(wl.ops)]))
                i += 1
            if time.perf_counter() - start >= seconds:
                return records, time.perf_counter() - start


def _run_children(argvs: list) -> list:
    """Run probe.py once per argv, all at once; returns their JSON lines."""
    procs = [subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(SRC), *argv],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for argv in argvs]
    results = []
    try:
        for proc, argv in zip(procs, argvs):
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines or json.loads(lines[-1])["rc"] != 0:
                raise RuntimeError(f"probe {argv} failed (exit {proc.returncode}):\n{err}")
            results.append(json.loads(lines[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def _setup(wl: Workload, runner: Runner) -> list:
    """Set-up probes in fresh interpreters, one after another; each writes
    the warm-up op's outputs, which must come out byte-identical."""
    op = wl.warmup[0]
    records = []
    for _ in range(SETUP_REPEATS):
        seconds = _run_children([op.argv])[0]["seconds"]
        records.append(Record(op.key, seconds, op.audio_s, runner.verify(op)))
    return records


# ---------------------------------------------------------------- metrics


def _tail(values: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples
    beyond it.  That percentile reaches p90 only at 10 x TAIL_BEYOND
    samples; with fewer, p90 itself is reported (interpolated), and fewer
    than TAIL_BEYOND samples lie beyond it."""
    n = len(values)
    if n < 10 * TAIL_BEYOND:
        return float(np.quantile(values, 0.9)), 90.0
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _check_outputs(wl: Workload, records: list) -> tuple:
    """Check every distinct key that ran; returns ({key: errors}, GCI score)."""
    import checks
    score = checks.GciScore()
    failures = {}
    for key in dict.fromkeys(r.key for r in records if r.ok):
        try:
            errors = wl.check(key, score)
        except Exception as exc:  # unparseable output is a failed check
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            failures[key] = errors
    return failures, score


class _LogCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _traced_pass(runner: Runner, wl: Workload, tallies: dict) -> tuple:
    """One pass with spans on; returns (records, warning/log messages,
    functions missing from this gswf)."""
    logger = logging.getLogger("gswf")
    handler = _LogCount()
    logger.addHandler(handler)
    missing = runner.tracer.install(tallies)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = [runner.execute(op) for op in wl.ops]
    finally:
        runner.tracer.uninstall()
        logger.removeHandler(handler)
    return records, [str(w.message) for w in caught] + handler.messages, missing


TALLIES = {  # span name -> amount summed per call, from (args, result)
    "gci.detect_gci": lambda args, track: len(track.instants),
    "analysis.extract_segments": lambda args, segments: len(segments),
    "featfile.write_features": lambda args, _: os.path.getsize(args[0]),
}


def _traced_run(runner: Runner, wl: Workload, seconds: float) -> tuple:
    """Alternate an untraced and a traced pass until `seconds` have passed.
    Returns (all records, traced records, warning/log messages, tracing
    overhead in %, functions missing from this gswf)."""
    runner.tracer = Tracer()
    records, traced, messages, walls = [], [], [], [0.0, 0.0]
    start = time.perf_counter()
    while True:
        plain = [runner.execute(op) for op in wl.ops]
        recs, msgs, missing = _traced_pass(runner, wl, TALLIES)
        records += plain + recs
        traced += recs
        messages += msgs
        walls[0] += sum(r.wall_s for r in plain)
        walls[1] += sum(r.wall_s for r in recs)
        if time.perf_counter() - start >= seconds:
            return records, traced, messages, 100.0 * (walls[1] / walls[0] - 1.0), missing


def _per_layer(tracer, traced: list, messages: list, wl: Workload,
               overhead_pct: float, gci: dict) -> tuple:
    stats = SpanStats(tracer.spans)
    self_s = stats.self_time()
    calls = stats.calls()
    audio = sum(r.audio_s for r in traced)
    n_ops = len(traced)
    m = {}
    for prefix, (_, fns) in LAYERS.items():
        for fn in fns:
            m[f"{prefix}.{fn}.ms"] = 1000.0 * self_s[f"{prefix}.{fn}"] / audio
    for name in ("analysis.analyze", "dsp.lpc_to_lsp", "dsp.lsp_to_lpc",
                 "dsp.mel_filterbank", "synthesis.window_envelope"):
        m[f"{name}.calls"] = calls[name] / n_ops
    m["gci.instants_per_audio_s"] = tracer.tally["gci.detect_gci"] / audio
    m["analysis.segments_per_audio_s"] = tracer.tally["analysis.extract_segments"] / audio
    m["featfile.bytes_per_audio_s"] = tracer.tally["featfile.write_features"] / audio
    m["analysis.truncated_segments"] = sum("truncat" in s for s in messages) / n_ops
    m["synthesis.clipped_outputs"] = sum("clip" in s for s in messages) / n_ops
    for name in ("miss_rate", "false_alarm_rate", "timing_error_ms"):
        m[f"gci.{name}"] = gci[name]
    m["cli.pool.parallel_efficiency"] = stats.pool_efficiency(wl.jobs) or 0.0
    m["trace.overhead_pct"] = overhead_pct

    inclusive = stats.inclusive()
    layer_self = {k: v for k, v in self_s.items() if k != "cli.job"}
    under_eval = stats.self_time(under="metrics.evaluate")
    crosscheck = {
        "largest_self": max(layer_self, key=layer_self.get),
        "largest_self_under_evaluate": (max(under_eval, key=under_eval.get)
                                        if under_eval else None),
        # ROADMAP baseline: lpc_to_lsp ~90% of analyze, mel_filterbank ~87%
        # of evaluate
        "lpc_to_lsp_share_of_analyze": (inclusive["dsp.lpc_to_lsp"] /
                                        inclusive["analysis.analyze"]
                                        if inclusive["analysis.analyze"] else None),
        "mel_filterbank_share_of_evaluate": (inclusive["dsp.mel_filterbank"] /
                                             inclusive["metrics.evaluate"]
                                             if inclusive["metrics.evaluate"] else None),
        "spans": len(tracer.spans),
    }
    return m, crosscheck


# ---------------------------------------------------------------- environment


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _environment(seed: int, nproc: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gswf").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "seed": seed,
    }


# ---------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    phases = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    nproc = len(os.sched_getaffinity(0))
    wl = WORKLOADS[workload](seed, work, nproc)
    sys.path.insert(0, str(SRC))
    import gswf.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "gswf":
        raise SystemExit(f"bench: imported gswf from {cli.__file__}, not {SRC}")
    phase("inputs")
    _run_children(wl.prep)
    wl.after_prep()
    phase("prep")
    runner = Runner(cli)
    warm = _setup(wl, runner)
    setup = [r.wall_s for r in warm]
    phase("setup")
    warm += [runner.execute(op) for op in wl.warmup]
    phase("warmup")

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": _environment(seed, nproc), "setup_samples_s": setup,
              "phase_s": phases}
    if not trace:
        timed, loop_s = runner.timed(wl, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = timed
    else:
        checked, timed, messages, overhead, report["untraced_functions"] = \
            _traced_run(runner, wl, seconds)
    phase("measure")

    # a key that ran twice in the loop was also compared byte for byte;
    # the warm-up op always was, across the set-up probes
    failures, score = _check_outputs(wl, checked)
    phase("checks")
    records = warm + checked
    for r in records:
        r.ok = r.ok and r.key not in failures
    failed = sum(not r.ok for r in records)
    gci = score.rates()
    # one RTF sample per round; see Workload.round_size
    k = wl.round_size
    rtf = [sum(r.wall_s for r in timed[i:i + k]) / sum(r.audio_s for r in timed[i:i + k])
           for i in range(0, len(timed), k)]
    tail, pct = _tail(rtf)
    report.update({
        "attempted": len(records), "failed": failed,
        "error_rate": failed / len(records),
        "failures": {k: v[:3] for k, v in failures.items()},
        "rtf_samples": len(rtf), "rtf_tail_percentile": pct,
        "gci": gci, "ops_per_pass": len(wl.ops),
        "ops": [[r.key, r.wall_s, r.audio_s] for r in timed],
    })
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            "rtf_p50": statistics.median(rtf),
            "rtf_tail": tail,
            "audio_s_per_s": sum(r.audio_s for r in timed) / loop_s,
            "peak_rss_mb": peak_rss_mb,
            "gci_id_rate": gci["id_rate"],
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        values, report["crosscheck"] = _per_layer(runner.tracer, timed, messages, wl,
                                                  overhead, gci)
        units = {k: v[0] for k, v in per_layer_names().items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        runner.tracer.write(str(out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"))
    report["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gswf" / "__init__.py").is_file():
        print(f"bench: no gswf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a terminated run still removes its work files and stops its probes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wall_start = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["run_wall_s"] = time.perf_counter() - wall_start
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
