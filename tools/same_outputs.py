"""Check that two gswf source trees write byte-identical output files.

    python3 tools/same_outputs.py BASE_SRC [--keep DIR]

BASE_SRC is the ``src`` directory of another checkout, for example of the
parent commit unpacked with ``git archive``.  The script writes
``speech_like()``, ``harmonic_tone()``, ``low_pitch_onsets()`` and
``speech_like(fs=8000)`` and ``speech_like(fs=22050)`` (other frame, shift
and LPC order geometry in GCI detection) from ``tests/signals.py`` as PCM16
wavs with their F0 contours, then runs the same ``gswf`` commands once with
this tree's ``src`` and once with BASE_SRC on PYTHONPATH.  Every input goes
through ``gci``, ``analyze`` full and parametric, and ``roundtrip``.
Speech and tone at 16 kHz also go through
``synthesize`` full, ``--min-phase``, parametric and parametric
``--min-phase --min-phase-from-envelope``; ``roundtrip`` full and
parametric ``--min-phase-from-envelope``; ``metrics`` as text and
``--json``, on the input against itself and on the roundtrip's min-phase
resynthesis (analyzed again) against the input, and ``metrics`` on that
resynthesis analyzed again with ``--mode parametric`` against the input's
parametric stream, which scores LSP envelopes of instants aligned across
two analyses.  The other inputs skip
these; the low-pitched one because analyzing its min-phase resynthesis
fails on both sides (a voicing-edge pulse is missed).  Then ``roundtrip --list`` at
``--jobs 2`` over speech and tone, and the library calls
``synthesize(stream, positions="f0")`` and ``synthesize_min_phase(stream,
from_envelope=True, positions="f0")`` on their feature files, each written
as a wav.
It prints each output file that differs (or exists on one side only) and
each command that fails on either side, and exits 1 if there is any, else 0.
A differing PCM16 wav is quantified by the number of samples that differ
and the largest difference in LSB; a differing text file (reports, tracks)
by the lines that differ.
Only the standard library is used here; the commands need numpy and scipy.
"""

from __future__ import annotations

import argparse
import array
import filecmp
import os
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WRITE_INPUTS = """
import sys
from gswf.signal_io import write_f0_ref, write_wav
from signals import harmonic_tone, low_pitch_onsets, speech_like
for name, (w, f0) in (("speech", speech_like()), ("tone", harmonic_tone()),
                      ("lowpitch", low_pitch_onsets(seed=0)),
                      ("speech8k", speech_like(fs=8000)),
                      ("speech22k", speech_like(fs=22050))):
    write_wav(f"{sys.argv[1]}/{name}.wav", w)
    write_f0_ref(f"{sys.argv[1]}/{name}.f0", f0)
"""

SYNTH_F0 = """
import sys
from gswf.featfile import read_features
from gswf.signal_io import write_wav
from gswf.synthesis import synthesize, synthesize_min_phase
for path in sys.argv[1:]:
    stream = read_features(path)
    write_wav(path.replace(".gswf", ".f0pos.wav"), synthesize(stream, positions="f0"))
    write_wav(path.replace(".gswf", ".f0pos_mp.wav"),
              synthesize_min_phase(stream, from_envelope=True, positions="f0"))
"""
NAMES = ("speech", "tone")
MAX_LINES = 16  # differing text lines printed per file
ANALYSIS_ONLY = ("lowpitch", "speech8k", "speech22k")


def commands(inputs: Path, name: str) -> list:
    """gswf argument lists for one input; outputs are relative to the run
    directory."""
    wav, f0 = str(inputs / f"{name}.wav"), str(inputs / f"{name}.f0")
    out = name + "."
    analysis = [
        ["gci", wav, f0, out + "gci.txt"],
        ["analyze", wav, f0, out + "full.gswf", "--mode", "full"],
        ["analyze", wav, f0, out + "par.gswf", "--mode", "parametric"],
        ["roundtrip", wav, f0, out + "rt_full"],
    ]
    if name in ANALYSIS_ONLY:
        return analysis
    return analysis + [
        ["synthesize", out + "full.gswf", out + "full.wav"],
        ["synthesize", out + "full.gswf", out + "full_mp.wav", "--min-phase"],
        ["synthesize", out + "par.gswf", out + "par.wav"],
        ["synthesize", out + "par.gswf", out + "par_mp.wav", "--min-phase",
         "--min-phase-from-envelope"],
        ["roundtrip", wav, f0, out + "rt_par", "--mode", "parametric",
         "--min-phase-from-envelope"],
        # metrics of the input against itself, and of the roundtrip's
        # length-fitted min-phase resynthesis against the input, in full
        # and in parametric mode
        ["metrics", wav, wav, out + "full.gswf", out + "full.gswf", out + "same.txt"],
        ["analyze", f"{out}rt_full/{name}.minphase.wav", f0, out + "mp.gswf",
         "--mode", "full"],
        ["metrics", f"{out}rt_full/{name}.minphase.wav", wav, out + "mp.gswf",
         out + "full.gswf", out + "mp.txt"],
        ["metrics", f"{out}rt_full/{name}.minphase.wav", wav, out + "mp.gswf",
         out + "full.gswf", out + "mp.json", "--json"],
        ["analyze", f"{out}rt_full/{name}.minphase.wav", f0, out + "mp_par.gswf",
         "--mode", "parametric"],
        ["metrics", f"{out}rt_full/{name}.minphase.wav", wav, out + "mp_par.gswf",
         out + "par.gswf", out + "mp_par.txt"],
    ]


def run_tree(src: Path, inputs: Path, out_dir: Path) -> list:
    """Run every command with `src` first on PYTHONPATH; returns the exit
    codes in command order."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    argvs = [argv for name in NAMES + ANALYSIS_ONLY for argv in commands(inputs, name)]
    argvs.append(["roundtrip", "--list", str(inputs / "batch.list"), "--jobs", "2"])
    runs = [(" ".join(Path(a).name if a.startswith(str(inputs)) else a for a in argv),
             [sys.executable, "-m", "gswf.cli", *argv]) for argv in argvs]
    feats = [f"{name}.{mode}.gswf" for name in NAMES for mode in ("full", "par")]
    runs.append(("synthesize*(..., positions='f0')",
                 [sys.executable, "-c", SYNTH_F0, *feats]))
    codes = []
    for label, cmd in runs:
        proc = subprocess.run(cmd, cwd=out_dir, env=env, capture_output=True, text=True)
        codes.append((label, proc.returncode))
    return codes


def _pcm16(path: Path):
    """(channels, rate, samples) of a PCM16 wav, or None for other files."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getsampwidth() != 2:
                return None
            head = (fh.getnchannels(), fh.getframerate())
            samples = array.array("h", fh.readframes(fh.getnframes()))
    except (wave.Error, EOFError):
        return None
    if sys.byteorder == "big":
        samples.byteswap()
    return head + (samples,)


def _text_lines(path: Path):
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        return None


def describe(a: Path, b: Path) -> str:
    """How file a (this tree) differs from file b (BASE_SRC)."""
    if a.suffix == ".wav":
        wa, wb = _pcm16(a), _pcm16(b)
        if wa and wb and wa[:2] == wb[:2] and len(wa[2]) == len(wb[2]):
            deltas = [abs(x - y) for x, y in zip(wa[2], wb[2]) if x != y]
            if deltas:
                return (f"{len(deltas)} of {len(wa[2])} samples differ, "
                        f"by at most {max(deltas)} LSB")
        elif wa and wb:
            return (f"{wa[0]} ch, {wa[1]} Hz, {len(wa[2])} frames here; "
                    f"{wb[0]} ch, {wb[1]} Hz, {len(wb[2])} frames in BASE_SRC")
    elif a.suffix in (".txt", ".json"):
        la, lb = _text_lines(a), _text_lines(b)
        if la is not None and lb is not None:
            pairs = [(i, x, y) for i, (x, y) in enumerate(zip(la, lb), start=1) if x != y]
            head = f"{len(pairs)} lines differ"
            if len(la) != len(lb):
                head += f" ({len(la)} lines here, {len(lb)} in BASE_SRC)"
            shown = [f"\n    line {i}: {x!r} here\n    line {i}: {y!r} in BASE_SRC"
                     for i, x, y in pairs[:MAX_LINES]]
            if len(pairs) > MAX_LINES:
                shown.append(f"\n    ... and {len(pairs) - MAX_LINES} more")
            return head + "".join(shown)
    return "bytes differ"


def differing(a: Path, b: Path) -> list:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = [f"{rel}: only in {'this tree' if rel in files_a else 'BASE_SRC'}"
           for rel in sorted(files_a ^ files_b)]
    out += [f"{rel}: {describe(a / rel, b / rel)}" for rel in sorted(files_a & files_b)
            if not filecmp.cmp(a / rel, b / rel, shallow=False)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", type=Path, help="src directory of the other tree")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    args = parser.parse_args(argv)
    base = args.base_src.resolve()
    if not (base / "gswf" / "cli.py").is_file():
        parser.error(f"{base} holds no gswf package")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep.resolve() if args.keep else Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                            str(ROOT / "tests")]))
        subprocess.run([sys.executable, "-c", WRITE_INPUTS, str(inputs)],
                       env=env, check=True)
        # paths relative to the run directories, which sit next to `inputs`
        (inputs / "batch.list").write_text("".join(
            f"../inputs/{name}.wav ../inputs/{name}.f0 batch/{name}\n" for name in NAMES))
        codes_here = run_tree(ROOT / "src", inputs, work / "here")
        codes_base = run_tree(base, inputs, work / "base")
        # a command that fails on both sides leaves nothing to compare
        problems = [f"{cmd}: exit {x} here, {y} in BASE_SRC"
                    for (cmd, x), (_, y) in zip(codes_here, codes_base) if x or y]
        problems += differing(work / "here", work / "base")
        n_files = sum(1 for p in (work / "here").rglob("*") if p.is_file())
    for line in problems:
        print(line)
    print(f"{n_files} output files from {len(codes_here)} commands: "
          f"{'identical' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
