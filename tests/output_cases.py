"""The inputs and gswf commands whose output files must keep their bytes.

``tools/same_outputs.py BASE_SRC`` runs them with two source trees, one
fresh process per command, and compares the files; ``test_outputs.py``
runs them in-process through ``gswf.cli.run`` and compares the files'
digests with the manifest ``data/outputs.sha256``, which
``tools/same_outputs.py --write-manifest`` writes.

The inputs are ``speech_like()``, ``harmonic_tone()``,
``low_pitch_onsets()``, ``speech_like(fs=8000)`` and
``speech_like(fs=22050)`` (other frame, shift and LPC order geometry in
GCI detection) from ``signals.py``, written as PCM16 wavs with their F0
contours.  Every input goes through ``gci``, ``analyze`` full and
parametric, and ``roundtrip``.  Speech and tone at 16 kHz also go through
``synthesize`` full, ``--min-phase``, parametric and parametric
``--min-phase --min-phase-from-envelope``; ``roundtrip`` full and
``--mode parametric`` (whose minimum-phase half always takes the LSP
envelope); ``metrics`` as text and
``--json``, on the input against itself and on the roundtrip's min-phase
resynthesis (analyzed again) against the input, and ``metrics`` on that
resynthesis analyzed again with ``--mode parametric`` against the input's
parametric stream, which scores LSP envelopes of instants aligned across
two analyses.  The other inputs skip these; the low-pitched one because
analyzing its min-phase resynthesis fails (a voicing-edge pulse is
missed).  Then ``roundtrip --list`` at ``--jobs 2`` over speech and tone,
and the library calls ``synthesize(stream, positions="f0")`` and
``synthesize_min_phase(stream, from_envelope=True, positions="f0")`` on
their feature files, each written as a wav (synthesize_f0).

Commands write relative to a run directory that sits next to the inputs
directory.  Importing this module loads only the standard library.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

NAMES = ("speech", "tone")
ANALYSIS_ONLY = ("lowpitch", "speech8k", "speech22k")
F0_FEATURES = tuple(f"{name}.{mode}.gswf" for name in NAMES for mode in ("full", "par"))
MANIFEST_HEAD = ("# gswf output digests; rewrite with: "
                 "python3 tools/same_outputs.py --write-manifest")


def write_inputs(inputs) -> None:
    """The input wavs, F0 contours and batch manifest, into inputs."""
    from gswf.signal_io import write_f0_ref, write_wav
    from signals import harmonic_tone, low_pitch_onsets, speech_like
    inputs = Path(inputs)
    for name, (w, f0) in (("speech", speech_like()), ("tone", harmonic_tone()),
                          ("lowpitch", low_pitch_onsets(seed=0)),
                          ("speech8k", speech_like(fs=8000)),
                          ("speech22k", speech_like(fs=22050))):
        write_wav(str(inputs / f"{name}.wav"), w)
        write_f0_ref(str(inputs / f"{name}.f0"), f0)
    # paths relative to the run directory, which sits next to `inputs`
    (inputs / "batch.list").write_text("".join(
        f"../{inputs.name}/{name}.wav ../{inputs.name}/{name}.f0 batch/{name}\n"
        for name in NAMES))


def commands(inputs, name: str) -> list:
    """gswf argument lists for one input; outputs are relative to the run
    directory."""
    wav, f0 = str(Path(inputs) / f"{name}.wav"), str(Path(inputs) / f"{name}.f0")
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
        ["roundtrip", wav, f0, out + "rt_par", "--mode", "parametric"],
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


def cli_argvs(inputs) -> list:
    """Every gswf argument list, in run order."""
    argvs = [argv for name in NAMES + ANALYSIS_ONLY for argv in commands(inputs, name)]
    argvs.append(["roundtrip", "--list", str(Path(inputs) / "batch.list"), "--jobs", "2"])
    return argvs


def label(argv: list, inputs) -> str:
    """An argument list as printed, input paths shortened to file names."""
    return " ".join(Path(a).name if a.startswith(str(inputs)) else a for a in argv)


def synthesize_f0(paths) -> None:
    """synthesize and synthesize_min_phase(from_envelope=True) of each
    feature file at positions="f0", written as wavs next to it."""
    from gswf.featfile import read_features
    from gswf.signal_io import write_wav
    from gswf.synthesis import synthesize, synthesize_min_phase
    for path in map(str, paths):
        stream = read_features(path)
        write_wav(path.replace(".gswf", ".f0pos.wav"), synthesize(stream, positions="f0"))
        write_wav(path.replace(".gswf", ".f0pos_mp.wav"),
                  synthesize_min_phase(stream, from_envelope=True, positions="f0"))


def run_in_process(work) -> list:
    """Write the inputs into work/inputs and run every command through
    gswf.cli.run in work/run, then synthesize_f0.  Returns the (label,
    exit code) of each command that exits non-zero."""
    from gswf.cli import run
    work = Path(work)
    inputs, run_dir = work / "inputs", work / "run"
    inputs.mkdir(parents=True)
    run_dir.mkdir()
    write_inputs(inputs)
    failed = []
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        for argv in cli_argvs(inputs):
            code = run(argv)
            if code:
                failed.append((label(argv, inputs), code))
        synthesize_f0(F0_FEATURES)
    finally:
        os.chdir(cwd)
    return failed


def platform_line() -> str:
    """The manifest line naming what the output bits rest on: numpy's
    bundled LAPACK and pocketfft, and the machine's floating point."""
    import numpy as np
    return f"# platform: numpy {np.__version__}, {platform.machine()}"


def digests(root) -> dict:
    """sha256 of every file under root, by its relative POSIX path."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_manifest(path, files: dict) -> None:
    lines = [MANIFEST_HEAD, platform_line()]
    lines += [f"{digest}  {rel}" for rel, digest in sorted(files.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> tuple:
    """(platform line, {relative path: sha256}) of a manifest."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    heads = [line for line in lines if line.startswith("# platform:")]
    files = {}
    for line in lines:
        if line and not line.startswith("#"):
            digest, rel = line.split(None, 1)
            files[rel] = digest
    return (heads[0] if heads else None), files

