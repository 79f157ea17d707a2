"""Check that gswf writes the same output files as another tree or as
the committed manifest.

    python3 tools/same_outputs.py BASE_SRC [--keep DIR]
    python3 tools/same_outputs.py --write-manifest

The inputs and commands are those of ``tests/output_cases.py``.  With
BASE_SRC, the ``src`` directory of another checkout (for example of the
parent commit unpacked with ``git archive``), the script writes the inputs,
then runs every command once with this tree's ``src`` and once with
BASE_SRC on PYTHONPATH, each in a fresh process.  It prints each output
file that differs (or exists on one side only) and each command that fails
on either side, and exits 1 if there is any, else 0.  A differing PCM16 wav
is quantified by the number of samples that differ and the largest
difference in LSB; a differing text file (reports, tracks) by the lines
that differ.  It also prints the line count of ``gswf/*.py`` in each tree,
counted as ``wc -l`` counts them, and the difference.  This mode uses only
the standard library; the commands need numpy.

``--write-manifest`` runs the commands in-process with this tree's ``src``
and rewrites ``tests/data/outputs.sha256``, the digests that
``tests/test_outputs.py`` checks.  A change that alters outputs on purpose
commits the new manifest; its diff lists the changed files.
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
sys.path.insert(0, str(ROOT / "tests"))

import output_cases  # noqa: E402  (tests/ is on the path only from here)

MAX_LINES = 16  # differing text lines printed per file
MANIFEST = ROOT / "tests" / "data" / "outputs.sha256"


def run_tree(src: Path, inputs: Path, out_dir: Path) -> list:
    """Run every command with `src` first on PYTHONPATH; returns the
    (label, exit code) of each in command order."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    runs = [(output_cases.label(argv, inputs), [sys.executable, "-m", "gswf.cli", *argv])
            for argv in output_cases.cli_argvs(inputs)]
    runs.append(("synthesize*(..., positions='f0')",
                 [sys.executable, "-c", "import sys, output_cases; "
                  "output_cases.synthesize_f0(sys.argv[1:])", *output_cases.F0_FEATURES]))
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


def line_count(src: Path) -> int:
    """The newlines in src/gswf/*.py, the total `wc -l` prints for them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "gswf").glob("*.py"))


def write_manifest() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        failed = output_cases.run_in_process(tmp)
        for label, code in failed:
            print(f"{label}: exit {code}")
        if failed:
            print("manifest not written")
            return 1
        files = output_cases.digests(Path(tmp) / "run")
    output_cases.write_manifest(MANIFEST, files)
    print(f"{len(files)} output files: {MANIFEST.relative_to(ROOT)} written")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path, nargs="?",
                        help="src directory of the other tree")
    parser.add_argument("--keep", type=Path, help="write the outputs here and keep them")
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"rewrite {MANIFEST.relative_to(ROOT)} from this tree")
    args = parser.parse_args(argv)
    if args.write_manifest:
        if args.base_src or args.keep:
            parser.error("--write-manifest takes no BASE_SRC or --keep")
        return write_manifest()
    if args.base_src is None:
        parser.error("BASE_SRC or --write-manifest is required")
    base = args.base_src.resolve()
    if not (base / "gswf" / "cli.py").is_file():
        parser.error(f"{base} holds no gswf package")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep.resolve() if args.keep else Path(tmp)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                            str(ROOT / "tests")]))
        subprocess.run([sys.executable, "-c", "import sys, output_cases; "
                        "output_cases.write_inputs(sys.argv[1])", str(inputs)],
                       env=env, check=True)
        codes_here = run_tree(ROOT / "src", inputs, work / "here")
        codes_base = run_tree(base, inputs, work / "base")
        # a command that fails on both sides leaves nothing to compare
        problems = [f"{cmd}: exit {x} here, {y} in BASE_SRC"
                    for (cmd, x), (_, y) in zip(codes_here, codes_base) if x or y]
        problems += differing(work / "here", work / "base")
        n_files = sum(1 for p in (work / "here").rglob("*") if p.is_file())
    for line in problems:
        print(line)
    here, there = line_count(ROOT / "src"), line_count(base)
    print(f"gswf/*.py: {here} lines here, {there} in BASE_SRC ({here - there:+d})")
    print(f"{n_files} output files from {len(codes_here)} commands: "
          f"{'identical' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
