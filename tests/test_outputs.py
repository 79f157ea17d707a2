"""Byte identity against the committed output digests.

Every command of output_cases runs in-process, and the sha256 of each file
it writes must equal the line of data/outputs.sha256 for that file.  A
change that alters outputs on purpose rewrites the manifest with
``python3 tools/same_outputs.py --write-manifest``.
"""

import importlib.util
from pathlib import Path

import pytest

import output_cases

MANIFEST = Path(__file__).parent / "data" / "outputs.sha256"


def test_outputs_match_the_manifest(tmp_path):
    written_on, expected = output_cases.read_manifest(MANIFEST)
    here = output_cases.platform_line()
    if written_on != here:
        pytest.skip(f"manifest {written_on!r}, this is {here!r}: the output bits rest "
                    f"on numpy's bundled LAPACK and pocketfft")
    failed = output_cases.run_in_process(tmp_path)
    assert not failed, f"commands failed: {failed}"
    got = output_cases.digests(tmp_path / "run")
    problems = [f"{rel}: missing" for rel in sorted(expected.keys() - got.keys())]
    problems += [f"{rel}: extra" for rel in sorted(got.keys() - expected.keys())]
    problems += [f"{rel}: differs" for rel in sorted(expected.keys() & got.keys())
                 if expected[rel] != got[rel]]
    assert not problems, ("output files changed against "
                          f"{MANIFEST.name}:\n" + "\n".join(problems))


def test_same_outputs_counts_lines_as_wc_does(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "same_outputs", Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    (tmp_path / "gswf").mkdir()
    # wc -l counts newlines: an unterminated last line and a .pyc add none
    (tmp_path / "gswf" / "a.py").write_bytes(b"x = 1\n\ny = 2")
    (tmp_path / "gswf" / "b.py").write_bytes(b"\r\n\n")
    (tmp_path / "gswf" / "c.pyc").write_bytes(b"\n\n\n")
    assert same_outputs.line_count(tmp_path) == 4
