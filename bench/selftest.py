"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the input generator is deterministic for a seed, that the
workload and metric names the benchmark prints match BENCHMARK.json, that a
tiny run of each workload (traced and untraced) passes its output checks,
and that the benchmark refuses to run without the program's sources.
Takes a few minutes: the traced roundtrip pass alone runs four batch ops.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from run import END_TO_END, ROOT, WORKLOADS, per_layer_names

BENCH = Path(__file__).resolve().parent


def _same(a: list, b: list) -> bool:
    return all(np.array_equal(getattr(x, f), getattr(y, f))
               for x, y in zip(a, b) for f in ("samples", "f0", "pulses", "voiced"))


def check_generator() -> None:
    for make in (lambda s: inputs.mix(s, 4, (0.5, 1.0)),
                 lambda s: inputs.sweeps(s, 2, (1.0, 1.5))):
        assert _same(make(5), make(5)), "same seed gave different inputs"
        assert not _same(make(5), make(6)), "different seeds gave the same inputs"
    assert _same([inputs.warmup()], [inputs.warmup()])
    u = inputs.mix(5, 1, (1.0, 1.0))[0]
    assert np.array_equal(u.samples, np.round(u.samples * 32768) / 32768), "not PCM16"
    assert len(u.pulses) and u.voiced[u.pulses].all(), "pulses outside voiced spans"


def check_names(spec: dict) -> None:
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_names()


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_tiny_runs(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (workload, trace, sorted(set(got) ^ set(wanted[trace])))
            print(f"ok  {workload} trace {trace}: {result['attempted']} ops")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("analyze_mix", 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_generator()
    print("ok  generator is deterministic per seed")
    check_names(spec)
    print("ok  workload and metric names match BENCHMARK.json")
    check_refuses_without_sources()
    print("ok  refuses to run without the sources")
    check_tiny_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
