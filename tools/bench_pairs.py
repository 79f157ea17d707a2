"""Benchmark two gswf checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --seed S --pairs N --seconds T

PARENT_ROOT and CHANGE_ROOT are the roots of two source checkouts, for
example the parent commit unpacked with ``git archive`` and this tree.
Pair i runs ``bench/run.py --workload W --seed S+i --seconds T --trace 0``
once in each checkout, with that checkout's own ``bench/`` and ``src/``,
and reads the report it leaves in ``.bench_out/W-seed<S+i>-trace0.json``.
The side that runs first alternates from pair to pair (the parent first in
even pairs), so a slow spell of the host does not fall on one side only.

It prints one line per run, then for every end-to-end metric that
CHANGE_ROOT's ``BENCHMARK.json`` declares: the median and quartiles of each
side and the number of pairs in which the change is better, in the
direction the metric declares.  Failed ops are summed per side.  Only the
standard library is used here; the benchmark itself needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout; returns its report."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} failed in {root} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    report = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(report.read_text(encoding="utf-8"))


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    values = {side: {name: [] for name, _ in metrics} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            report = run_bench(roots[side], args.workload, seed, args.seconds)
            failed[side] += report["failed"]
            got = {name: report["metrics"][name]["value"] for name, _ in metrics}
            for name, value in got.items():
                values[side][name].append(value)
            shown = " ".join(f"{name}={value:.4g}" for name, value in got.items())
            print(f"pair {i + 1} seed {seed} {side}: {shown} failed={report['failed']}",
                  flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs from seed {args.seed}, "
          f"{args.seconds:g} s runs; median [q1, q3]")
    print(f"{'metric':<14} {'parent':>30} {'change':>30}  change better")
    for name, better in metrics:
        cells = []
        for side in SIDES:
            q1, med, q3 = quartiles(values[side][name])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        pairs = zip(values["parent"][name], values["change"][name])
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30}  {wins} of {args.pairs}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
