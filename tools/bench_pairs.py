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
side, the number of pairs in which the change is better, in the direction
the metric declares, and the verdict (see ``verdict``) with the figures it
rests on.  Failed ops are summed per side.  Only the standard library is
used here; the benchmark itself needs numpy and scipy.
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


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(wins, gain, spread, word) for one metric's paired runs.

    wins counts the pairs in which the change is better, in the direction
    ``better`` ("lower" or "higher"), ties counting for neither; gain is
    the relative change of the medians, positive when the change is
    better; spread is the parent's interquartile range over its median.
    The word is
    ``worse`` when the change's median is worse by more than ``bound``;
    ``unresolved`` when spread exceeds ``bound``, unless every change run
    beats every parent run; ``better`` when the change wins at least nine
    tenths of the pairs and the medians differ by more than the parent's
    interquartile range; else ``within``."""
    sign = 1.0 if better == "higher" else -1.0
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    scale = abs(p_med) or 1.0  # a zero median reads changes as absolute
    gain = sign * (c_med - p_med) / scale
    spread = (q3 - q1) / scale
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_beat = min(sign * c for c in change) > max(sign * p for p in parent)
    if gain < -bound:
        word = "worse"
    elif spread > bound and not all_beat:
        word = "unresolved"
    elif wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        word = "better"
    else:
        word = "within"
    return wins, gain, spread, word


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
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]

    values = {side: {name: [] for name, _, _ in metrics} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            report = run_bench(roots[side], args.workload, seed, args.seconds)
            failed[side] += report["failed"]
            got = {name: report["metrics"][name]["value"] for name, _, _ in metrics}
            for name, value in got.items():
                values[side][name].append(value)
            shown = " ".join(f"{name}={value:.4g}" for name, value in got.items())
            print(f"pair {i + 1} seed {seed} {side}: {shown} failed={report['failed']}",
                  flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs from seed {args.seed}, "
          f"{args.seconds:g} s runs; median [q1, q3]")
    print(f"{'metric':<14} {'parent':>30} {'change':>30}  change better   "
          f"gain  spread  bound  verdict")
    for name, better, bound in metrics:
        cells = []
        for side in SIDES:
            q1, med, q3 = quartiles(values[side][name])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        wins, gain, spread, word = verdict(values["parent"][name], values["change"][name],
                                     better, bound)
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30}  {wins:>3} of {args.pairs:<3}  "
              f"{gain:+6.1%} {spread:6.1%} {bound:6.0%}  {word}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
