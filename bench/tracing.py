"""In-memory spans around the calls into gswf's public functions.

The tracer replaces each traced function at every gswf module attribute
that refers to it (``gswf.dsp.lpc_to_lsp`` and ``gswf.analysis.lpc_to_lsp``
are one function reached through two names), so callers that resolve the
name at call time go through the wrapper.  Spans are plain tuples kept in a
list and written out once the run ends.

Parents come from a per-thread stack.  A span that starts on a worker
thread with an empty stack is a batch job's span, and its parent is the
op's root span (the ``cli.run`` call on the main thread); ops run one at a
time, so the current root is a single value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent op job cpu")

# metric prefix -> (module, public functions timed as self time)
LAYERS = {
    "gci": ("gswf.gci", ("detect_gci", "mean_based_signal", "select_candidates",
                         "viterbi_select")),
    "analysis": ("gswf.analysis", ("analyze", "extract_segments",
                                   "segment_to_features")),
    "dsp": ("gswf.dsp", ("lpc_to_lsp", "lpc_from_autocorr", "analyze_spectrum",
                         "lpc_residual", "lsp_to_lpc", "lpc_envelope",
                         "mel_filterbank", "mel_cepstrum")),
    "synthesis": ("gswf.synthesis", ("synthesize", "synthesize_min_phase",
                                     "features_to_segment", "min_phase_segment",
                                     "overlap_add", "window_envelope")),
    "metrics": ("gswf.metrics", ("evaluate", "align_gci")),
    "featfile": ("gswf.featfile", ("write_features", "read_features")),
    "signal_io": ("gswf.signal_io", ("read_wav", "write_wav", "read_f0_ref")),
    "cli": ("gswf.cli", ("run",)),
}
# one batch job of `roundtrip --list`; its span carries the job id and the
# worker thread's CPU time, which is what the pool-efficiency metric needs
JOB = ("gswf.cli", "_roundtrip_one", "cli.job")


class Tracer:
    def __init__(self):
        self.spans = []
        self.tally = Counter()  # span name -> sum of tally(args, result)
        self._tally_lock = threading.Lock()
        self.op = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, tally=None, job: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent, job_id = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent, job_id = None, None
                self._root = sid
            else:
                parent, job_id = self._root, None
            if job:
                job_id = str(args[0])
            stack.append((sid, job_id))
            cpu0 = time.thread_time() if job else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0 if job else 0.0
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op, job_id, cpu))
            if tally is not None:
                amount = tally(args, result)
                with self._tally_lock:
                    self.tally[name] += amount
            return result
        return traced

    def install(self, tallies=None) -> list:
        """Wrap every traced function; tallies maps a span name to a
        function of (args, result) whose values are summed per name.
        Returns the names that do not exist in this version of gswf
        (reported, not fatal)."""
        tallies = tallies or {}
        targets = [(module, fn, f"{prefix}.{fn}", False)
                   for prefix, (module, fns) in LAYERS.items() for fn in fns]
        targets.append((JOB[0], JOB[1], JOB[2], True))
        missing = []
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "gswf" or name.startswith("gswf."))]
        for module, fn_name, span_name, job in targets:
            original = getattr(importlib.import_module(module), fn_name, None)
            if original is None:
                missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original, tallies.get(span_name), job)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanStats:
    """Self and inclusive time per span name, plus the same restricted to
    spans below a given ancestor."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        self.self_s = {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end)
                       for s in spans}

    def self_time(self, under: str | None = None) -> Counter:
        out = Counter()
        for s in self.spans:
            if under is None or self._has_ancestor(s, under):
                out[s.name] += self.self_s[s.sid]
        return out

    def inclusive(self) -> Counter:
        out = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def _has_ancestor(self, s, name: str) -> bool:
        parent = self.by_id.get(s.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def pool_efficiency(self, jobs: int) -> float | None:
        """Worker CPU time over (batch wall x jobs), summed over ops; the
        batch wall runs from the first job start to the last job end."""
        per_op = defaultdict(list)
        for s in self.spans:
            if s.name == JOB[2]:
                per_op[s.op].append(s)
        if not per_op:
            return None
        busy = sum(s.cpu for group in per_op.values() for s in group)
        wall = sum(max(s.end for s in g) - min(s.start for s in g) for g in per_op.values())
        return busy / (wall * jobs)
