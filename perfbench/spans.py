"""Host-time span recorder for the benchmark's traced run.

A span is one call into a layer entry point: name, start, end (both
``perf_counter_ns``), parent span and run id.  Spans live in
per-process ``array`` buffers and are written out only when the
process ends; a layer's self time is its span's duration minus the
durations of its direct children, so nested and re-entrant calls
(``Runtime.send`` inside an entry method inside ``PE._iterate`` inside
``Simulator.run``) are never counted twice.

The wrappers are installed from outside the package (see
:mod:`layers`), so the program under test is unchanged; the untraced
run installs none of them.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np


class SpanRecorder:
    """Append-only span buffers for one process: 28 bytes a span, so the
    ~1M spans of one full-scale stencil run take ~28 MB.

    The buffers are cleared in place (never rebound) so the closures
    built by :meth:`wrap` keep pointing at the live arrays, including
    in a forked worker after :meth:`reset`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")    # name id per span
        self.parent = array("i")     # parent span index, -1 at top level
        self.run_of = array("i")     # run id per span
        self.start = array("q")      # perf_counter_ns
        self.end = array("q")        # perf_counter_ns; 0 while open
        self.stack: List[int] = [-1]
        self.run = [0]               # current run id (mutable cell)
        self.proc = 0                # 0 = the benchmark's own process

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def reset(self, proc: int) -> None:
        """Drop every span recorded so far (a forked worker's inherited
        pre-fork buffer) and start recording as process ``proc``."""
        for buf in (self.name_of, self.parent, self.run_of, self.start, self.end):
            del buf[:]
        del self.stack[:]
        self.stack.append(-1)
        self.proc = proc

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name)
        name_of, parent, run_of = self.name_of, self.parent, self.run_of
        start, end, stack, run = self.start, self.end, self.stack, self.run
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            run_of.append(run[0])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def snapshot(self) -> dict:
        """The buffers as plain bytes; spans still open end now."""
        end = array("q", self.end)
        now = time.perf_counter_ns()
        for i in self.stack[1:]:
            end[i] = now
        return {
            "proc": self.proc,
            "names": list(self.names),
            "name_of": self.name_of.tobytes(),
            "parent": self.parent.tobytes(),
            "run_of": self.run_of.tobytes(),
            "start": self.start.tobytes(),
            "end": end.tobytes(),
        }

    def flush(self, directory: str) -> str:
        """Write this process's spans to ``directory``; returns the path."""
        path = os.path.join(directory, f"spans-{self.proc}-{os.getpid()}.pkl")
        with open(path, "wb") as f:
            pickle.dump(self.snapshot(), f, pickle.HIGHEST_PROTOCOL)
        return path


class Spans:
    """Decoded spans of one process, with self times."""

    def __init__(self, snap: dict) -> None:
        self.proc = snap["proc"]
        self.names = snap["names"]
        self.name_of = np.frombuffer(snap["name_of"], dtype=np.int32)
        self.parent = np.frombuffer(snap["parent"], dtype=np.int32)
        self.run_of = np.frombuffer(snap["run_of"], dtype=np.int32)
        self.start = np.frombuffer(snap["start"], dtype=np.int64)
        self.end = np.frombuffer(snap["end"], dtype=np.int64)
        n = len(self.start)
        dur = (self.end - self.start).astype(np.float64)
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                               minlength=n)
        self.duration = dur
        self.self_time = dur - children

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)``."""
        k = len(self.names)
        calls = np.bincount(self.name_of, minlength=k)
        self_ns = np.bincount(self.name_of, weights=self.self_time, minlength=k)
        return {name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, name in enumerate(self.names) if calls[i]}

    def self_seconds(self, t0_ns: int, t1_ns: int,
                     names: Optional[Iterable[str]] = None) -> float:
        """Summed self time of the spans inside ``[t0_ns, t1_ns]``,
        only those called one of ``names`` if given.  Over every name
        this is the time covered by top-level spans, because children
        nest inside their parents."""
        sel = (self.start >= t0_ns) & (self.end <= t1_ns)
        if names is not None:
            wanted = set(names)
            ids = [i for i, n in enumerate(self.names) if n in wanted]
            sel &= np.isin(self.name_of, ids)
        return float(self.self_time[sel].sum()) * 1e-9

    def starts_of(self, name: str) -> np.ndarray:
        """Start times (ns) of every span called ``name``, in order."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.sort(self.start[self.name_of == self.names.index(name)])


def load_dir(directory: str) -> List[Spans]:
    """Every process's spans flushed into ``directory``."""
    out = []
    for fn in sorted(os.listdir(directory)):
        if fn.startswith("spans-") and fn.endswith(".pkl"):
            with open(os.path.join(directory, fn), "rb") as f:
                out.append(Spans(pickle.load(f)))
    return out


def merge_totals(procs: Iterable[Spans]) -> Dict[str, Tuple[int, float]]:
    """Sum ``name -> (calls, self seconds)`` over processes (shard
    workers included)."""
    out: Dict[str, Tuple[int, float]] = {}
    for sp in procs:
        for name, (calls, secs) in sp.totals().items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + secs)
    return out


def percentile(values, q: float) -> float:
    """``q``-th percentile (0-100) by linear interpolation; 0 when empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def main_process(procs: Iterable[Spans]) -> Optional[Spans]:
    for sp in procs:
        if sp.proc == 0:
            return sp
    return None
