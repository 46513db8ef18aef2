"""In-memory span tracer with one parent stack per thread.

A span is a row (id, parent id, name index, thread index, wall start, wall
end, thread-CPU start, thread-CPU end). Rows are appended to a per-thread
float64 buffer when the span closes and are written out once, by ``dump``,
when the traced run ends. Counts are kept per thread too, so pool threads
never race on a shared dict, and are merged on read.

Self time is measured on the thread-CPU clock: a span's CPU duration minus
the CPU durations of its child spans on the same thread. On one thread's
clock the children are disjoint intervals inside the parent's, so this is
the part of the parent's interval they do not cover. Unlike wall time it
leaves out the time a pool thread waits for the GIL. Work is CPU self time
plus the work of all children, on any thread: the CPU seconds a call cost,
wherever they ran.
"""

from __future__ import annotations

import itertools
import json
import threading
from array import array
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

COLUMNS = ("id", "parent", "name", "thread", "t0", "t1", "c0", "c1")
NO_PARENT = -1


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.stack: list = []
        self.spans = array("d")
        self.sums: dict = {}
        self.maxima: dict = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count()
        self.names: list[str] = []
        self.notes: dict = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def open(self, name_id: int, parent: int | None = None) -> int:
        """Start a span; its parent is the innermost open span of this
        thread unless given."""
        state = self._state()
        sid = next(self._ids)
        if parent is None:
            parent = state.stack[-1][0] if state.stack else NO_PARENT
        state.stack.append((sid, parent, name_id, perf_counter(), thread_time()))
        return sid

    def close(self) -> None:
        c1 = thread_time()
        t1 = perf_counter()
        state = self._state()
        sid, parent, name_id, t0, c0 = state.stack.pop()
        state.spans.extend((sid, parent, name_id, state.index, t0, t1, c0, c1))

    def add(self, key: str, value) -> None:
        sums = self._state().sums
        sums[key] = sums.get(key, 0) + value

    def maximum(self, key: str, value) -> None:
        maxima = self._state().maxima
        maxima[key] = max(maxima.get(key, value), value)

    def counts(self) -> dict:
        out: dict = dict(self.notes)
        for state in self._threads:
            for key, v in state.sums.items():
                out[key] = out.get(key, 0) + v
            for key, v in state.maxima.items():
                out[key] = max(out.get(key, v), v)
        return out

    def table(self) -> np.ndarray:
        """Every closed span as one row of COLUMNS."""
        parts = [np.frombuffer(state.spans, dtype=np.float64) for state in self._threads]
        flat = np.concatenate(parts) if parts else np.empty(0)
        return flat.reshape(-1, len(COLUMNS))

    def dump(self, stem: Path) -> None:
        """Write the spans as raw float64 rows to ``<stem>.f64`` and the
        column and name tables to ``<stem>.json``."""
        with open(stem.with_suffix(".f64"), "wb") as fh:
            for state in self._threads:
                state.spans.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps(
            {"columns": COLUMNS, "names": self.names, "counts": self.counts()},
            indent=1), encoding="utf-8")


def self_times(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(CPU self seconds, work seconds) per row; see the module docstring.
    A span whose parent is not in the table counts as a root."""
    n = len(table)
    sid = table[:, 0].astype(np.int64)
    parent = table[:, 1].astype(np.int64)
    thread = table[:, 3]
    cpu = table[:, 7] - table[:, 6]
    row_of = np.full(int(sid.max(initial=-1)) + 2, -1)
    row_of[sid] = np.arange(n)
    prow = np.where(parent >= 0, row_of[np.clip(parent, 0, len(row_of) - 1)], -1)
    child = prow >= 0
    cpu_self = cpu.copy()
    same = child & (thread == thread[np.maximum(prow, 0)])
    np.subtract.at(cpu_self, prow[same], cpu[same])

    depth = np.zeros(n, dtype=np.int64)
    for _ in range(n):
        deeper = np.where(child, depth[np.maximum(prow, 0)] + 1, 0)
        if np.array_equal(deeper, depth):
            break
        depth = deeper
    work = cpu_self.copy()
    for d in range(int(depth.max(initial=0)), 0, -1):
        at = depth == d
        np.add.at(work, prow[at], work[at])
    return cpu_self, work


def aggregate(table: np.ndarray, names: list) -> dict:
    """Per span name: calls, wall and CPU seconds (inclusive), CPU self and
    work, each summed over the name's spans."""
    cpu_self, work = self_times(table)
    idx = table[:, 2].astype(np.int64)
    size = len(names)
    sums = {
        "calls": np.bincount(idx, minlength=size),
        "wall": np.bincount(idx, table[:, 5] - table[:, 4], minlength=size),
        "cpu": np.bincount(idx, table[:, 7] - table[:, 6], minlength=size),
        "cpu_self": np.bincount(idx, cpu_self, minlength=size),
        "work": np.bincount(idx, work, minlength=size),
    }
    return {name: {k: v[i].item() for k, v in sums.items()}
            for i, name in enumerate(names) if sums["calls"][i]}
