"""In-memory span recorder that times calls into lbi's modules from outside.

Every cross-module call in lbi goes through a module-attribute lookup
(``engine.run`` calls ``lbi_iteration`` from its module globals, ``engine``
calls ``model.grad_arrays``, ``gradcheck`` calls ``engine.pretrain_step``),
so replacing a module attribute with a timing wrapper records that call
without touching the package's source.  A span is (name, start, end,
parent); spans are kept in flat arrays while the run goes and written out
once it ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.result_bytes = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, count_bytes: bool = False):
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        With ``count_bytes`` the span also records the total ``nbytes`` of the
        arrays the call returned (computed from array sizes, not measured).
        """
        if not hasattr(owner, attr):
            if name not in self.missing:
                self.missing.append(name)
            return
        orig = getattr(owner, attr)
        nid = self._id(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.result_bytes.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count_bytes:
                parts = out if isinstance(out, tuple) else (out,)
                self.result_bytes[idx] = float(
                    sum(getattr(p, "nbytes", 0) for p in parts))
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def unwrap(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def mark(self) -> int:
        """Index of the next span, for selecting the spans of one phase."""
        return len(self.start)

    def table(self, lo: int = 0) -> "SpanTable":
        """Aggregates over the spans from index ``lo`` on."""
        def col(buf, dtype):
            return np.frombuffer(buf, dtype=dtype)[lo:].copy()

        return SpanTable(self.names, col(self.name_id, np.int32),
                         col(self.parent, np.int32) - lo,
                         col(self.start, np.float64), col(self.end, np.float64),
                         col(self.result_bytes, np.float64))

    def save(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            result_bytes=np.frombuffer(self.result_bytes, dtype=np.float64),
        )


class SpanTable:
    """Aggregates over a contiguous slice of spans (one phase of a run).

    Parents always precede their children, so a slice that starts at a
    top-level span holds every parent it refers to; parent indices below 0
    mean "no parent inside this slice".
    """

    def __init__(self, names, name_id, parent, start, end, result_bytes):
        self.names = names
        self.name_id = name_id
        self.parent = np.where(parent < 0, -1, parent)
        self.dur = end - start
        self.result_bytes = result_bytes
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def select(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.select(name).sum())

    def busy(self, name: str) -> float:
        return float(self.dur[self.select(name)].sum())

    def self_busy(self, name: str) -> float:
        return float(self.self_time[self.select(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.select(name)]

    def total_bytes(self, name: str) -> float:
        return float(self.result_bytes[self.select(name)].sum())

    def parent_is(self, name: str, parent_name: str) -> np.ndarray:
        sel = self.select(name)
        par = self.select(parent_name)
        out = np.zeros(len(self.dur), dtype=bool)
        idx = np.nonzero(sel & (self.parent >= 0))[0]
        out[idx] = par[self.parent[idx]]
        return out

    def inside(self, ancestor_names) -> np.ndarray:
        """Spans that have a span named in ``ancestor_names`` above them."""
        reach = np.zeros(len(self.dur), dtype=bool)  # named span or below one
        for name in ancestor_names:
            reach |= self.select(name)
        has_parent = self.parent >= 0
        # Each step reaches one call level deeper; lbi's call depth is small.
        for _ in range(64):
            nxt = reach.copy()
            nxt[has_parent] |= reach[self.parent[has_parent]]
            if (nxt == reach).all():
                break
            reach = nxt
        below = np.zeros_like(reach)
        below[has_parent] = reach[self.parent[has_parent]]
        return below
