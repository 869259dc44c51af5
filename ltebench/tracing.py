"""Spans around ltelab's public functions, recorded from outside the package.

A Tracer replaces a function at every binding a caller can reach it through
(`ltelab.lte.sample_batch` as well as `ltelab.data.sample_batch`), keeps one
span per call in memory (name, start, end, parent) and restores the originals
on `unwrap`. Self time is a span's duration minus the durations of its child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self._span_name: list[int] = []
        self._span_parent: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, qualname: str, name: str) -> None:
        """Trace `module_name.qualname` under `name`. A function is patched in
        every loaded ltelab module that binds it; a method (`Class.attr`) on
        its class. A target that no longer exists is recorded as missing."""
        name_id = len(self.names)
        self.names.append(name)
        owner = sys.modules.get(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrapper(original, name_id)
        if path:
            self._patch(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "ltelab" or mod_name.startswith("ltelab."):
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, fn, name_id: int):
        clock = time.perf_counter
        stack = self._stack
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def take(self) -> dict:
        """Aggregate and drop the spans recorded so far.

        Returns per-name call counts and self seconds, and the summed
        duration of root spans (those with no traced parent)."""
        k = len(self.names)
        name = np.asarray(self._span_name, dtype=np.int64)
        parent = np.asarray(self._span_parent, dtype=np.int64)
        dur = np.asarray(self._span_end) - np.asarray(self._span_start)
        for lst in (self._span_name, self._span_parent, self._span_start, self._span_end):
            lst.clear()
        nested = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[nested], dur[nested])
        return {
            "calls": np.bincount(name, minlength=k),
            "self_s": np.bincount(name, weights=dur - child, minlength=k),
            "root_s": float(dur[~nested].sum()),
        }
