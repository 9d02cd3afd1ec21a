"""In-memory span tracer that wraps the public functions of the rclift package.

`Tracer.installed()` replaces every public module-level function of every
loaded ``rclift.*`` module by a timing wrapper.  Each binding of that
function is replaced, including ``from .x import y`` copies in sibling
modules and functions held in module-level tuples (``suite.CRITERIA``), so
a call from one layer into another is seen as a nested span.  The public
``numpy.linalg`` entry points that rclift calls are wrapped by a plain
counter: calls made inside numpy itself do not go through those names and
are not counted.  Everything is restored when the context exits.

Spans stay in memory (parallel arrays: name, parent span, start, end) and
are written once, by `write_spans`, after the measured work.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

NUMPY_COUNTED = ("svd", "inv", "eigh", "solve", "eigvals")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.numpy_calls: Counter = Counter()
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]

    def _wrap(self, name: str, fn):
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            frame = [span, 0.0]
            self.span_name.append(idx)
            self.span_parent.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.span_end[span] = t1
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]

        return wrapper

    def _count(self, name: str, fn):
        counter = self.numpy_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap rclift's public functions and numpy.linalg's counted entries."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("rclift.") and m is not None]
        wrappers = {}
        for m in modules:
            short = m.__name__.split(".", 1)[1]
            for attr, obj in vars(m).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == m.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)

        def swap(obj):
            if isinstance(obj, types.FunctionType):
                return wrappers.get(obj, obj)
            if isinstance(obj, tuple) and any(
                    isinstance(o, types.FunctionType) and o in wrappers for o in obj):
                return tuple(swap(o) for o in obj)
            return obj

        restore = []
        for m in modules:
            for attr, obj in list(vars(m).items()):
                new = swap(obj)
                if new is not obj:
                    restore.append((m, attr, obj))
                    setattr(m, attr, new)
        for fn in NUMPY_COUNTED:
            orig = getattr(np.linalg, fn)
            restore.append((np.linalg, fn, orig))
            setattr(np.linalg, fn, self._count(f"numpy.linalg.{fn}", orig))
        try:
            yield self
        finally:
            for m, attr, obj in reversed(restore):
                setattr(m, attr, obj)

    def call_counts(self) -> dict[str, int]:
        """Every exact count the tracer holds: wrapped functions and numpy."""
        return {**self.calls, **self.numpy_calls}

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
