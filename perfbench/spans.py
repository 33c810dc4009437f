"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the tracer replaces module-level
functions with timing wrappers, in the namespace of the module that looks the
name up (``pdnet.nsga2.batch_evaluate``, not ``pdnet.network.batch_evaluate``),
and restores the originals afterwards.  Each span keeps its name, start, end
and parent; a layer's self time is its duration minus that of its children.
A counter hook that fails, say because the wrapped function's signature
changed, leaves the call alone and marks the span as degraded.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.missing = []  # "module.attr" names that could not be wrapped
        self.degraded = defaultdict(int)  # span name -> calls whose counter hook failed
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record a span around a call the benchmark itself makes."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr, name, on_return=None):
        """Replace ``module.attr`` by a wrapper that records a span named ``name``.

        ``on_return(counters, arguments, result)`` may add counts measured at
        the boundary; ``arguments`` maps parameter names to the call's values.
        A name that no longer exists is recorded as missing.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_return is not None:
                try:
                    on_return(self.counters, signature.bind(*args, **kwargs).arguments, result)
                except Exception:  # the program changed under the hook; the call stands
                    self.degraded[name] += 1
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def summary(self, root):
        """Per name: calls, inclusive seconds, self seconds, and self seconds inside ``root`` spans.

        Also returns the total inclusive time of the ``root`` spans, which the
        ``in_root`` self times sum to.
        """
        child_time = [0.0] * len(self.spans)
        in_root = [False] * len(self.spans)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            in_root[idx] = name == root or (parent >= 0 and in_root[parent])
        stats = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "self_in_root": 0.0})
        root_total = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            s = stats[name]
            dur = end - start
            s["calls"] += 1
            s["incl"] += dur
            s["self"] += dur - child_time[idx]
            if in_root[idx]:
                s["self_in_root"] += dur - child_time[idx]
            if name == root and not (parent >= 0 and in_root[parent]):
                root_total += dur
        return dict(stats), root_total

    def child_calls(self, name, parent_name):
        """(calls, inclusive seconds) of ``name`` spans whose parent is not ``parent_name``."""
        calls, incl = 0, 0.0
        for name_, start, end, parent in self.spans:
            if name_ == name and (parent < 0 or self.spans[parent][_NAME] != parent_name):
                calls += 1
                incl += end - start
        return calls, incl
