"""Per-layer timing for the traced run.

:class:`LayerTracer` replaces a layer's public entry points with
timing wrappers, from the benchmark's side: the program itself is not
changed.  Each call into a wrapped function is a span.  A span's self
time is its duration minus the time of the spans nested in it, so the
self times of all spans under a root span, plus the root's own self
time (:data:`ROOT`, reported as ``unattributed_s``), add up to the
root's wall time exactly.

A call made while a span of the same name is open (a BatchScanner
that scans through a Scanner) adds to that span's self time only, so
calls, items and total time count each entry into a layer once.

Only calls made inside a root span, on the thread that created the
tracer, are timed; the RPC
client's event-loop thread runs concurrently with the caller, so its
time is already inside the caller's spans.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: name of the root span wrapped around each measured operation
ROOT = "op"


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    durations: List[float] = field(default_factory=list)


class LayerTracer:
    """Span accounting over wrapped functions; see the module doc."""

    def __init__(self, keep_durations: Tuple[str, ...] = ()):
        self.stats: Dict[str, SpanStat] = {}
        self._keep = set(keep_durations)
        self._stack: List[float] = []      # child time of each open span
        self._depth: Dict[str, int] = {}   # open spans per name
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        self.clock = time.perf_counter

    # -- span accounting ----------------------------------------------------

    def _open(self, name: str) -> Optional[float]:
        if threading.get_ident() != self._thread:
            return None
        if not self._stack and name != ROOT:
            return None  # outside any measured operation
        self._stack.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        return self.clock()

    def _close(self, name: str, start: Optional[float],
               items: int = 0) -> None:
        if start is None:
            return
        duration = self.clock() - start
        self._depth[name] -= 1
        self.record(name, duration, self._stack.pop(), items,
                    outermost=self._depth[name] == 0)

    def record(self, name: str, duration: float, child_s: float,
               items: int = 0, outermost: bool = True) -> None:
        """Account one finished span of ``duration`` seconds of which
        ``child_s`` was spent in nested spans; ``outermost`` is false
        when a span of the same name encloses it."""
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat()
        st.self_s += duration - child_s
        if outermost:
            st.calls += 1
            st.total_s += duration
            st.items += items
            if name in self._keep:
                st.durations.append(duration)
        if self._stack:
            self._stack[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self._open(name)
        try:
            yield
        finally:
            self._close(name, start)

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call timed as span ``name``."""
        def wrapper(*args, **kwargs):
            start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, fn: Callable, name: str,
                   count: Callable[[object], int]) -> Callable:
        """``fn`` returning an iterable: the call and every step of the
        iteration are spans ``name``; ``count(item)`` items are added
        per step (cells per batch, or 1 per cell)."""
        def wrapper(*args, **kwargs):
            start = self._open(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._close(name, start)
            return self._steps(it, name, count)
        wrapper.__wrapped__ = fn
        return wrapper

    def _steps(self, it, name, count):
        while True:
            start = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                self._close(name, start)
                return
            except BaseException:
                self._close(name, start)
                raise
            self._close(name, start, count(item))
            yield item

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` in every loaded module that bound the
        same function object (``from x import f`` copies the binding)."""
        original = getattr(module, attr)
        wrapper = self.timed(original, name)
        for mod in list(sys.modules.values()):
            for key, val in list(getattr(mod, "__dict__", {}).items()):
                if val is original:
                    self.patch(mod, key, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def get(self, name: str) -> SpanStat:
        return self.stats.get(name, SpanStat())

    def self_by_layer(self, layer_of: Callable[[str], str]) -> Dict[str, float]:
        """Self time summed per layer (``layer_of(span name)``)."""
        out: Dict[str, float] = {}
        for name, st in self.stats.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + st.self_s
        return out
