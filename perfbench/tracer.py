"""In-memory spans and kernel counters, installed by wrapping functions.

A traced function is replaced, at every module or class attribute where
its callers look it up, by a wrapper that times the call.  Two kinds of
wrapper exist:

* a *span* keeps one record per call: name, start, end, parent span,
  self time and an optional tag computed from the arguments;
* a *kernel* (a function called once or more per simulated round) keeps
  only a call count, an inclusive time total and a self time total per
  name, because a run makes 1e5-1e6 such calls.

Self time is a call's duration minus the durations of the traced calls
it made.  Each thread keeps its own stack and records, so the two pool
threads of a parallel grid never update the same counter.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the same thread's span list
    self_s: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _ThreadRecords:
    spans: list = field(default_factory=list)
    kernels: dict = field(default_factory=dict)  # name -> [calls, total_s, self_s]
    # open calls: [time taken by traced children so far, span index or None]
    stack: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._installed = []  # (owner, attribute, original raw attribute)
        self.reset()

    def reset(self) -> None:
        """Drop every record made so far; wrappers stay installed."""
        with self._lock:
            self._local = threading.local()
            self._threads: list[_ThreadRecords] = []

    def _records(self) -> _ThreadRecords:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecords()
            with self._lock:
                self._threads.append(rec)
            self._local.rec = rec
        return rec

    def _kernel_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._records()
            stack = rec.stack
            stack.append([0.0, None])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += dt
                k = rec.kernels.get(name)
                if k is None:
                    k = rec.kernels[name] = [0, 0.0, 0.0]
                k[0] += 1
                k[1] += dt
                k[2] += dt - children

        return wrapper

    def _span_wrapper(self, fn, name, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._records()
            stack = rec.stack
            label = None
            if tag is not None:
                try:
                    label = tag(*args, **kwargs)
                except (TypeError, AttributeError):  # the traced signature changed
                    pass
            parent = stack[-1][1] if stack else None
            index = len(rec.spans)
            rec.spans.append(None)  # reserve the slot so children can name it
            stack.append([0.0, index])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += t1 - t0
                rec.spans[index] = Span(name, t0, t1, parent, t1 - t0 - children, label)

        return wrapper

    def wrap(self, owner, attribute: str, name: str, kernel: bool = False, tag=None) -> None:
        """Replace ``owner.attribute`` (a module or class attribute) by a timed wrapper."""
        raw = vars(owner)[attribute]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = self._kernel_wrapper(fn, name) if kernel else self._span_wrapper(fn, name, tag)
        setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
        self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back; the records stay readable."""
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed.clear()

    def spans(self, name: str) -> list[Span]:
        with self._lock:
            threads = list(self._threads)
        return [s for rec in threads for s in rec.spans if s is not None and s.name == name]

    def kernel(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) summed over threads."""
        with self._lock:
            threads = list(self._threads)
        calls, total, own = 0, 0.0, 0.0
        for rec in threads:
            k = rec.kernels.get(name)
            if k is not None:
                calls += k[0]
                total += k[1]
                own += k[2]
        return calls, total, own
