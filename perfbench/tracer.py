"""Call tracing for the traced benchmark run.

A Tracer replaces functions and methods with timing wrappers and puts the
originals back on `restore()`.  Two kinds of wrapper exist:

* spans sit at coarse layer boundaries.  A span's self time is its duration
  minus the time its child spans cover, so the leaf calls made under a span
  count towards the span's self time.
* leaves are the high-frequency calls (kernel, operators).  They are not
  recorded one by one; they are aggregated as counters under their nearest
  enclosing span.  A leaf's self time excludes every wrapped call nested
  inside it.

Statistics are aggregated online, keyed by (parent span name, name), as
[calls, total seconds, self seconds].  Calls made outside every span are
keyed under ROOT.
"""

from __future__ import annotations

import functools
import gc
import time

ROOT = "<root>"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # time covered by wrapped calls nested directly in each open call
        self._nested = [0.0]
        # open spans as [name, time covered by child spans]
        self._spans = [[ROOT, 0.0]]
        self._patches = []
        self._gc_start = None
        self.stats: dict[tuple[str, str], list] = {}
        self.extra: dict[str, float] = {}
        self.gc_s = 0.0
        self.gc_collections = 0

    # -- wrappers ---------------------------------------------------------

    def _record(self, key, dur, self_time):
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += self_time

    def leaf(self, fn, name, tally=None):
        """Wrap fn as a leaf; tally(extra, args, result) may add counters."""
        clock, nested, spans, record = self._clock, self._nested, self._spans, self._record
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = nested.pop()
                nested[-1] += dur
                record((spans[-1][0], name), dur, dur - inner)
            if tally is not None:
                tally(extra, args, result)
            return result

        return wrapper

    def span(self, fn, name, name_of=None):
        """Wrap fn as a span; name_of(args) may pick the name per call."""
        clock, nested, spans, record = self._clock, self._nested, self._spans, self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(args)
            nested.append(0.0)
            spans.append([label, 0.0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                nested.pop()
                nested[-1] += dur
                child = spans.pop()[1]
                spans[-1][1] += dur
                record((spans[-1][0], label), dur, dur - child)

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        """Bind owner.attr (a module or class attribute) to wrapper."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def start_gc_clock(self):
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = self._clock()
        elif self._gc_start is not None:
            self.gc_s += self._clock() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def restore(self):
        """Put back every patched attribute and stop the GC clock."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- results ---------------------------------------------------------------

    def totals(self, name, parent=None):
        """(calls, total_s, self_s) of one name, under one parent or all."""
        calls = total = own = 0
        for (par, nm), (c, t, s) in self.stats.items():
            if nm == name and (parent is None or par == parent):
                calls += c
                total += t
                own += s
        return calls, total, own
