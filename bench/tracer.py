"""In-memory span tracing around calls into the fslat modules.

The tracer never edits the package: `Tracer.instrument` swaps module (and
class) attributes for timing wrappers and puts the originals back on exit.
A wrapper is installed in every fslat module that holds a reference to the
same function object, so a call from `engine` into `lexicon.lookup` is
timed as well as a call from the benchmark itself.  Spans are kept in a
list and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# Span record fields, in order.
SPAN_FIELDS = ("id", "parent", "root", "name", "start", "end", "label")


class Tracer:
    """Collects spans (id, parent, root, name, start, end, label).

    Not thread-safe: parents come from one call stack, so instrumentation
    must be removed before code that calls into fslat from several threads.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, label=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent][2] if parent is not None else index
        record = [index, parent, root, name, time.perf_counter(), None, label]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, label=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, label(*args) if label else None):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, modules, functions, methods=()):
        """Trace every call to `functions` ((module, attr, span, label) tuples)
        from any of `modules`, and to `methods` ((class, attr, span) tuples),
        for the duration of the block."""
        undo = []
        try:
            for module, attr, name, label in functions:
                original = getattr(module, attr)
                traced = self.wrap(original, name, label)
                for holder in modules:
                    if getattr(holder, attr, None) is original:
                        undo.append((holder, attr, original))
                        setattr(holder, attr, traced)
            for cls, attr, name in methods:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(raw.__func__, name))
                else:
                    traced = self.wrap(raw, name)
                undo.append((cls, attr, raw))
                setattr(cls, attr, traced)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def write(self, path):
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")


def duration(record):
    return record[5] - record[4]


def totals_by_root(spans, root_name, names, first=0):
    """For spans[first:] under a root span called `root_name`, sum durations
    per (root id, span name) for the given names; returns
    {root id: {name: seconds}} with an entry for every such root."""
    out = {}
    for record in spans[first:]:
        if spans[record[2]][3] != root_name:
            continue
        if record[2] == record[0]:
            out.setdefault(record[0], {})
        elif record[3] in names:
            per_root = out.setdefault(record[2], {})
            per_root[record[3]] = per_root.get(record[3], 0.0) + duration(record)
    return out


def self_times(spans):
    """Total self time per span name: duration minus that of direct children."""
    child = [0.0] * len(spans)
    for record in spans:
        if record[1] is not None:
            child[record[1]] += duration(record)
    out = {}
    for record in spans:
        out[record[3]] = out.get(record[3], 0.0) + duration(record) - child[record[0]]
    return out
