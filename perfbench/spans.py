"""In-memory span recorder that wraps the package's public functions from
outside.

A span is (id, parent, name, start, end), times from ``time.perf_counter``.
Spans nest by call stack, so a span's self time is its duration minus the
durations of its direct children. Wrapping is installed by replacing module
attributes for the duration of one traced pass and restored afterwards; a
name that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name):
        """Return fn wrapped in a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, fn, name):
        """Return fn wrapped in a call counter (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add_span(self, name, start, end):
        """Record a span measured elsewhere (the benchmark plant's rounds)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([len(self.spans), parent, name, start, end])

    @contextlib.contextmanager
    def span(self, name):
        """Record the block as a span called name, child of the open span."""
        start = _clock()
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                start, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        finally:
            self._stack.pop()
            span[4] = _clock()

    @contextlib.contextmanager
    def installed(self, targets, package):
        """Wrap every (dotted path, name, kind) target for the block.

        kind is "span" or "count". A module-level function is replaced in
        every loaded module of `package` that holds it, so calls through
        re-exports are wrapped too; a method is replaced on its class. The
        context value lists the names whose path no longer resolves.
        """
        absent = []
        saved = []
        try:
            for path, name, kind in targets:
                owner, attr = _resolve(path)
                if owner is None:
                    absent.append(name)
                    continue
                original = getattr(owner, attr)
                wrapped = (self.wrap if kind == "span" else self.count)(original, name)
                holders = [(owner, attr)]
                if isinstance(owner, types.ModuleType):
                    holders = [(mod, key) for mod in _package_modules(package)
                               for key, value in list(vars(mod).items())
                               if value is original]
                for holder, key in holders:
                    saved.append((holder, key, original))
                    setattr(holder, key, wrapped)
            yield sorted(absent)
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)


def _package_modules(package):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def _resolve(path):
    """(owner, attribute) for a dotted path, or (None, None) if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        owner = module
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else (None, None)
    return None, None


def summarize(spans):
    """Per span name: total time, self time, call count, and durations."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0,
                               "durations": []})
    for sid, _, name, start, end in spans:
        entry = out[name]
        entry["total"] += end - start
        entry["self"] += end - start - child_time[sid]
        entry["calls"] += 1
        entry["durations"].append(end - start)
    return out


def children(spans, parent_name, child_name):
    """Total time and count of child_name spans whose direct parent is a
    parent_name span."""
    names = {sid: name for sid, _, name, _, _ in spans}
    durations = [end - start for _, parent, name, start, end in spans
                 if name == child_name and names.get(parent) == parent_name]
    return sum(durations), len(durations)
