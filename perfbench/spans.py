"""Span tracing of the csma_sic layers from outside the package.

The package's modules import each other by name, so a function is wrapped
by replacing the name in every module namespace that calls it (and methods
on their class). Each call opens a span with its name, start, end and
parent. Hot functions run millions of times per command, so their spans
are folded into per-(command, name, parent) totals as they close; spans of
the coarse entry points are also kept whole and written out at the end.
Self time is a span's duration minus the time its direct children cover.
"""

import json
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Agg:
    """Folded spans of one (command, name, parent) triple."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)  # kept spans only


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        # open frames: [name, start, child_time, span_id, command]
        self.stack = []
        self.spans = []         # kept spans: (name, start, end, parent_id)
        self.agg = {}           # (command, name, parent) -> Agg
        self.notes = []         # (command, name, value) from observers
        self.current = "setup"  # command that new root spans belong to
        self._undo = []

    def wrap(self, name, fn, keep=False, observe=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``keep`` stores the whole span; ``observe(args, result)`` returns
        a value noted against the span after the call. Spans are folded
        under the command that ``current`` named when their root opened.
        """
        stack = self.stack
        spans = self.spans
        agg = self.agg

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            command = parent[4] if parent else self.current
            span_id = -1
            if keep:
                span_id = len(spans)
                spans.append(None)
            frame = [name, 0.0, 0.0, span_id, command]
            stack.append(frame)
            frame[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                key = (command, name, parent[0] if parent else None)
                a = agg.get(key)
                if a is None:
                    a = agg[key] = Agg()
                a.calls += 1
                a.total += duration
                a.self_time += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if keep:
                    a.durations.append(duration)
                    spans[span_id] = (name, start, end,
                                      parent[3] if parent else -1)
            if observe is not None:
                self.notes.append((command, name, observe(args, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, **kwargs):
        """Replace ``owner.attr`` by a traced wrapper until ``uninstall``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------

    def select(self, name=None, command=None, parent=None, names=None):
        """Folded totals over the spans matching every given filter."""
        out = Agg()
        for (cmd, n, par), a in self.agg.items():
            if name is not None and n != name:
                continue
            if names is not None and n not in names:
                continue
            if command is not None and cmd != command:
                continue
            if parent is not None and par != parent:
                continue
            out.calls += a.calls
            out.total += a.total
            out.self_time += a.self_time
            out.durations.extend(a.durations)
        return out

    def noted(self, name, command=None):
        return [v for cmd, n, v in self.notes
                if n == name and (command is None or cmd == command)]

    def dump(self, path):
        """Write kept spans and folded totals as JSON."""
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
            "folded": [{"command": c, "name": n, "parent": p,
                        "calls": a.calls, "total_s": a.total,
                        "self_s": a.self_time}
                       for (c, n, p), a in sorted(
                           self.agg.items(), key=lambda kv: str(kv[0]))],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
