"""Spans the benchmark records around its calls into klbasis, and the
clocks and memory readings it times them with.

A span has a name, a start and an end (seconds on the recording process's
``perf_counter`` clock), the id of the span that caused it, and a few
attributes.  Spans of one unit of work (one column, one resumed run) carry
the same ``request`` attribute.  Everything is kept in memory and written
out once, when the workload ends.

Timing goes through ``Tracer.span`` whether tracing is on or not, so the
traced and the untraced run execute the same code; with tracing off the
span is measured but not kept.
"""

from __future__ import annotations

import json
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Highest resident set of this process (or of its largest waited-for
    descendant, with RUSAGE_CHILDREN), in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set right now, in MB; falls back to the peak where
    /proc is not available."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


class Span:
    __slots__ = ("elapsed", "cpu")

    def __init__(self):
        self.elapsed = 0.0
        self.cpu = 0.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body: wall seconds and CPU seconds of this process."""
        out = Span()
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        c0 = cpu_self()
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            t1 = time.perf_counter()
            out.elapsed = t1 - t0
            out.cpu = cpu_self() - c0
            self._stack.pop()
            if self.enabled:
                self.spans.append(
                    {"id": sid, "parent": parent, "name": name,
                     "start": t0, "end": t1, **attrs}
                )

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Keep a span timed elsewhere, such as a child process watched
        from outside."""
        if self.enabled:
            self.spans.append({"id": self._next_id, "parent": self._stack[-1] if self._stack else None,
                               "name": name, "start": start, "end": end, **attrs})
            self._next_id += 1

    def adopt(self, spans: list[dict], request) -> None:
        """Take over the spans of a child process, renumbered and tagged
        with the request they served."""
        if not self.enabled:
            return
        base = self._next_id
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            s = dict(s, id=s["id"] + base, request=request)
            s["parent"] = parent if s["parent"] is None else s["parent"] + base
            self.spans.append(s)
            self._next_id = max(self._next_id, s["id"] + 1)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": self.spans, **extra}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
        tmp.replace(path)
