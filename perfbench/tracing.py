"""In-memory spans recorded by the benchmark around its calls into the program.

A span has a name, a start and end (``time.perf_counter`` seconds), the
span that was open on the same thread when it began (its parent), and
an optional batch id.  Spans stay in memory while a run measures and
are written out once, when it ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    """Records spans when ``enabled``; every call is a no-op otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, batch: Optional[int] = None):
        """Open a span on this thread; returns the token :meth:`end` takes."""
        if not self.enabled:
            return None
        stack = self._stack()
        token = (next(self._ids), name, time.perf_counter(),
                 stack[-1][0] if stack else None, batch)
        stack.append(token)
        return token

    def end(self, token) -> None:
        if token is None:
            return
        now = time.perf_counter()
        stack = self._stack()
        stack.remove(token)
        span_id, name, start, parent, batch = token
        self.spans.append((span_id, name, start, now, parent, batch))

    @contextmanager
    def span(self, name: str, batch: Optional[int] = None):
        token = self.begin(name, batch)
        try:
            yield
        finally:
            self.end(token)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[name] += max(0.0, (end - start) - covered)
        return dict(totals)

    def write(self, path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent, batch."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
            handle.flush()
            # On disk before the next pass measures.
            os.fsync(handle.fileno())
