"""Pipeline observability: stage timers and the stats snapshot.

A production engine is judged by its counters — estimates per second,
cache hit rate, where the wall time goes.  :class:`StageTimer`
accumulates per-stage wall time with negligible overhead;
:class:`EngineStats` is the immutable snapshot the engine hands out
(and the CLI / throughput bench print).  Since the ``repro.obs``
subsystem landed, the snapshot is a *view* computed from the engine's
:class:`~repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable


class StageTimer:
    """Accumulates wall-clock seconds per named pipeline stage."""

    def __init__(self):
        self._seconds: Dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed

    def seconds(self) -> Dict[str, float]:
        return dict(self._seconds)

    def total(self) -> float:
        return sum(self._seconds.values())

    def restore(self, seconds: Dict[str, float]) -> None:
        self._seconds = {name: float(value)
                         for name, value in seconds.items()}


@dataclass(frozen=True)
class EngineStats:
    """One consistent snapshot of the engine's counters.

    Built by :meth:`StreamingEngine.stats` as a view over the engine's
    metrics registry — the registry is the source of truth, this is the
    ergonomic read side.
    """

    frames_ingested: int = 0
    evidence_events: int = 0
    probe_requests: int = 0
    devices_seen: int = 0
    batches_flushed: int = 0
    estimates_emitted: int = 0
    unlocatable: int = 0
    cache_enabled: bool = True
    cache_hits: int = 0
    cache_misses: int = 0
    cache_entries: int = 0
    refits: int = 0
    last_fit_iterations: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    retries: int = 0
    sink_failures: int = 0
    quarantined: int = 0
    degraded: int = 0

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Combine two disjoint snapshots (e.g. two shards') into one.

        The merge is associative and commutative — counters sum,
        per-stage seconds sum key-wise, ``cache_enabled`` ORs, and
        ``last_fit_iterations`` takes the max — so folding any number
        of shard snapshots together yields the same totals whatever
        the fold order.  ``EngineStats(cache_enabled=False)`` is the
        identity element.
        Derived properties (hit rate, throughput) are recomputed from
        the merged counters, never averaged.
        """
        stage_seconds = dict(self.stage_seconds)
        for name, seconds in other.stage_seconds.items():
            stage_seconds[name] = stage_seconds.get(name, 0.0) + seconds
        return EngineStats(
            frames_ingested=self.frames_ingested + other.frames_ingested,
            evidence_events=self.evidence_events + other.evidence_events,
            probe_requests=self.probe_requests + other.probe_requests,
            devices_seen=self.devices_seen + other.devices_seen,
            batches_flushed=self.batches_flushed + other.batches_flushed,
            estimates_emitted=(self.estimates_emitted
                               + other.estimates_emitted),
            unlocatable=self.unlocatable + other.unlocatable,
            cache_enabled=self.cache_enabled or other.cache_enabled,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            cache_entries=self.cache_entries + other.cache_entries,
            refits=self.refits + other.refits,
            last_fit_iterations=max(self.last_fit_iterations,
                                    other.last_fit_iterations),
            stage_seconds=stage_seconds,
            retries=self.retries + other.retries,
            sink_failures=self.sink_failures + other.sink_failures,
            quarantined=self.quarantined + other.quarantined,
            degraded=self.degraded + other.degraded,
        )

    @classmethod
    def merge_all(cls, snapshots: "Iterable[EngineStats]") -> "EngineStats":
        """Fold any number of snapshots into one (order-independent)."""
        merged = cls(cache_enabled=False)
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def elapsed_s(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def estimates_per_sec(self) -> float:
        elapsed = self.elapsed_s
        return self.estimates_emitted / elapsed if elapsed > 0.0 else 0.0

    def to_dict(self) -> dict:
        """JSON-compatible form (what the throughput bench emits)."""
        return {
            "frames_ingested": self.frames_ingested,
            "evidence_events": self.evidence_events,
            "probe_requests": self.probe_requests,
            "devices_seen": self.devices_seen,
            "batches_flushed": self.batches_flushed,
            "estimates_emitted": self.estimates_emitted,
            "unlocatable": self.unlocatable,
            "cache_enabled": self.cache_enabled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_entries": self.cache_entries,
            "refits": self.refits,
            "last_fit_iterations": self.last_fit_iterations,
            "retries": self.retries,
            "sink_failures": self.sink_failures,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
            "fit_seconds": self.stage_seconds.get("fit", 0.0),
            "stage_seconds": dict(self.stage_seconds),
            "elapsed_s": self.elapsed_s,
            "estimates_per_sec": self.estimates_per_sec,
        }

    def format(self) -> str:
        """The human-readable block ``marauder engine`` prints."""
        lines = [
            "PipelineStats:",
            f"  frames ingested   : {self.frames_ingested}",
            f"  evidence events   : {self.evidence_events}",
            f"  probe requests    : {self.probe_requests}",
            f"  devices seen      : {self.devices_seen}",
            f"  batches flushed   : {self.batches_flushed}",
            f"  estimates emitted : {self.estimates_emitted}",
            f"  unlocatable       : {self.unlocatable}",
        ]
        if self.cache_enabled:
            lines.append(
                f"  cache             : {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit rate {self.cache_hit_rate:.1%}, "
                f"{self.cache_entries} entries)")
        else:
            lines.append("  cache             : disabled")
        if self.refits:
            lines.append(
                f"  re-fits           : {self.refits} "
                f"(last solve {self.last_fit_iterations} iterations)")
        if self.retries:
            lines.append(f"  retries           : {self.retries}")
        if self.sink_failures:
            lines.append(f"  sink failures     : {self.sink_failures}")
        if self.quarantined:
            lines.append(f"  quarantined       : {self.quarantined}")
        if self.degraded:
            lines.append(f"  degraded          : {self.degraded}")
        for name in sorted(self.stage_seconds):
            lines.append(f"  {name + ' time':18s}: "
                         f"{self.stage_seconds[name] * 1e3:.2f} ms")
        lines.append(f"  throughput        : "
                     f"{self.estimates_per_sec:.0f} estimates/s")
        return "\n".join(lines)

