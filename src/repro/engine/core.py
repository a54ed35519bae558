"""The streaming localization engine.

Wires the pipeline stages together::

    frames ──> ingest (GammaState, PseudonymLinker)
                 │  Γ changed?
                 v
               dirty-set scheduler ──> micro-batch flush
                                          │  Γ-set memo cache
                                          v
                                       localizer.locate(Γ)
                                          │
                                          v
                                       sinks (tracker, display, ...)

Design points (see DESIGN.md "Streaming engine"):

* **Incremental Γ** — one bounded update per frame; no replaying of
  history.
* **Dirty-set scheduling** — a device is re-localized only when its
  streaming Γ differs from the Γ it was last localized with; estimates
  for an unchanged neighborhood would be identical anyway.
* **Γ-set memoization** — localization is a pure function of
  (localizer identity, Γ); devices sharing an AP neighborhood share one
  disc intersection.  Mutating the AP knowledge base invalidates the
  cache (call :meth:`StreamingEngine.invalidate_cache`, or use a
  localizer whose ``cache_key()`` changes, as AP-Rad's does on re-fit).
* **Micro-batching** — dirty devices drain in configurable batches, so
  ingest latency and localization cost can be traded off explicitly.
* **Checkpoint/restore** — Γ sets, the dirty set, and all tracks
  serialize to JSON; an interrupted run restored from a checkpoint
  finishes with exactly the tracks of an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Union)

import numpy as np

from repro import faults, obs
from repro.faults import CheckpointError, ReproError, RetryPolicy
from repro.capture.records import NO_BSSID, FrameBatch, mac_from_int
from repro.engine.cache import GammaCache
from repro.engine.ingest import GammaState, extract_evidence
from repro.engine.scheduler import MicroBatchScheduler
from repro.engine.sinks import EngineSink
from repro.engine.stats import EngineStats
from repro.geometry.point import Point
from repro.localization.base import LocalizationEstimate, Localizer
from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress, MacNames
from repro.net80211.medium import ReceivedFrame
from repro.sniffer.tracker import DeviceTracker, PseudonymLinker

PathLike = Union[str, Path]

#: v2 added the ``"metrics"`` registry snapshot; v3 adds the embedded
#: ``"crc32"`` integrity field plus quarantine/failure state.  v1 and
#: v2 checkpoints are still restorable.
CHECKPOINT_VERSION = 3

#: Counter names mirrored into the legacy ``"counters"`` checkpoint
#: block, in its historical key order.
_COUNTER_METRICS = (
    ("frames_ingested", "repro.engine.frames"),
    ("evidence_events", "repro.engine.evidence"),
    ("probe_requests", "repro.engine.probe_requests"),
    ("batches_flushed", "repro.engine.batches"),
    ("estimates_emitted", "repro.engine.estimates"),
    ("unlocatable", "repro.engine.unlocatable"),
    ("refits", "repro.engine.refits"),
)


class StreamingEngine:
    """Event-driven localization over a stream of captured frames.

    Parameters
    ----------
    localizer:
        Any :class:`Localizer`.  It must be ready to ``locate`` before
        the first flush (AP-Rad must be fitted up front).
    window_s:
        Sliding co-observation window for the streaming Γ.
    batch_size:
        Dirty devices per micro-batch; a full batch flushes during
        ingest, stragglers flush on :meth:`flush` / :meth:`run` end.
    cache_size:
        Capacity of the Γ-set memoization cache; ``0`` disables it.
    sinks:
        Extra :class:`EngineSink` consumers beside the built-in tracker.
    refit_every:
        Re-fit the localizer's model every N evidence events (``0``
        disables).  Each Γ change is accumulated as a pending
        observation; on schedule the batch is handed to the
        localizer's ``partial_fit`` (AP-Rad's incremental radius LP
        warm-starts from its previous basis), every device is marked
        dirty (new radii can move every estimate), and the fit wall
        time lands in the ``fit`` stage of :class:`EngineStats`.
        Localizers that do not declare ``supports_partial_fit`` ignore
        the schedule.  Until the first re-fit completes, an unfitted
        localizer (``is_fitted`` false) yields no estimates — devices
        flushed early are re-localized after the fit.
    registry:
        The :class:`~repro.obs.MetricsRegistry` this engine reports
        into.  Defaults to a fresh private registry, so concurrent
        engines never share counters; pass
        :func:`repro.obs.default_registry` to publish process-wide.
        While the engine works — ingest, flush, re-fit — its registry
        is routed as :func:`repro.obs.current_registry`, so metrics
        emitted deep in the LP solvers, the spatial grid, and batch
        localization all land here too.
    retry:
        The :class:`~repro.faults.RetryPolicy` wrapped around the
        fallible stages — batch localization, sink emission, and model
        re-fits.  Only :class:`~repro.faults.ReproError` (and the
        policy's configured ``retryable`` types) are retried; anything
        else propagates.  Defaults to 3 attempts with short exponential
        backoff and no jitter, so retried runs stay deterministic.
    quarantine_after:
        After this many consecutive per-device localization failures
        the device is quarantined — dropped from scheduling with the
        failing error recorded — so one poison Γ cannot stall the rest
        of the stream.  ``0`` disables quarantine.
    """

    def __init__(self, localizer: Localizer, window_s: float = 30.0,
                 batch_size: int = 32, cache_size: int = 4096,
                 sinks: Sequence[EngineSink] = (), refit_every: int = 0,
                 registry: Optional[obs.MetricsRegistry] = None,
                 retry: Optional[RetryPolicy] = None,
                 quarantine_after: int = 3):
        if refit_every < 0:
            raise ValueError(
                f"refit_every must be >= 0, got {refit_every}")
        if quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0, got {quarantine_after}")
        self.localizer = localizer
        self.refit_every = refit_every
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.02, multiplier=2.0, jitter=0.0)
        self.quarantine_after = quarantine_after
        self.gamma_state = GammaState(window_s=window_s)
        self.scheduler = MicroBatchScheduler(batch_size=batch_size)
        self.cache: Optional[GammaCache] = (
            GammaCache(cache_size) if cache_size > 0 else None)
        self.tracker = DeviceTracker()
        self.linker = PseudonymLinker()
        self.sinks: List[EngineSink] = list(sinks)
        self.registry = (registry if registry is not None
                         else obs.MetricsRegistry())
        # Bound instrument handles (hot path: attribute access, no
        # registry lookup).  Binding at init also guarantees the core
        # series appear in every snapshot, even at zero.
        self._c_frames = self.registry.counter("repro.engine.frames")
        self._c_evidence = self.registry.counter("repro.engine.evidence")
        self._c_probes = self.registry.counter(
            "repro.engine.probe_requests")
        self._c_batches = self.registry.counter("repro.engine.batches")
        self._c_estimates = self.registry.counter("repro.engine.estimates")
        self._c_unlocatable = self.registry.counter(
            "repro.engine.unlocatable")
        self._c_refits = self.registry.counter("repro.engine.refits")
        self._g_fit_iterations = self.registry.gauge(
            "repro.engine.fit.iterations")
        self._g_devices = self.registry.gauge("repro.engine.devices.seen")
        self._t_flush = self.registry.timer("repro.engine.flush.duration")
        # Stage timers and retry counters are bound on first use (so a
        # stage's series appears once it has run) and kept per engine.
        self._stage_timers: Dict[str, obs.Timer] = {}
        self._retry_callbacks: Dict[
            str, Callable[[int, BaseException, float], None]] = {}
        if self.cache is not None:
            for event in ("hit", "miss", "eviction", "invalidation"):
                self.registry.counter(f"repro.engine.cache.{event}")
            self.registry.gauge("repro.engine.cache.entries")
        # Γ each device was last localized with (dirty = differs now).
        self._last_located: Dict[MacAddress, FrozenSet[MacAddress]] = {}
        self._seen: Set[MacAddress] = set()
        # Consecutive localization failures per device; at
        # ``quarantine_after`` the device moves to the quarantine map
        # (mobile → failing error text) and stops being scheduled.
        self._failures: Dict[MacAddress, int] = {}
        self._quarantine: Dict[MacAddress, str] = {}
        # Re-fit scheduling: Γ snapshots accumulated since the last
        # model fit, handed to localizer.partial_fit on schedule.
        self._pending_refit: List[FrozenSet[MacAddress]] = []
        self._events_since_refit = 0

    # ------------------------------------------------------------------
    # Ingest stage
    # ------------------------------------------------------------------

    def ingest(self, received: ReceivedFrame) -> None:
        """Consume one captured frame; flush if a micro-batch is due."""
        with self._stage("ingest"):
            self._c_frames.inc()
            frame = received.frame
            if frame.frame_type is FrameType.PROBE_REQUEST:
                self._c_probes.inc()
                self._seen.add(frame.source)
                self.linker.ingest(frame)
            else:
                evidence = extract_evidence(received)
                if evidence is not None:
                    self._c_evidence.inc()
                    self._observe(evidence.mobile, evidence.ap,
                                  evidence.timestamp)
            self._g_devices.set(len(self._seen))
        if (self.refit_every > 0
                and self._events_since_refit >= self.refit_every):
            self._refit()
        while self.scheduler.ready:
            self._flush_batch()

    def _observe(self, mobile: MacAddress, ap: MacAddress,
                 timestamp: float) -> None:
        """Fold one evidence event into Γ; schedule and queue re-fits."""
        self._seen.add(mobile)
        gamma = self.gamma_state.fold(mobile, ap, timestamp)
        if (mobile not in self._quarantine
                and gamma != self._last_located.get(mobile)):
            self.scheduler.mark_dirty(mobile)
        if self.refit_every > 0:
            if gamma:
                self._pending_refit.append(gamma)
            self._events_since_refit += 1

    def ingest_stream(self, stream: Iterable[ReceivedFrame]) -> None:
        """Consume frames without the end-of-stream flush (resumable)."""
        for received in stream:
            self.ingest(received)

    def ingest_batch(self, batch: FrameBatch) -> None:
        """Consume one :class:`~repro.capture.records.FrameBatch`.

        The columnar hot path: frame classification and evidence
        extraction run vectorized over the batch's NumPy columns, and
        only the *interesting* records — probe requests (the pseudonym
        linker needs the full frame) and evidence-bearing frames —
        touch Python objects at all.  Beacons, deauths, and multicast
        traffic never materialize.

        Exactly equivalent to calling :meth:`ingest` per record in row
        order: evidence folds into Γ one event at a time, and the
        refit-schedule and micro-batch-flush checks run after each
        interesting record (they cannot trigger after any other kind),
        so flush interleaving — and therefore tracks and checkpoints —
        match the record-at-a-time path bit for bit.

        The ``ingest`` stage is timed once per call: one observation
        holding the row work, without the flushes and re-fits that run
        between rows (those time themselves).
        """
        records = batch.records
        total = len(records)
        if total == 0:
            return
        clock = time.perf_counter
        start = clock()
        elapsed = 0.0
        try:
            kind = records["kind"]
            frame_types = batch.frame_types
            probe_mask = np.isin(kind, [
                code for code, ft in enumerate(frame_types)
                if ft is FrameType.PROBE_REQUEST])
            resp_mask = np.isin(kind, [
                code for code, ft in enumerate(frame_types)
                if ft in (FrameType.PROBE_RESPONSE,
                          FrameType.ASSOCIATION_RESPONSE)])
            data_mask = np.isin(kind, [
                code for code, ft in enumerate(frame_types)
                if ft is FrameType.DATA])
            src = records["src"]
            dst = records["dst"]
            bssid = records["bssid"]
            rx_ts = records["rx_ts"]
            has_bssid = bssid != np.uint64(NO_BSSID)
            # The evidence mobile: responses prove (destination, bssid);
            # infrastructure data frames prove (non-AP endpoint, bssid).
            mobiles = np.where(resp_mask, dst,
                               np.where(src != bssid, src, dst))
            # 802.11 group bit: bit 40 of the 48-bit address (LSB of
            # the first octet) — multicast mobiles carry no evidence.
            unicast = (mobiles >> np.uint64(40)) & np.uint64(1) == 0
            evidence_mask = (resp_mask | data_mask) & has_bssid & unicast
            self._c_frames.inc(total)
            self._c_probes.inc(int(probe_mask.sum()))
            self._c_evidence.inc(int(evidence_mask.sum()))
            interesting = np.nonzero(probe_mask | evidence_mask)[0]
            # Python scalars for the interesting rows, one tolist() per
            # column rather than a NumPy scalar conversion per row.
            rows = zip(interesting.tolist(),
                       probe_mask[interesting].tolist(),
                       mobiles[interesting].tolist(),
                       bssid[interesting].tolist(),
                       rx_ts[interesting].tolist())
            scheduler = self.scheduler
            refit_every = self.refit_every
            for index, is_probe, mobile, ap, timestamp in rows:
                if is_probe:
                    frame = batch.frame_at(index).frame
                    self._seen.add(frame.source)
                    self.linker.ingest(frame)
                else:
                    self._observe(mac_from_int(mobile), mac_from_int(ap),
                                  timestamp)
                refit_due = (refit_every > 0
                             and self._events_since_refit >= refit_every)
                if refit_due or scheduler.ready:
                    elapsed += clock() - start
                    if refit_due:
                        self._refit()
                    while scheduler.ready:
                        self._flush_batch()
                    start = clock()
            self._g_devices.set(len(self._seen))
        finally:
            self._stage_timer("ingest").observe(elapsed + clock() - start)

    def ingest_batches(self, stream: Iterable[FrameBatch]) -> None:
        """Consume batches without the end-of-stream flush (resumable)."""
        for batch in stream:
            self.ingest_batch(batch)

    def run(self, stream: Iterable[ReceivedFrame]) -> EngineStats:
        """Consume a whole stream, drain every device, close sinks.

        The whole run executes with the engine's registry routed as
        :func:`repro.obs.current_registry`, so instrumentation anywhere
        below — the capture reader, the LP solver inside a re-fit, the
        spatial grid — reports into this engine.
        """
        with obs.use_registry(self.registry), obs.trace("engine.run"):
            self.ingest_stream(stream)
            self.drain()
            for sink in self.sinks:
                sink.close()
        return self.stats()

    def run_batches(self, stream: Iterable[FrameBatch]) -> EngineStats:
        """:meth:`run`, fed by :class:`FrameBatch` slices.

        Pair with :func:`repro.sniffer.replay.iter_capture_batches` for
        the zero-copy columnar replay path; results match :meth:`run`
        over the same records in the same order.
        """
        with obs.use_registry(self.registry), obs.trace("engine.run"):
            self.ingest_batches(stream)
            self.drain()
            for sink in self.sinks:
                sink.close()
        return self.stats()

    def drain(self) -> int:
        """End-of-stream settling: catch-up re-fit, then full flush.

        Exactly what :meth:`run` does when its stream ends, callable on
        its own — the sharded service sends a drain barrier through the
        bus and each shard settles without owning the stream.  Returns
        the estimates emitted by the flush.
        """
        with obs.use_registry(self.registry):
            if self.refit_every > 0 and self._pending_refit:
                # Catch-up fit so end-of-stream evidence (and any
                # devices skipped while the model was unfitted) is not
                # lost.
                self._refit()
            return self.flush()

    # ------------------------------------------------------------------
    # Localize + sink stages
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Drain the entire dirty set; returns estimates emitted."""
        emitted = 0
        while self.scheduler.pending():
            emitted += self._flush_batch()
        return emitted

    def _refit(self) -> None:
        """Hand the pending Γ snapshots to the localizer's partial_fit."""
        pending = self._pending_refit
        self._pending_refit = []
        self._events_since_refit = 0
        if not self.localizer.supports_partial_fit or not pending:
            return
        # Evidence ingestion happens before the solve inside
        # partial_fit and is NOT idempotent (AP-Rad's evidence counts
        # accumulate), so a retry after a mid-solve fault must hand the
        # localizer an *empty* batch: the already-absorbed evidence
        # stays, and partial_fit([]) just re-runs the identical solve.
        batches = iter([pending])

        def attempt():
            faults.hook("engine.refit")
            batch = next(batches, [])
            with obs.use_registry(self.registry), \
                    obs.trace("engine.refit", observations=len(pending)), \
                    self._stage("fit"):
                return self.localizer.partial_fit(batch)

        try:
            estimate = self.retry.call(
                attempt, on_retry=self._count_retry("engine.refit"))
        except ReproError as error:
            # The model keeps its previous radii; estimates stay
            # answerable, just stale until the next scheduled re-fit.
            self.registry.counter("repro.engine.refit.failures",
                                  error=type(error).__name__).inc()
            return
        self._c_refits.inc()
        self._g_fit_iterations.set(int(
            getattr(estimate, "solver_iterations", 0)))
        # New radii can move every estimate: every device with a live Γ
        # goes back through localization.  The memo cache keys on
        # localizer.cache_key(), which the re-fit bumped.
        for mobile in self.gamma_state.devices():
            if self.gamma_state.gamma(mobile):
                self.scheduler.mark_dirty(mobile)

    def _localizer_ready(self) -> bool:
        return bool(getattr(self.localizer, "is_fitted", True))

    def _flush_batch(self) -> int:
        batch = self.scheduler.next_batch()
        if not batch:
            return 0
        self._c_batches.inc()
        gammas = [self.gamma_state.gamma(mobile) for mobile in batch]
        if not self._localizer_ready():
            # Model not fitted yet (refit_every engines start cold):
            # nothing can be located.  The batch still clears — the
            # first fit marks every Γ-holding device dirty again.
            for mobile, gamma in zip(batch, gammas):
                self._last_located[mobile] = gamma
            return 0
        with obs.use_registry(self.registry), \
                obs.trace("engine.flush", batch=len(batch)), \
                self._t_flush.time():
            try:
                estimates = self._locate_with_retry(gammas)
            except ReproError as error:
                return self._flush_degraded(batch, gammas, error)
            emitted = 0
            for mobile, gamma, estimate in zip(batch, gammas, estimates):
                self._last_located[mobile] = gamma
                self._failures.pop(mobile, None)
                if estimate is None:
                    self._c_unlocatable.inc()
                    continue
                timestamp = self.gamma_state.last_seen(mobile)
                with self._stage("sink"):
                    self._emit(mobile, timestamp, estimate)
                emitted += 1
        return emitted

    def _locate_with_retry(
        self, gammas: Sequence[FrozenSet[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        def attempt():
            faults.hook("engine.flush")
            with self._stage("localize"):
                return self._locate_batch_memoized(gammas)

        return self.retry.call(
            attempt, on_retry=self._count_retry("engine.flush"))

    def _flush_degraded(self, batch: Sequence[MacAddress],
                        gammas: Sequence[FrozenSet[MacAddress]],
                        error: ReproError) -> int:
        """Per-device salvage after the batch path exhausted its retries.

        Devices are located one at a time, so the failure isolates to
        whichever Γ actually triggers it; healthy devices still emit.
        A device that keeps failing is re-dispatched until
        :attr:`quarantine_after` consecutive failures quarantine it.
        """
        self.registry.counter("repro.engine.flush.degraded",
                              error=type(error).__name__).inc()
        emitted = 0
        for mobile, gamma in zip(batch, gammas):
            try:
                faults.hook("engine.localize", key=str(mobile))
                with self._stage("localize"):
                    estimate = self.localizer.locate(gamma)
            except ReproError as device_error:
                self._record_failure(mobile, gamma, device_error)
                continue
            self._failures.pop(mobile, None)
            self._last_located[mobile] = gamma
            if estimate is None:
                self._c_unlocatable.inc()
                continue
            timestamp = self.gamma_state.last_seen(mobile)
            with self._stage("sink"):
                self._emit(mobile, timestamp, estimate)
            emitted += 1
        return emitted

    def _record_failure(self, mobile: MacAddress,
                        gamma: FrozenSet[MacAddress],
                        error: BaseException) -> None:
        count = self._failures.get(mobile, 0) + 1
        self._failures[mobile] = count
        self.registry.counter("repro.engine.localize.failures",
                              error=type(error).__name__).inc()
        if self.quarantine_after and count >= self.quarantine_after:
            self._failures.pop(mobile, None)
            self._quarantine[mobile] = f"{type(error).__name__}: {error}"
            self.registry.counter("repro.engine.quarantined").inc()
            self._last_located[mobile] = gamma
        elif self.quarantine_after:
            # Bounded re-dispatch: the flush drain loop keeps retrying
            # this device until it answers or quarantines.
            self.scheduler.mark_dirty(mobile)
        else:
            # Quarantine disabled: retry only when Γ changes again, so
            # a permanently failing device cannot spin the drain loop.
            self._last_located[mobile] = gamma

    def _count_retry(self, site: str):
        """An ``on_retry`` callback counting into the engine registry."""
        callback = self._retry_callbacks.get(site)
        if callback is None:
            counter = self.registry.counter("repro.engine.retries",
                                            site=site)

            def callback(attempt: int, error: BaseException,
                         delay: float) -> None:
                counter.inc()

            self._retry_callbacks[site] = callback
        return callback

    def quarantined(self) -> Dict[MacAddress, str]:
        """Quarantined devices and the error text that condemned them."""
        return dict(self._quarantine)

    def _locate_batch_memoized(
        self, gammas: Sequence[FrozenSet[MacAddress]]
    ) -> List[Optional[LocalizationEstimate]]:
        """One ``locate_batch`` call for a micro-batch's worth of Γ sets.

        Cache hits are resolved up front; the remaining *distinct* Γ
        sets (duplicates within a batch collapse to one computation)
        go through :meth:`Localizer.locate_batch` in one shot, and
        results merge back in the batch's submission order.
        """
        results: List[Optional[LocalizationEstimate]] = [None] * len(gammas)
        key = (self.localizer.cache_key() if self.cache is not None
               else None)
        # Insertion-ordered, so the pending list is deterministic.
        pending: Dict[FrozenSet[MacAddress], List[int]] = {}
        for index, gamma in enumerate(gammas):
            if not gamma:
                continue
            if gamma in pending:
                # Intra-batch duplicate: one computation will serve it.
                pending[gamma].append(index)
                if self.cache is not None:
                    self.cache.count_pending_hit()
                continue
            if self.cache is not None:
                cached = self.cache.get(key, gamma)
                if cached is not GammaCache.ABSENT:
                    results[index] = cached
                    continue
            pending[gamma] = [index]
        if not pending:
            return results
        order = list(pending.keys())
        estimates = self.localizer.locate_batch(order)
        for gamma, estimate in zip(order, estimates):
            if self.cache is not None:
                self.cache.put(key, gamma, estimate)
            for index in pending[gamma]:
                results[index] = estimate
        return results

    def _emit(self, mobile: MacAddress, timestamp: float,
              estimate: LocalizationEstimate) -> None:
        self._c_estimates.inc()
        latest = self.tracker.latest(mobile)
        if latest is not None and timestamp < latest.timestamp:
            # A late, out-of-order burst for an already-tracked device:
            # keep the track monotonic rather than raising mid-stream.
            timestamp = latest.timestamp
        self.tracker.record(mobile, timestamp, estimate)
        for sink in self.sinks:
            def attempt(sink=sink):
                faults.hook("sink.emit", key=str(mobile))
                sink.emit(mobile, timestamp, estimate)

            try:
                self.retry.call(
                    attempt, on_retry=self._count_retry("sink.emit"))
            except Exception as error:
                # A sink is an observer, never the pipeline: drop the
                # emission, count it, keep streaming.  The tracker above
                # already holds the authoritative fix.
                self.registry.counter("repro.engine.sink.failures",
                                      error=type(error).__name__).inc()

    def invalidate_cache(self) -> None:
        """Flush the Γ memoization after an AP knowledge-base mutation."""
        if self.cache is not None:
            self.cache.invalidate()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _stage_timer(self, name: str) -> obs.Timer:
        """The ``stage=name`` series, looked up once per engine."""
        timer = self._stage_timers.get(name)
        if timer is None:
            timer = self._stage_timers[name] = self.registry.timer(
                "repro.engine.stage.duration", stage=name)
        return timer

    def _stage(self, name: str):
        """Timing context for one pipeline stage (lazy per-stage series)."""
        return self._stage_timer(name).time()

    def _stage_seconds(self) -> Dict[str, float]:
        """Accumulated seconds per stage, from the registry series."""
        return {
            dict(inst.labels).get("stage", ""): inst.sum
            for inst in self.registry.find("repro.engine.stage.duration")
        }

    def metrics_snapshot(self) -> dict:
        """The engine registry's JSON-compatible snapshot."""
        return self.registry.snapshot()

    def stats(self) -> EngineStats:
        """A consistent snapshot of every pipeline counter.

        A *view* over :attr:`registry` — the registry is the source of
        truth; this projects the core series into the ergonomic
        dataclass the CLI and benches print.
        """
        cache_counters = (self.cache.counters() if self.cache is not None
                          else {})

        def _total(metric: str) -> int:
            return sum(int(inst.value)
                       for inst in self.registry.find(metric))

        return EngineStats(
            frames_ingested=int(self._c_frames.value),
            evidence_events=int(self._c_evidence.value),
            probe_requests=int(self._c_probes.value),
            devices_seen=len(self._seen),
            batches_flushed=int(self._c_batches.value),
            estimates_emitted=int(self._c_estimates.value),
            unlocatable=int(self._c_unlocatable.value),
            cache_enabled=self.cache is not None,
            cache_hits=cache_counters.get("hits", 0),
            cache_misses=cache_counters.get("misses", 0),
            cache_entries=cache_counters.get("entries", 0),
            refits=int(self._c_refits.value),
            last_fit_iterations=int(self._g_fit_iterations.value),
            stage_seconds=self._stage_seconds(),
            retries=_total("repro.engine.retries"),
            sink_failures=_total("repro.engine.sink.failures"),
            quarantined=len(self._quarantine),
            degraded=(_total("repro.engine.flush.degraded")
                      + _total("repro.localization.fallback.degraded")),
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Serialize resumable state (Γ sets, dirty set, tracks) to
        JSON-compatible types.

        Estimate *regions* are not persisted — a restored track carries
        positional fixes (position, algorithm, k) only.  The pseudonym
        linker is rebuilt from the live stream after restore.
        """
        names = MacNames()
        return {
            "engine_checkpoint": CHECKPOINT_VERSION,
            "config": {
                "window_s": self.gamma_state.window_s,
                "batch_size": self.scheduler.batch_size,
                "cache_size": (self.cache.max_entries
                               if self.cache is not None else 0),
                "refit_every": self.refit_every,
                "quarantine_after": self.quarantine_after,
            },
            "gamma": self.gamma_state.to_dict(names),
            "dirty": self.scheduler.to_list(names),
            "last_located": {
                names[mobile]: sorted([names[ap] for ap in gamma])
                for mobile, gamma in self._last_located.items()
            },
            "seen": sorted([names[mobile] for mobile in self._seen]),
            "tracks": {
                names[mobile]: [
                    {
                        "ts": point.timestamp,
                        "x": point.estimate.position.x,
                        "y": point.estimate.position.y,
                        "algorithm": point.estimate.algorithm,
                        "k": point.estimate.used_ap_count,
                    }
                    for point in self.tracker.track_of(mobile)
                ]
                for mobile in self.tracker.devices()
            },
            # Legacy (v1) counter block, kept so external consumers of
            # checkpoint JSON keep working; the registry snapshot below
            # is the authoritative cumulative record.
            "counters": dict(
                [(field, int(self.registry.counter(metric).value))
                 for field, metric in _COUNTER_METRICS]
                + [("last_fit_iterations",
                    int(self._g_fit_iterations.value))]
            ),
            "metrics": self.registry.snapshot(),
            # Pending re-fit evidence: the localizer's own model (LP
            # basis, radii) is NOT serialized, so a restored engine
            # must be given a localizer refitted from the same corpus
            # — or simply re-accumulates and refits on schedule.
            "refit": {
                "events_since_refit": self._events_since_refit,
                "pending": [sorted([names[ap] for ap in gamma])
                            for gamma in self._pending_refit],
            },
            "stage_seconds": self._stage_seconds(),
            # v3 fault-tolerance state: a resumed run must not
            # re-admit devices the interrupted run already condemned.
            "quarantine": {names[mobile]: reason
                           for mobile, reason in self._quarantine.items()},
            "failure_counts": {names[mobile]: count
                               for mobile, count in self._failures.items()},
        }

    def save_checkpoint(self, path: PathLike, keep: int = 1,
                        extra: Optional[dict] = None) -> None:
        """Durably write a v3 checkpoint to ``path``.

        The file body is the payload's canonical JSON (the text
        :func:`checkpoint_crc` covers, serialized once) with the
        ``"crc32"`` field spliced in last.  It lands in a temp file
        first, is fsync'd, and replaces ``path``
        atomically — a crash at any instant leaves either the old
        checkpoint or the new one, never a torn file.  With
        ``keep > 1``, previous generations rotate logrotate-style to
        ``path.1``, ``path.2``, ... so :func:`load_checkpoint_data`
        can fall back past a checkpoint that was corrupted at rest.

        ``extra`` is caller metadata (JSON-serializable) stored under
        the payload's ``"extra"`` key, covered by the CRC, and ignored
        by :meth:`restore` — the sharded service uses it to bind a
        checkpoint to the exact ingest position it covers, atomically
        with the state itself.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        payload = self.checkpoint()
        if extra is not None:
            payload["extra"] = extra
        canonical = _canonical_json(payload)
        crc = zlib.crc32(canonical)
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(canonical[:-1])
            handle.write(b', "crc32": %d}' % crc)
            handle.flush()
            os.fsync(handle.fileno())
        # The crash-mid-checkpoint injection site: a fault here proves
        # the previous checkpoint at ``path`` survives intact.
        faults.hook("engine.checkpoint", key=str(path))
        if keep > 1 and path.exists():
            for generation in range(keep - 1, 0, -1):
                older = path.with_name(f"{path.name}.{generation}")
                newer = (path if generation == 1 else
                         path.with_name(f"{path.name}.{generation - 1}"))
                if newer.exists():
                    os.replace(newer, older)
        os.replace(tmp, path)

    @classmethod
    def restore(cls, data: dict, localizer: Localizer,
                sinks: Sequence[EngineSink] = ()) -> "StreamingEngine":
        """Rebuild an engine from :meth:`checkpoint` output.

        The caller supplies the localizer (algorithm state is not
        serialized); it must be configured identically to the original
        for the resumed run to match an uninterrupted one.  Unknown
        config keys are ignored: files written while the engine still
        had an in-process worker pool carry its width and timeout.
        """
        version = data.get("engine_checkpoint")
        if version not in (1, 2, CHECKPOINT_VERSION):
            raise CheckpointError(
                f"unsupported engine checkpoint version {version!r}")
        stored_crc = data.get("crc32")
        if stored_crc is not None:
            computed = checkpoint_crc(data)
            if int(stored_crc) != computed:
                raise CheckpointError(
                    f"checkpoint CRC mismatch: stored {stored_crc}, "
                    f"computed {computed} — file is corrupt")
        config = data["config"]
        engine = cls(localizer,
                     window_s=float(config["window_s"]),
                     batch_size=int(config["batch_size"]),
                     cache_size=int(config["cache_size"]),
                     sinks=sinks,
                     refit_every=int(config.get("refit_every", 0)),
                     quarantine_after=int(config.get("quarantine_after", 3)))
        engine.gamma_state = GammaState.from_dict(data["gamma"])
        engine.scheduler.restore(data.get("dirty", []))
        engine._last_located = {
            MacAddress.parse(mobile): frozenset(
                MacAddress.parse(ap) for ap in gamma)
            for mobile, gamma in data.get("last_located", {}).items()
        }
        engine._seen = {MacAddress.parse(m) for m in data.get("seen", [])}
        for mobile_text, points in data.get("tracks", {}).items():
            mobile = MacAddress.parse(mobile_text)
            for point in points:
                engine.tracker.record(mobile, float(point["ts"]),
                                      LocalizationEstimate(
                                          position=Point(float(point["x"]),
                                                         float(point["y"])),
                                          algorithm=point["algorithm"],
                                          used_ap_count=int(point["k"])))
        metrics = data.get("metrics")
        if metrics is not None:
            # v2: the registry snapshot is the cumulative record —
            # merging it makes resumed totals (counters, histograms,
            # buckets) exactly those of an uninterrupted run.
            engine.registry.merge(metrics)
        else:
            # v1: reconstruct the core counter series from the legacy
            # int block and seed each stage histogram with one
            # observation carrying the accumulated wall time.
            counters = data.get("counters", {})
            for field, metric in _COUNTER_METRICS:
                value = int(counters.get(field, 0))
                if value:
                    engine.registry.counter(metric).inc(value)
            engine._g_fit_iterations.set(
                int(counters.get("last_fit_iterations", 0)))
            for stage, seconds in data.get("stage_seconds", {}).items():
                engine.registry.timer(
                    "repro.engine.stage.duration",
                    stage=stage).observe(float(seconds))
        engine._g_devices.set(len(engine._seen))
        refit = data.get("refit", {})
        engine._events_since_refit = int(
            refit.get("events_since_refit", 0))
        engine._pending_refit = [
            frozenset(MacAddress.parse(ap) for ap in gamma)
            for gamma in refit.get("pending", [])
        ]
        engine._quarantine = {
            MacAddress.parse(mobile): str(reason)
            for mobile, reason in data.get("quarantine", {}).items()
        }
        engine._failures = {
            MacAddress.parse(mobile): int(count)
            for mobile, count in data.get("failure_counts", {}).items()
        }
        return engine

    @classmethod
    def load_checkpoint(cls, path: PathLike, localizer: Localizer,
                        sinks: Sequence[EngineSink] = (),
                        fallback: bool = True) -> "StreamingEngine":
        """Restore from ``path``, falling back through rotations.

        With ``fallback`` (the default), a corrupt or unreadable
        ``path`` does not end the campaign: :func:`load_checkpoint_data`
        walks ``path.1``, ``path.2``, ... and restores the newest
        generation that validates.
        """
        data = load_checkpoint_data(path, fallback=fallback)
        return cls.restore(data, localizer, sinks=sinks)


def _canonical_json(payload: dict) -> bytes:
    """The ``sort_keys`` JSON of everything but ``"crc32"``, as UTF-8."""
    return json.dumps(
        {key: value for key, value in payload.items() if key != "crc32"},
        sort_keys=True).encode("utf-8")


def checkpoint_crc(payload: dict) -> int:
    """CRC32 over the canonical JSON of everything but ``"crc32"``."""
    return zlib.crc32(_canonical_json(payload))


def _validate_checkpoint(path: Path) -> dict:
    """Parse + integrity-check one checkpoint file, raising on any flaw."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint {path} is not a JSON object")
    version = data.get("engine_checkpoint")
    if version not in (1, 2, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"unsupported engine checkpoint version {version!r} in {path}")
    stored_crc = data.get("crc32")
    if stored_crc is not None and int(stored_crc) != checkpoint_crc(data):
        raise CheckpointError(
            f"checkpoint CRC mismatch in {path} — file is corrupt")
    return data


def load_checkpoint_data(path: PathLike, fallback: bool = True) -> dict:
    """Read the newest valid checkpoint generation at ``path``.

    Tries ``path`` itself, then — when ``fallback`` is set — each
    rotated generation ``path.1``, ``path.2``, ... in age order,
    returning the first payload that parses and passes its CRC.  When
    every candidate fails, raises :class:`~repro.faults.CheckpointError`
    naming each file tried, so the operator sees the whole story.
    """
    path = Path(path)
    candidates = [path]
    if fallback:
        generation = 1
        while path.with_name(f"{path.name}.{generation}").exists():
            candidates.append(path.with_name(f"{path.name}.{generation}"))
            generation += 1
    problems: List[str] = []
    for candidate in candidates:
        if not candidate.exists():
            problems.append(f"{candidate}: not found")
            continue
        try:
            data = _validate_checkpoint(candidate)
        except CheckpointError as error:
            problems.append(str(error))
            continue
        if candidate is not path:
            obs.current_registry().counter(
                "repro.engine.checkpoint.fallback").inc()
        return data
    raise CheckpointError(
        "no valid checkpoint found; tried: " + "; ".join(problems))
