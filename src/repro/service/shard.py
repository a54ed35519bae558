"""One shard: a StreamingEngine driven by bus messages.

:class:`ShardRuntime` is the transport-agnostic worker body.  The same
loop runs inside a thread (:class:`~repro.service.bus.QueueBus`) or an
OS process (:class:`~repro.service.bus.MpQueueBus`): it pulls envelopes
off its inbox, feeds frame batches through a bounded
:class:`~repro.engine.reorder.ReorderBuffer` into its private
:class:`~repro.engine.StreamingEngine`, and answers the serving-layer
requests (`locate`, `health`, `stats`, `metrics`, `snapshot`, `drain`)
on its outbox.

Checkpoints are the shard's own durability: a ``("checkpoint", marker)``
barrier drains the reorder buffer (so the checkpoint covers every frame
delivered before the barrier), writes a v3 engine checkpoint, and acks
the marker — at which point the router may trim its retention buffer.
A shard that dies is restarted from that file plus a replay of the
retained frames, which reproduces the lost state exactly because engine
ingest is deterministic.

Message protocol (all tuples, all picklable)::

    router -> shard                      shard -> router
    ("frames", [ReceivedFrame, ...])
    ("checkpoint", marker)               ("ckpt_ack", marker)
    ("request", req_id, kind, payload)   ("reply", req_id, result)
    ("stop",)
    ("crash",)          # test/chaos: die without cleanup
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.engine import ReorderBuffer, StreamingEngine, make_sink
from repro.engine.stats import EngineStats
from repro.faults import ReproError
from repro.localization.base import LocalizationEstimate, Localizer
from repro.net80211.mac import MacAddress


@dataclass(frozen=True)
class ShardConfig:
    """Per-shard engine configuration (picklable, shared by the fleet).

    Mirrors the :class:`~repro.engine.StreamingEngine` constructor
    surface the service exposes, plus the shard-ingest reorder bound.
    """

    window_s: float = 30.0
    batch_size: int = 32
    cache_size: int = 4096
    refit_every: int = 0
    quarantine_after: int = 3
    reorder_capacity: int = 64
    checkpoint_keep: int = 1
    #: Sink spec strings built per shard via
    #: :func:`repro.engine.make_sink` ("null", "latest", ...).  Specs
    #: only — live objects would not survive the process transport.
    sink_specs: Tuple[str, ...] = ()


#: Zero-arg callable building a fresh localizer for one shard.  For the
#: process transport it must be picklable — ``functools.partial`` of a
#: module-level factory (e.g. ``make_localizer``) qualifies.
LocalizerFactory = Callable[[], Localizer]


class ShardRuntime:
    """The worker body: one engine, one reorder buffer, one mailbox."""

    def __init__(self, shard_id: int, factory: LocalizerFactory,
                 config: ShardConfig = ShardConfig(),
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False,
                 service_run_id: Optional[str] = None):
        self.shard_id = shard_id
        self.config = config
        self.checkpoint_path = checkpoint_path
        self.service_run_id = service_run_id
        self.reorder: ReorderBuffer = ReorderBuffer(config.reorder_capacity)
        sinks = [make_sink(spec) for spec in config.sink_specs]
        if resume and checkpoint_path is not None:
            self.engine = StreamingEngine.load_checkpoint(
                checkpoint_path, factory(), sinks=sinks)
        else:
            self.engine = StreamingEngine(
                factory(),
                window_s=config.window_s,
                batch_size=config.batch_size,
                cache_size=config.cache_size,
                sinks=sinks,
                refit_every=config.refit_every,
                quarantine_after=config.quarantine_after)
        self._c_messages = self.engine.registry.counter(
            "repro.service.shard.messages", shard=shard_id)
        self._c_checkpoints = self.engine.registry.counter(
            "repro.service.shard.checkpoints", shard=shard_id)

    # ------------------------------------------------------------------
    # Message loop
    # ------------------------------------------------------------------

    def serve(self, inbox, outbox, crash_event=None) -> None:
        """Consume the inbox until ``stop`` / ``crash`` (blocking).

        ``crash_event`` (thread transport only) simulates a hard crash:
        once set, the runtime abandons its engine — no drain, no
        checkpoint — exactly like a killed process.
        """
        while True:
            message = inbox.get()
            if crash_event is not None and crash_event.is_set():
                return
            self._c_messages.inc()
            kind = message[0]
            if kind == "frames":
                self._ingest_batch(message[1])
            elif kind == "checkpoint":
                self._checkpoint(outbox, message[1])
            elif kind == "request":
                _, req_id, what, payload = message
                outbox.put(("reply", req_id, self._answer(what, payload)))
            elif kind == "stop":
                return
            elif kind == "crash":
                return
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown bus message kind {kind!r}")

    def _ingest_batch(self, frames) -> None:
        engine = self.engine
        with obs.use_registry(engine.registry):
            for received in frames:
                for ready in self.reorder.push(received.rx_timestamp,
                                               received):
                    engine.ingest(ready)

    def _checkpoint(self, outbox, marker: int) -> None:
        """Checkpoint barrier: settle the reorder buffer, write, ack."""
        engine = self.engine
        with obs.use_registry(engine.registry):
            for ready in self.reorder.drain():
                engine.ingest(ready)
        if self.checkpoint_path is None:
            outbox.put(("ckpt_ack", marker))
            return
        try:
            # The marker rides inside the checkpoint (CRC-covered), so
            # even if this ack is lost with a crash, the router can
            # recover exactly how much retention the file covers.
            engine.save_checkpoint(self.checkpoint_path,
                                   keep=self.config.checkpoint_keep,
                                   extra={"service_marker": marker,
                                          "service_run": self.service_run_id,
                                          "shard": self.shard_id})
        except (ReproError, OSError) as error:
            # No ack: the router keeps its retention, so nothing is
            # lost — the next barrier tries again.
            engine.registry.counter(
                "repro.service.shard.checkpoint_failures",
                error=type(error).__name__).inc()
            return
        self._c_checkpoints.inc()
        outbox.put(("ckpt_ack", marker))

    # ------------------------------------------------------------------
    # Request answers (the serving layer's read side)
    # ------------------------------------------------------------------

    def _answer(self, what: str, payload) -> Any:
        if what == "locate":
            return self._locate(MacAddress.parse(payload))
        if what == "snapshot":
            return self._snapshot()
        if what == "health":
            return self._health()
        if what == "stats":
            return self.engine.stats()
        if what == "metrics":
            return self.engine.metrics_snapshot()
        if what == "drain":
            return self._drain()
        raise ValueError(f"unknown request kind {what!r}")

    def _locate(self, mobile: MacAddress
                ) -> Optional[Tuple[float, LocalizationEstimate]]:
        point = self.engine.tracker.latest(mobile)
        if point is None:
            return None
        return point.timestamp, point.estimate

    def _snapshot(self) -> Dict[MacAddress,
                                Tuple[float, LocalizationEstimate]]:
        tracker = self.engine.tracker
        fixes = {}
        for mobile in tracker.devices():
            point = tracker.latest(mobile)
            if point is not None:
                fixes[mobile] = (point.timestamp, point.estimate)
        return fixes

    def _health(self) -> dict:
        engine = self.engine
        return {
            "shard": self.shard_id,
            "alive": True,
            "frames_ingested": int(engine._c_frames.value),
            "devices_seen": int(engine._g_devices.value),
            "dirty_pending": engine.scheduler.pending(),
            "reorder_pending": self.reorder.pending,
            "quarantined": len(engine.quarantined()),
        }

    def _drain(self) -> dict:
        """Settle the shard completely and hand everything back."""
        engine = self.engine
        with obs.use_registry(engine.registry):
            for ready in self.reorder.drain():
                engine.ingest(ready)
        emitted = engine.drain()
        return {
            "shard": self.shard_id,
            "emitted": emitted,
            "stats": engine.stats(),
            "fixes": self._snapshot(),
            "metrics": engine.metrics_snapshot(),
        }


def run_shard(shard_id: int, factory: LocalizerFactory,
              config: ShardConfig, checkpoint_path: Optional[str],
              resume: bool, service_run_id: Optional[str],
              inbox, outbox, crash_event=None) -> None:
    """Worker entry point (module-level, so process targets pickle).

    A construction failure (corrupt checkpoint, factory error) is
    reported on the outbox instead of silently dying, so the router's
    supervised restart can surface it.

    On the way out — clean stop, simulated crash, or construction
    failure — endpoints that hold transport resources (the socket
    transport's :class:`~repro.service.socketbus.ShardChannel`) are
    closed, so no reconnect thread outlives its worker.  Queue
    endpoints have no ``close`` and are left alone.
    """
    try:
        try:
            runtime = ShardRuntime(shard_id, factory, config=config,
                                   checkpoint_path=checkpoint_path,
                                   resume=resume,
                                   service_run_id=service_run_id)
        except Exception as error:
            outbox.put(("fatal", f"{type(error).__name__}: {error}"))
            raise
        runtime.serve(inbox, outbox, crash_event=crash_event)
    finally:
        from repro.service.socketbus import ShardChannel
        for endpoint in {id(inbox): inbox, id(outbox): outbox}.values():
            if isinstance(endpoint, ShardChannel):
                endpoint.close()


# Re-exported for the stats-merging router; keeps shard.py the one
# import the worker side needs.
__all__ = ["ShardConfig", "ShardRuntime", "run_shard", "EngineStats"]
