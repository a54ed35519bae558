"""One measured pass of each workload, driven through the program's public API.

A pass has a timed ``setup()`` (load the AP knowledge base from the
WiGLE CSV, build the localizer, open the capture; for the fleet also
start the shards, the ingest gateway and the HTTP server), a timed
``run()``, and an untimed ``teardown()``.  ``run()`` returns what the
benchmark needs to compute metrics and check the output.

With the tracer enabled, the benchmark's own wrappers record spans
around the calls into each layer: a localizer wrapper that delegates
``locate_batch`` and ``partial_fit``, a proxy around
``ShardedEngine.ingest_batch`` handed to the gateway, and spans around
capture reads, ingest calls, checkpoints and ``/locate`` requests.
"""

from __future__ import annotations

import functools
import http.client
import json
import threading
import time
from pathlib import Path
from typing import List

import numpy as np

from corpus import ORIGIN
from repro import obs
from repro.capture import open_capture
from repro.engine import CallbackSink, StreamingEngine, extract_evidence
from repro.faults import ReproError
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import import_wigle_csv
from repro.localization.base import Localizer
from repro.localization.factory import make_localizer
from repro.net80211.mac import MacAddress
from repro.service import (FrameIngestServer, ServiceServer, ShardConfig,
                           ShardedEngine, gateway, stream_capture_to)
from repro.sniffer.replay import iter_capture

#: Closed-loop reads a single-engine pass makes after each ingest call:
#: one per 32 frames of a 128-frame batch.
READS_PER_BATCH = 4


def localizer_spec(params: dict) -> str:
    if params["localizer"] == "ap-rad":
        return f"ap-rad:r_max={params['r_max_m']}"
    return f"m-loc:fallback_range_m={params['ap_range_m']}"


def load_knowledge(corpus: Path):
    return import_wigle_csv(corpus / "wigle.csv",
                            LocalTangentPlane(GeodeticCoordinate(*ORIGIN)))


def counter_total(snapshot: dict, name: str) -> float:
    return sum(value for key, value in snapshot.get("counters", {}).items()
               if obs.parse_key(key)[0] == name)


def traced_localizer(inner, tracer, span_name: str, counts: dict):
    """A :class:`Localizer` delegating to ``inner`` under spans."""
    class Traced(Localizer):
        name = inner.name
        supports_partial_fit = inner.supports_partial_fit

        def locate(self, observed):
            return inner.locate(observed)

        def locate_batch(self, observations, executor=None,
                         supervisor=None):
            observations = list(observations)
            counts["gammas"] = counts.get("gammas", 0) + len(observations)
            with tracer.span(span_name):
                return inner.locate_batch(observations, executor=executor,
                                          supervisor=supervisor)

        def fit(self, observations):
            with tracer.span("localization.fit"):
                return inner.fit(observations)

        def partial_fit(self, observations):
            with tracer.span("localization.fit"):
                return inner.partial_fit(observations)

        @property
        def is_fitted(self):
            return inner.is_fitted

        def cache_key(self):
            return inner.cache_key()

    return Traced()


def _traced_shard_localizer(factory, tracer, counts):
    return traced_localizer(factory(), tracer, "service.shard.localize",
                            counts)


class EnginePass:
    """campus-replay / aprad-refit: columnar capture → ``run_batches``."""

    def __init__(self, corpus: Path, params: dict, tracer, workdir: Path,
                 read_macs: List):
        self.corpus = corpus
        self.params = params
        self.tracer = tracer
        self.workdir = workdir
        self.read_macs = read_macs
        self.counts: dict = {}

    def setup(self) -> None:
        self.localizer = make_localizer(localizer_spec(self.params),
                                        database=load_knowledge(self.corpus))
        if self.tracer.enabled:
            self.localizer = traced_localizer(
                self.localizer, self.tracer, "localization.locate",
                self.counts)
        self.reader = open_capture(self.corpus / "capture.cap")

    def run(self) -> dict:
        p = self.params
        tracer = self.tracer
        emits: list = []
        now = time.perf_counter
        if tracer.enabled:
            def on_emit(mobile, timestamp, estimate):
                with tracer.span("sink"):
                    emits.append((mobile.value, timestamp, now()))
        else:
            def on_emit(mobile, timestamp, estimate):
                emits.append((mobile.value, timestamp, now()))
        engine = StreamingEngine(
            self.localizer, window_s=p["window_s"],
            batch_size=p["batch_size"], cache_size=p["cache_size"],
            sinks=[CallbackSink(on_emit)],
            refit_every=p.get("refit_every", 0))
        handoffs: list = []
        rows: list = []
        reads: list = []
        read_macs = self.read_macs
        saves: list = []
        save_failures = [0]
        checkpoint = self.workdir / "engine.ckpt.json"
        drain = []

        def feed():
            batches = self.reader.iter_batches(
                batch_records=p["batch_records"])
            every = p["checkpoint_every_frames"]
            frames, next_save = 0, every
            while True:
                token = tracer.begin("capture.decode", len(handoffs))
                batch = next(batches, None)
                tracer.end(token)
                if batch is None:
                    break
                handoffs.append(now())
                rows.append(len(batch))
                token = tracer.begin("engine.ingest", len(handoffs) - 1)
                yield batch
                tracer.end(token)
                frames += len(batch)
                for _ in range(READS_PER_BATCH):
                    mac = read_macs[len(reads) % len(read_macs)]
                    start = now()
                    engine.tracker.latest(mac)
                    reads.append(now() - start)
                if every and frames >= next_save:
                    next_save += every
                    start = now()
                    try:
                        with tracer.span("checkpoint.save"):
                            engine.save_checkpoint(checkpoint)
                    except (ReproError, OSError):
                        save_failures[0] += 1
                    else:
                        saves.append((now() - start,
                                      checkpoint.stat().st_size))
            drain.append(tracer.begin("engine.drain"))

        stats = engine.run_batches(feed())
        end = now()
        for token in drain:
            tracer.end(token)
        tracker = engine.tracker
        fixes = {}
        for mobile in tracker.devices():
            position = tracker.latest(mobile).estimate.position
            fixes[mobile.value] = (position.x, position.y)
        return {
            "wall_s": end - handoffs[0],
            "frames": sum(rows),
            "handoffs": handoffs,
            "emits": emits,
            "reads": reads,
            "read_failures": 0,
            "saves": saves,
            "save_failures": save_failures[0],
            "stats": stats,
            "snapshot": engine.metrics_snapshot(),
            "fixes": fixes,
            "localizer": self.localizer,
            "ingest_calls": len(handoffs),
            "capture_rows": sum(rows),
        }

    def teardown(self) -> None:
        self.reader.close()


class RouteProxy:
    """Stands in for the fleet at the gateway: stamps each batch handoff.

    Only the handoff time and the batch's length are kept, so the
    frames are free once the fleet has them.  Which frames a batch
    held is rebuilt after the pass (:func:`fleet_evidence`).
    """

    def __init__(self, fleet, tracer):
        self.fleet = fleet
        self.tracer = tracer
        self.handoffs: list = []

    def ingest_batch(self, batch) -> None:
        self.handoffs.append((time.perf_counter(), len(batch)))
        with self.tracer.span("service.route", len(self.handoffs) - 1):
            self.fleet.ingest_batch(batch)

    def __getattr__(self, name):
        return getattr(self.fleet, name)


class FleetPass:
    """fleet-ingest: collector → gateway → 2 socket shards, /locate reads."""

    def __init__(self, corpus: Path, params: dict, tracer, workdir: Path,
                 read_macs: List):
        self.corpus = corpus
        self.params = params
        self.tracer = tracer
        self.workdir = workdir
        self.read_macs = [str(mac) for mac in read_macs]
        self.counts: dict = {}
        self.emits: list = []

    def setup(self) -> None:
        p = self.params
        now = time.perf_counter
        emits = self.emits
        factory = self.plain_factory = functools.partial(
            make_localizer, localizer_spec(p),
            database=load_knowledge(self.corpus))
        if self.tracer.enabled:
            factory = functools.partial(_traced_shard_localizer, factory,
                                        self.tracer, self.counts)
        sink = CallbackSink(
            lambda mobile, timestamp, estimate:
            emits.append((mobile.value, timestamp, now())))
        config = ShardConfig(window_s=p["window_s"],
                             batch_size=p["batch_size"],
                             cache_size=p["cache_size"],
                             sink_specs=(sink,))
        self.checkpoint_dir = self.workdir / "fleet-ckpt"
        self.fleet = ShardedEngine(
            factory, shards=p["shards"], transport="socket", config=config,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=p["checkpoint_every_frames"])
        self.proxy = RouteProxy(self.fleet, self.tracer)
        self.gateway = FrameIngestServer(self.proxy)
        self.http = ServiceServer(self.fleet).start()

    def _operator(self, stop: threading.Event, out: dict) -> None:
        host, port = self.http.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        tracer = self.tracer
        index = 0
        while not stop.is_set():
            mac = self.read_macs[index % len(self.read_macs)]
            index += 1
            start = time.perf_counter()
            token = tracer.begin("http.locate")
            try:
                conn.request("GET", f"/locate?device={mac}")
                response = conn.getresponse()
                response.read()
                ok = response.status in (200, 404)
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=10.0)
            tracer.end(token)
            out["latencies"].append(time.perf_counter() - start)
            if not ok:
                out["failures"] += 1
        conn.close()

    def _collector(self, out: dict) -> None:
        tracer = self.tracer
        original = gateway.iter_capture
        if tracer.enabled:
            def traced_iter_capture(*args, **kwargs):
                frames = original(*args, **kwargs)
                while True:
                    token = tracer.begin("capture.decode")
                    try:
                        item = next(frames)
                    except StopIteration:
                        tracer.end(token)
                        return
                    tracer.end(token)
                    yield item
            gateway.iter_capture = traced_iter_capture
        try:
            out["start"] = time.perf_counter()
            with obs.use_registry(out["registry"]), \
                    tracer.span("gateway.stream"):
                out["stats"] = stream_capture_to(
                    self.corpus / "capture.cap", self.gateway.address)
            out["end"] = time.perf_counter()
        except Exception as error:  # reported as a failed run
            out["error"] = f"{type(error).__name__}: {error}"
        finally:
            gateway.iter_capture = original

    def run(self) -> dict:
        reads = {"latencies": [], "failures": 0}
        stream = {"registry": obs.MetricsRegistry()}
        stop = threading.Event()
        operator = threading.Thread(target=self._operator,
                                    args=(stop, reads), name="operator")
        collector = threading.Thread(target=self._collector,
                                     args=(stream,), name="collector")
        operator.start()
        collector.start()
        collector.join(timeout=150.0)
        stop.set()
        operator.join(timeout=30.0)
        if collector.is_alive() or operator.is_alive():
            raise RuntimeError("fleet pass did not finish in time")
        if "error" in stream:
            raise RuntimeError(f"collector failed: {stream['error']}")
        host, port = self.http.address
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            conn.request("GET", "/snapshot")
            body = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        fixes = {MacAddress.parse(mac).value: (fix["x"], fix["y"])
                 for mac, fix in body["fixes"].items()}
        ingest = stream["stats"]
        # The collector's own counters (capture reads) join the fleet's.
        snapshot = self.fleet.metrics_snapshot()
        counters = snapshot["counters"]
        for key, value in stream["registry"].snapshot()["counters"].items():
            counters[key] = counters.get(key, 0) + value
        return {
            "wall_s": stream["end"] - stream["start"],
            "frames": ingest.frames,
            "handoffs": self.proxy.handoffs,
            "emits": self.emits,
            "reads": reads["latencies"],
            "read_failures": reads["failures"],
            "saves": [],
            "save_failures": 0,
            "stats": self.fleet.stats(),
            "snapshot": snapshot,
            "fixes": fixes,
            "localizer": self.plain_factory(),
            "ingest_calls": ingest.batches,
            "capture_rows": ingest.frames,
            "ingest": ingest,
            "checkpoint_bytes": sum(
                path.stat().st_size
                for path in self.checkpoint_dir.glob("*.ckpt.json")),
        }

    def teardown(self) -> None:
        self.http.stop()
        self.gateway.close()
        self.fleet.stop()


PASSES = {"campus-replay": EnginePass, "aprad-refit": EnginePass,
          "fleet-ingest": FleetPass}


class EvidenceIndex:
    """Finds, per estimate, the handoff batch of the evidence behind it.

    That is the newest-arrived batch holding evidence for the device
    that was handed over by the time the estimate came out and is not
    newer than the estimate's timestamp (the device's evidence
    frontier).  Arrival order, not timestamp, decides "newest", so a
    late frame that changes a device's Γ is charged from its own
    arrival.
    """

    #: Separates devices in the combined (device, batch) sort key.
    SPAN = 1 << 32

    def __init__(self, mobile: np.ndarray, ts: np.ndarray,
                 batch: np.ndarray):
        self.macs, dense = np.unique(mobile, return_inverse=True)
        key = dense.astype(np.int64) * self.SPAN + batch
        order = np.lexsort((ts, key))
        key, ts = key[order], ts[order]
        # One entry per (device, batch): its earliest evidence time.
        first = np.r_[True, key[1:] != key[:-1]]
        self.key, self.min_ts = key[first], ts[first]

    def lookup(self, mobile: np.ndarray, ts: np.ndarray,
               current: np.ndarray) -> np.ndarray:
        """The evidence batch per estimate (-1: none).

        ``current`` is the last batch handed over before each estimate.
        """
        dense = np.minimum(np.searchsorted(self.macs, mobile),
                           len(self.macs) - 1)
        base = np.where(self.macs[dense] == mobile,
                        dense.astype(np.int64) * self.SPAN, -1)
        pos = np.searchsorted(self.key, base + current, side="right") - 1
        key, min_ts = self.key, self.min_ts

        def same_device(i, p):
            return p >= 0 and base[i] >= 0 and key[p] >= base[i]

        found = np.full(len(mobile), -1, np.int64)
        for i, p in enumerate(pos.tolist()):
            # Skip batches whose evidence is all newer than the estimate.
            while same_device(i, p) and min_ts[p] > ts[i]:
                p -= 1
            if same_device(i, p):
                found[i] = key[p] - base[i]
        return found


def fleet_evidence(capture: Path
                   ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(mobile, timestamp, position) per evidence frame the collector sends.

    The collector streams ``iter_capture`` in order and splits it into
    consecutive batches, so a frame's position in this replay, with the
    handoff lengths, names the batch that carried it.
    """
    mobile, ts, position = [], [], []
    for index, received in enumerate(iter_capture(capture)):
        evidence = extract_evidence(received)
        if evidence is not None:
            mobile.append(evidence.mobile.value)
            ts.append(evidence.timestamp)
            position.append(index)
    return (np.array(mobile, np.uint64), np.array(ts),
            np.array(position, np.int64))
