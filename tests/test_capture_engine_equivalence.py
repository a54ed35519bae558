"""Cross-format engine equivalence: JSONL vs columnar, record vs batch.

The acceptance bar for the columnar store is byte-identical engine
output — same checkpoints (minus volatile metrics), same estimates —
whichever codec the capture sits in and whichever replay seam feeds
the engine.
"""

import json

import pytest

from repro.capture import convert_capture, make_capture_writer
from repro.engine import StreamingEngine, make_sink
from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization import MLoc
from repro.net80211.frames import (
    Dot11Frame,
    FrameType,
    beacon,
    probe_request,
    probe_response,
)
from repro.net80211.mac import BROADCAST_MAC, MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid
from repro.service.core import ShardedEngine
from repro.sniffer.replay import iter_capture, iter_capture_batches

GRID = 4


def ap_mac(index):
    return MacAddress(0x001B63000000 + index)


def mobile_mac(index):
    return MacAddress(0x020000000000 + index)


def build_database():
    return ApDatabase(
        ApRecord(bssid=ap_mac(i), ssid=Ssid("campus"),
                 location=Point((i % GRID) * 80.0, (i // GRID) * 80.0),
                 max_range_m=120.0)
        for i in range(GRID * GRID))


def generate_records(count=600):
    records = []
    for i in range(count):
        ts = i * 0.05
        m = mobile_mac(i % 7)
        ap = ap_mac((i // 3) % (GRID * GRID))
        mix = i % 5
        if mix == 0:
            frame = probe_request(m, channel=6, timestamp=ts,
                                  ssid=Ssid("campus"))
        elif mix in (1, 2):
            frame = probe_response(ap, m, channel=6, timestamp=ts,
                                   ssid=Ssid("campus"))
        elif mix == 3:
            frame = Dot11Frame(frame_type=FrameType.DATA, source=m,
                               destination=ap, channel=6, timestamp=ts,
                               ssid=Ssid(""), bssid=ap)
        else:
            frame = beacon(ap, channel=6, timestamp=ts,
                           ssid=Ssid("campus"))
        records.append(ReceivedFrame(frame, -60.0 - (i % 15), 20.0, 6, ts))
    return records


def write_capture(path, fmt, records, **options):
    with make_capture_writer(path, format=fmt, **options) as writer:
        for record in records:
            writer.write(record)


def stripped_checkpoint(engine):
    """Engine checkpoint minus volatile timing/metrics payloads."""
    state = engine.checkpoint()
    state.pop("metrics", None)
    state.pop("stage_seconds", None)
    return json.dumps(state, sort_keys=True, default=str)


def fresh_engine():
    return StreamingEngine(MLoc(build_database()), window_s=120.0,
                           batch_size=8, sinks=[make_sink("latest")])


def run_records(path):
    engine = fresh_engine()
    engine.run(iter_capture(path))
    return engine


def run_batched(path, batch_records=None):
    engine = fresh_engine()
    engine.run_batches(iter_capture_batches(path,
                                            batch_records=batch_records))
    return engine


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    root = tmp_path_factory.mktemp("captures")
    records = generate_records()
    jsonl = root / "capture.jsonl"
    columnar = root / "capture.cap"
    write_capture(jsonl, "jsonl", records)
    write_capture(columnar, "columnar", records, block_records=64)
    return {"jsonl": jsonl, "columnar": columnar, "records": records}


class TestCheckpointEquivalence:
    def test_jsonl_vs_columnar_record_path(self, captures):
        a = run_records(captures["jsonl"])
        b = run_records(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_record_vs_batch_path(self, captures):
        a = run_records(captures["columnar"])
        b = run_batched(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_batch_path_both_formats(self, captures):
        a = run_batched(captures["jsonl"])
        b = run_batched(captures["columnar"])
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_batch_size_does_not_change_output(self, captures):
        a = run_batched(captures["columnar"], batch_records=17)
        b = run_batched(captures["columnar"], batch_records=256)
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_converted_capture_equivalent(self, captures, tmp_path):
        converted = tmp_path / "converted.cap"
        convert_capture(captures["jsonl"], converted, block_records=50)
        a = run_records(captures["jsonl"])
        b = run_batched(converted)
        assert stripped_checkpoint(a) == stripped_checkpoint(b)

    def test_estimates_and_stats_match(self, captures):
        a = run_records(captures["jsonl"])
        b = run_batched(captures["columnar"])
        sa, sb = a.stats(), b.stats()
        assert sa.frames_ingested == sb.frames_ingested
        assert sa.probe_requests == sb.probe_requests
        assert sa.evidence_events == sb.evidence_events
        assert sa.estimates_emitted == sb.estimates_emitted
        fixes_a = a.sinks[0].fixes
        fixes_b = b.sinks[0].fixes
        assert set(fixes_a) == set(fixes_b)
        for mobile, (ts, est) in fixes_a.items():
            ts_b, est_b = fixes_b[mobile]
            assert ts == ts_b
            assert est.position == est_b.position


class TestShardedEngine:
    def _sharded(self):
        return ShardedEngine(lambda: MLoc(build_database()), shards=3)

    def test_batch_ingest_matches_record_ingest(self, captures):
        a, b = self._sharded(), self._sharded()
        try:
            for received in iter_capture(captures["columnar"]):
                a.ingest(received)
            stats_a = a.drain()
            b.ingest_batches(iter_capture_batches(captures["columnar"]))
            stats_b = b.drain()
            assert stats_a.frames_ingested == stats_b.frames_ingested
            assert stats_a.estimates_emitted == stats_b.estimates_emitted
            assert a.snapshot().keys() == b.snapshot().keys()
        finally:
            a.stop()
            b.stop()


class TestBatchStageTiming:
    def test_ingest_stage_observed_once_per_batch_call(self, captures):
        engine = fresh_engine()
        calls = 0
        for batch in iter_capture_batches(captures["columnar"],
                                          batch_records=64):
            engine.ingest_batch(batch)
            calls += 1
        series = [inst for inst in
                  engine.registry.find("repro.engine.stage.duration")
                  if dict(inst.labels) == {"stage": "ingest"}]
        assert len(series) == 1
        assert series[0].count == calls
        assert series[0].sum > 0.0
