"""Checkpoint/restore: an interrupted engine run equals an uninterrupted one."""

import json

import pytest

from repro.engine import StreamingEngine, checkpoint_crc
from repro.localization import MLoc
from repro.net80211.frames import probe_request, probe_response
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame
from repro.net80211.ssid import Ssid


def station(index):
    return MacAddress(0x020000000000 + index)


def build_stream(square_db, devices=8, rounds=3):
    """Several rounds of evidence; Γ sets shrink and grow over time."""
    frames = []
    t = 0.0
    records = list(square_db)
    for round_index in range(rounds):
        for d in range(devices):
            # Later rounds drop one AP so Γ actually changes.
            heard = records if round_index % 2 == 0 else records[:-1]
            frames.append(ReceivedFrame(
                probe_request(station(d), 6, t, ssid=Ssid("home")),
                rssi_dbm=-70.0, snr_db=20.0, rx_channel=6,
                rx_timestamp=t))
            for record in heard:
                t += 0.01
                frame = probe_response(record.bssid, station(d), 6, t,
                                       ssid=record.ssid)
                frames.append(ReceivedFrame(frame, rssi_dbm=-70.0,
                                            snr_db=20.0, rx_channel=6,
                                            rx_timestamp=t))
            t += 2.0
        t += 40.0  # next round falls outside the co-observation window
    return frames


def final_tracks(engine):
    """Comparable (timestamp, x, y, algorithm, k) track tuples."""
    return {
        str(mobile): [
            (point.timestamp,
             round(point.estimate.position.x, 9),
             round(point.estimate.position.y, 9),
             point.estimate.algorithm,
             point.estimate.used_ap_count)
            for point in engine.tracker.track_of(mobile)
        ]
        for mobile in engine.tracker.devices()
    }


@pytest.mark.parametrize("cut", [5, 37, 73])
def test_roundtrip_matches_uninterrupted_run(square_db, cut):
    frames = build_stream(square_db)
    assert cut < len(frames)

    uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                    batch_size=3)
    uninterrupted.run(iter(frames))

    first = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3)
    first.ingest_stream(frames[:cut])  # stop mid-stream, no final drain
    blob = json.dumps(first.checkpoint())  # must be JSON all the way

    resumed = StreamingEngine.restore(json.loads(blob), MLoc(square_db))
    resumed.ingest_stream(frames[cut:])
    resumed.flush()

    assert final_tracks(resumed) == final_tracks(uninterrupted)
    assert (resumed.stats().estimates_emitted
            == uninterrupted.stats().estimates_emitted)
    assert (resumed.stats().frames_ingested
            == uninterrupted.stats().frames_ingested)


def test_save_and_load_checkpoint_file(square_db, tmp_path):
    frames = build_stream(square_db, devices=3, rounds=1)
    engine = StreamingEngine(MLoc(square_db), batch_size=2)
    engine.ingest_stream(frames)
    path = tmp_path / "engine.ckpt.json"
    engine.save_checkpoint(path)

    restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
    assert restored.gamma_state.window_s == engine.gamma_state.window_s
    assert restored.scheduler.to_list() == engine.scheduler.to_list()
    assert final_tracks(restored) == final_tracks(engine)
    assert (restored.stats().frames_ingested
            == engine.stats().frames_ingested)


def test_restore_rejects_unknown_version(square_db):
    with pytest.raises(ValueError):
        StreamingEngine.restore({"engine_checkpoint": 99},
                                MLoc(square_db))


def test_restored_tracks_carry_positions_not_regions(square_db):
    frames = build_stream(square_db, devices=2, rounds=1)
    engine = StreamingEngine(MLoc(square_db), batch_size=2)
    engine.ingest_stream(frames)
    engine.flush()
    restored = StreamingEngine.restore(engine.checkpoint(),
                                       MLoc(square_db))
    for mobile in restored.tracker.devices():
        for point in restored.tracker.track_of(mobile):
            assert point.estimate.region is None
            assert point.estimate.algorithm == "m-loc"


class TestRemovedPoolConfig:
    """The engine no longer has a worker pool; old files still resume."""

    def test_new_checkpoints_omit_pool_settings(self, square_db):
        config = StreamingEngine(MLoc(square_db)).checkpoint()["config"]
        assert "workers" not in config
        assert "worker_timeout_s" not in config

    def test_pool_keywords_are_gone(self, square_db):
        with pytest.raises(TypeError):
            StreamingEngine(MLoc(square_db), workers=2)

    @pytest.mark.parametrize("version", [1, 2, 3])
    @pytest.mark.parametrize("cut", [5, 37, 73])
    def test_checkpoint_with_pool_keys_matches_uninterrupted(
            self, square_db, tmp_path, version, cut):
        frames = build_stream(square_db)
        uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                        batch_size=3)
        uninterrupted.run(iter(frames))

        first = StreamingEngine(MLoc(square_db), window_s=30.0,
                                batch_size=3)
        first.ingest_stream(frames[:cut])
        data = json.loads(json.dumps(first.checkpoint()))
        # What a file written by a pool-era engine carries.
        data["config"].update(workers=4, worker_timeout_s=2.0)
        data["engine_checkpoint"] = version
        if version == 1:
            del data["metrics"]
        if version == 3:
            data["crc32"] = checkpoint_crc(data)
        path = tmp_path / "pool-era.ckpt.json"
        path.write_text(json.dumps(data))

        resumed = StreamingEngine.load_checkpoint(path, MLoc(square_db))
        resumed.ingest_stream(frames[cut:])
        resumed.flush()

        assert final_tracks(resumed) == final_tracks(uninterrupted)
        assert (resumed.stats().estimates_emitted
                == uninterrupted.stats().estimates_emitted)
