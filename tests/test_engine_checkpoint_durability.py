"""Durable checkpoints: atomicity, CRC integrity, rotation, fallback."""

import json

import pytest

from repro.engine import StreamingEngine, checkpoint_crc, load_checkpoint_data
from repro.faults import (
    CheckpointError,
    FaultInjector,
    FaultSpec,
    use_injector,
)
from repro.localization import MLoc

from tests.test_engine_checkpoint import build_stream, final_tracks


def run_partial(square_db, frames):
    engine = StreamingEngine(MLoc(square_db), window_s=30.0, batch_size=3)
    engine.ingest_stream(frames)
    return engine


class TestAtomicSave:
    def test_save_leaves_no_temp_file(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_payload_carries_valid_crc(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        data = json.loads(path.read_text())
        assert data["engine_checkpoint"] == 3
        assert data["crc32"] == checkpoint_crc(data)

    def test_body_is_canonical_json_with_crc_last(self, square_db,
                                                  tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=3, rounds=2))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path, extra={"zeta": 1, "alpha": [2]})
        text = path.read_text()
        data = load_checkpoint_data(path)
        assert data["crc32"] == checkpoint_crc(json.loads(text))
        body = {key: value for key, value in data.items()
                if key != "crc32"}
        assert text == (json.dumps(body, sort_keys=True)[:-1]
                        + f', "crc32": {data["crc32"]}}}')
        assert list(data)[-1] == "crc32"

    def test_save_restore_save_is_stable(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=3, rounds=2))
        first = tmp_path / "first.ckpt"
        second = tmp_path / "second.ckpt"
        engine.save_checkpoint(first)
        StreamingEngine.load_checkpoint(
            first, MLoc(square_db)).save_checkpoint(second)
        payloads = []
        for path in (first, second):
            data = json.loads(path.read_text())
            for volatile in ("crc32", "metrics", "stage_seconds"):
                data.pop(volatile)
            payloads.append(data)
        assert payloads[0] == payloads[1]

    def test_crash_mid_checkpoint_preserves_previous(self, square_db,
                                                     tmp_path):
        frames = build_stream(square_db)
        engine = run_partial(square_db, frames[:30])
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        before = path.read_bytes()
        engine.ingest_stream(frames[30:60])
        injector = FaultInjector(
            [FaultSpec("engine.checkpoint", mode="raise",
                       error="CheckpointError")])
        with use_injector(injector):
            with pytest.raises(CheckpointError):
                engine.save_checkpoint(path)
        # The fault hit between temp-write and rename: the previous
        # generation is untouched and still restores.
        assert path.read_bytes() == before
        StreamingEngine.load_checkpoint(path, MLoc(square_db))

    def test_save_rejects_bad_keep(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        with pytest.raises(ValueError):
            engine.save_checkpoint(tmp_path / "x.ckpt", keep=0)


class TestIntegrity:
    def test_tampered_checkpoint_raises(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path)
        data = json.loads(path.read_text())
        data["counters"]["frames_ingested"] += 1  # bit-rot stand-in
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            load_checkpoint_data(path)
        # CheckpointError subclasses ValueError: legacy handlers hold.
        with pytest.raises(ValueError):
            StreamingEngine.restore(data, MLoc(square_db))

    def test_truncated_checkpoint_raises(self, square_db, tmp_path):
        path = tmp_path / "engine.ckpt"
        path.write_text('{"engine_checkpoint": 3, "conf')
        with pytest.raises(CheckpointError, match="no valid checkpoint"):
            load_checkpoint_data(path)

    def test_missing_checkpoint_names_tried_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint_data(tmp_path / "absent.ckpt")

    def test_v2_checkpoint_without_crc_still_restores(self, square_db,
                                                      tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        data = engine.checkpoint()
        data["engine_checkpoint"] = 2
        del data["quarantine"]
        del data["failure_counts"]
        path = tmp_path / "v2.ckpt"
        path.write_text(json.dumps(data))
        restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
        assert restored.stats().frames_ingested == (
            engine.stats().frames_ingested)


    def test_unsorted_v3_body_still_restores(self, square_db, tmp_path):
        # Earlier writers stored the payload in insertion order, with
        # the CRC over its canonical (sorted) form.
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=2))
        data = engine.checkpoint()
        data["crc32"] = checkpoint_crc(data)
        path = tmp_path / "unsorted.ckpt"
        path.write_text(json.dumps(data))
        restored = StreamingEngine.load_checkpoint(path, MLoc(square_db))
        assert restored.checkpoint()["gamma"] == data["gamma"]
        assert restored.stats().frames_ingested == (
            engine.stats().frames_ingested)


class TestRotation:
    def test_generations_rotate_up_to_keep(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        path = tmp_path / "engine.ckpt"
        for _ in range(4):
            engine.save_checkpoint(path, keep=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["engine.ckpt", "engine.ckpt.1", "engine.ckpt.2"]

    def test_keep_one_overwrites_in_place(self, square_db, tmp_path):
        engine = StreamingEngine(MLoc(square_db))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path, keep=1)
        engine.save_checkpoint(path, keep=1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["engine.ckpt"]

    def test_corrupt_newest_falls_back_to_rotation(self, square_db,
                                                   tmp_path):
        frames = build_stream(square_db)
        cut = 37
        path = tmp_path / "engine.ckpt"

        uninterrupted = StreamingEngine(MLoc(square_db), window_s=30.0,
                                        batch_size=3)
        uninterrupted.run(iter(frames))

        engine = run_partial(square_db, frames[:cut])
        engine.save_checkpoint(path, keep=2)
        engine.save_checkpoint(path, keep=2)
        # The newest generation is torn mid-write (killed process).
        path.write_text(path.read_text()[: path.stat().st_size // 2])

        resumed = StreamingEngine.load_checkpoint(path, MLoc(square_db))
        resumed.ingest_stream(frames[cut:])
        resumed.flush()
        # Resumed-from-rotation still equals the uninterrupted run,
        # tracks and cumulative metrics alike.
        assert final_tracks(resumed) == final_tracks(uninterrupted)
        assert resumed.stats().frames_ingested == (
            uninterrupted.stats().frames_ingested)

    def test_fallback_disabled_fails_fast(self, square_db, tmp_path):
        engine = run_partial(square_db,
                             build_stream(square_db, devices=2, rounds=1))
        path = tmp_path / "engine.ckpt"
        engine.save_checkpoint(path, keep=2)
        engine.save_checkpoint(path, keep=2)
        path.write_text("garbage")
        load_checkpoint_data(path)  # fallback finds .1
        with pytest.raises(CheckpointError):
            load_checkpoint_data(path, fallback=False)
