"""`marauder engine` CLI tests: end-to-end run, resume, clean failures."""

import re

import pytest

from repro.cli import main
from repro.geo.enu import LocalTangentPlane
from repro.geo.wgs84 import GeodeticCoordinate
from repro.knowledge.wigle import export_wigle_csv
from repro.net80211.capture_file import CaptureWriter
from repro.sim import build_attack_scenario

ORIGIN = GeodeticCoordinate(42.6555, -71.3262)


@pytest.fixture(scope="module")
def sim_capture(tmp_path_factory):
    """A simulated campus capture + matching WiGLE knowledge."""
    tmp_path = tmp_path_factory.mktemp("engine_cli")
    scenario = build_attack_scenario(seed=6, ap_count=40, area_m=350.0,
                                     bystander_count=4)
    scenario.world.sniffer.keep_frames = True
    scenario.world.run(duration_s=120.0)

    capture_path = tmp_path / "capture.jsonl"
    with CaptureWriter(capture_path) as writer:
        for received in scenario.world.sniffer.captured:
            writer.write(received)
    wigle_path = tmp_path / "wigle.csv"
    export_wigle_csv(scenario.truth_db, wigle_path,
                     LocalTangentPlane(ORIGIN))
    return scenario, capture_path, wigle_path


class TestEngineCommand:
    def test_streams_capture_and_prints_stats(self, sim_capture, capsys):
        scenario, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PipelineStats" in out
        assert "frames ingested" in out
        assert "hit rate" in out
        assert "estimates/s" in out
        # The victim walked through the campus: it got localized.
        assert str(scenario.victim.mac) in out

    def test_no_cache_flag(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path), "--no-cache"])
        assert code == 0
        assert "cache             : disabled" in capsys.readouterr().out

    def test_refit_every_reports_fit_time(self, sim_capture, capsys):
        scenario, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "re-fits" in out
        assert "fit time" in out
        # The streaming localizer is AP-Rad, not the M-Loc fallback.
        assert str(scenario.victim.mac) in out

    def test_checkpoint_then_resume(self, sim_capture, tmp_path, capsys):
        _, capture_path, wigle_path = sim_capture
        ckpt = tmp_path / "engine.ckpt.json"
        assert main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        capsys.readouterr()
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--resume", str(ckpt)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resumed from" in out
        assert "PipelineStats" in out

    def test_resume_restores_refit_schedule(self, sim_capture, tmp_path,
                                            capsys):
        """Resuming without --refit-every must honor the checkpointed
        schedule — including choosing the AP-Rad localizer, so re-fits
        keep running instead of silently no-opping on M-Loc."""
        scenario, capture_path, wigle_path = sim_capture
        lines = capture_path.read_text().splitlines(keepends=True)
        half = len(lines) // 2
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        first.write_text("".join(lines[:half]))
        second.write_text("".join(lines[half:]))

        def refit_count(text):
            # stats line looks like "re-fits : 2 (last solve ...)"
            match = re.search(r"re-fits\s*:\s*(\d+)", text)
            assert match, text
            return int(match.group(1))

        ckpt = tmp_path / "refit.ckpt.json"
        assert main(["engine", str(first), "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120",
                     "--checkpoint", str(ckpt)]) == 0
        first_refits = refit_count(capsys.readouterr().out)
        assert first_refits > 0

        # Second half: no --refit-every on the command line.
        assert main(["engine", str(second), "--wigle", str(wigle_path),
                     "--resume", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "Resumed from" in out
        # The schedule kept firing on the second half's evidence.
        assert refit_count(out) > first_refits
        assert str(scenario.victim.mac) in out


class TestEngineObservability:
    def test_metrics_json_contains_acceptance_series(self, sim_capture,
                                                     tmp_path, capsys):
        import json

        _, capture_path, wigle_path = sim_capture
        out_path = tmp_path / "metrics.json"
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--refit-every", "50", "--r-max", "120",
                     "--localizer", "ap-rad:r_max=120,solver=revised",
                     "--metrics-json", str(out_path)])
        assert code == 0
        assert "Metrics snapshot written to" in capsys.readouterr().out
        snapshot = json.loads(out_path.read_text())
        assert "repro.engine.flush.duration" in snapshot["histograms"]
        for event in ("hit", "miss", "eviction"):
            assert f"repro.engine.cache.{event}" in snapshot["counters"]
        assert "repro.lp.revised.pivots" in snapshot["counters"]
        assert snapshot["counters"]["repro.sniffer.replay.frames"] > 0

    def test_trace_exports_chrome_json(self, sim_capture, tmp_path,
                                       capsys):
        import json

        _, capture_path, wigle_path = sim_capture
        trace_path = tmp_path / "trace.json"
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--trace", str(trace_path)])
        assert code == 0
        assert "spans) written to" in capsys.readouterr().out
        events = json.loads(trace_path.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert "engine.flush" in names

    def test_localizer_spec_selects_algorithm(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--localizer", "centroid"])
        assert code == 0
        assert "PipelineStats" in capsys.readouterr().out

    def test_bad_localizer_spec_fails_cleanly(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--localizer", "triangulate"])
        assert code == 2
        assert "unknown localizer" in capsys.readouterr().err


class TestCleanFailures:
    def test_engine_missing_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        code = main(["engine", str(tmp_path / "nope.jsonl"),
                     "--wigle", str(wigle_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nope.jsonl" in err

    def test_engine_corrupt_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text('{"capture_format": 1}\nthis is not json\n')
        code = main(["engine", str(bad), "--wigle", str(wigle_path)])
        assert code == 2
        assert "corrupt capture" in capsys.readouterr().err

    def test_engine_missing_wigle(self, sim_capture, tmp_path, capsys):
        _, capture_path, _ = sim_capture
        code = main(["engine", str(capture_path),
                     "--wigle", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "WiGLE" in capsys.readouterr().err

    def test_engine_corrupt_checkpoint(self, sim_capture, tmp_path,
                                       capsys):
        _, capture_path, wigle_path = sim_capture
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text('{"engine_checkpoint": 99}')
        code = main(["engine", str(capture_path),
                     "--wigle", str(wigle_path),
                     "--resume", str(bad)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_engine_has_no_workers_flag(self, sim_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        with pytest.raises(SystemExit) as exit_info:
            main(["engine", str(capture_path),
                  "--wigle", str(wigle_path), "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_replay_missing_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        code = main(["replay", str(tmp_path / "nope.jsonl"),
                     "--wigle", str(wigle_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_corrupt_capture(self, sim_capture, tmp_path, capsys):
        _, _, wigle_path = sim_capture
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("}{ garbage\n")
        code = main(["replay", str(bad), "--wigle", str(wigle_path)])
        assert code == 2
        assert "corrupt capture" in capsys.readouterr().err


class TestColumnarCaptureCLI:
    @pytest.fixture(scope="class")
    def columnar_capture(self, sim_capture, tmp_path_factory):
        """The fixture capture converted to a columnar store via CLI."""
        _, capture_path, _ = sim_capture
        out = tmp_path_factory.mktemp("columnar") / "capture.cap"
        assert main(["capture", "convert", str(capture_path),
                     str(out), "--block-records", "256"]) == 0
        return out

    def test_capture_info(self, columnar_capture, capsys):
        assert main(["capture", "info", str(columnar_capture)]) == 0
        out = capsys.readouterr().out
        assert "columnar capture" in out
        assert "bloom" in out

    def test_capture_info_json(self, columnar_capture, capsys):
        import json

        assert main(["capture", "info", str(columnar_capture),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == "columnar"
        assert info["records"] > 0

    def test_engine_flag_and_sniffed_format(self, sim_capture,
                                            columnar_capture, capsys):
        """--capture with a columnar file needs no --format."""
        _, _, wigle_path = sim_capture
        code = main(["engine", "--capture", str(columnar_capture),
                     "--wigle", str(wigle_path)])
        assert code == 0
        assert "PipelineStats" in capsys.readouterr().out

    def test_engine_batch_replay_matches_record_replay(
            self, sim_capture, columnar_capture, capsys):
        scenario, _, wigle_path = sim_capture
        assert main(["engine", str(columnar_capture),
                     "--wigle", str(wigle_path)]) == 0
        record_out = capsys.readouterr().out
        assert main(["engine", str(columnar_capture),
                     "--wigle", str(wigle_path), "--batch-replay"]) == 0
        batch_out = capsys.readouterr().out
        assert str(scenario.victim.mac) in batch_out

        def stat(text, name):
            match = re.search(rf"{name}\s*:\s*(\d+)", text)
            assert match, text
            return int(match.group(1))

        for name in ("frames ingested", "estimates emitted",
                     "evidence events", "devices seen"):
            assert stat(record_out, name) == stat(batch_out, name)

    def test_engine_rejects_capture_given_twice(self, sim_capture,
                                                columnar_capture, capsys):
        _, capture_path, wigle_path = sim_capture
        code = main(["engine", str(capture_path),
                     "--capture", str(columnar_capture),
                     "--wigle", str(wigle_path)])
        assert code == 2
        assert "once" in capsys.readouterr().err

    def test_capture_compact_merges(self, sim_capture, columnar_capture,
                                    tmp_path, capsys):
        _, capture_path, _ = sim_capture
        merged = tmp_path / "merged.cap"
        code = main(["capture", "compact", str(capture_path),
                     str(columnar_capture), "--output", str(merged)])
        assert code == 0
        assert "Compacted 2 capture(s)" in capsys.readouterr().out
        assert main(["capture", "info", str(merged)]) == 0
        assert "globally sorted: True" in capsys.readouterr().out

    def test_capture_convert_missing_source(self, tmp_path, capsys):
        code = main(["capture", "convert", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "out.cap")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
