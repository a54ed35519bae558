"""One measured pass of a workload, in a process of its own.

``run.py`` starts this script once per pass, so every pass begins with
a cold program: nothing a previous pass interned, cached or left for
the collector is still there, and the peak resident set size is the
pass's own.  Usage::

    python3 perfbench/one_pass.py --workload campus-replay --seed 1 \\
        --corpus DIR --pass-dir DIR --traced 0

The pass's set-up and run are timed; the peak RSS is read as soon as
the pass is torn down.  Only then, outside the timed part, does it
load the reference and check each device's final fix.  The last line
of standard output is the pass summary as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from corpus import WORKLOADS
from run import SRC, WORK, percentile


def emit_latencies_ms(out: dict, index, handoff_times) -> tuple:
    """Sink time minus the handoff of the batch holding the newest evidence."""
    if not out["emits"]:
        return np.empty(0), 0
    mobile, ts, at = (np.array(column) for column in zip(*out["emits"]))
    handoff_times = np.asarray(handoff_times)
    current = np.searchsorted(handoff_times, at, side="right") - 1
    batch = index.lookup(mobile.astype(np.uint64), ts, current)
    found = batch >= 0
    latency = at[found] - handoff_times[batch[found]]
    return latency * 1e3, int((~found).sum())


def accounting(out: dict) -> tuple:
    """(attempted, failed) operations of one pass."""
    from workloads import counter_total
    snapshot, stats = out["snapshot"], out["stats"]
    attempted = (out["ingest_calls"] + stats.estimates_emitted
                 + stats.devices_seen + len(out["saves"])
                 + out["save_failures"] + len(out["reads"])
                 + counter_total(snapshot,
                                 "repro.service.checkpoint.barriers"))
    failed = (counter_total(snapshot, "repro.ingest.rejects")
              + counter_total(snapshot, "repro.engine.sink.failures")
              + stats.quarantined + out["save_failures"]
              + counter_total(snapshot, "repro.engine.refit.failures")
              + counter_total(snapshot,
                              "repro.service.shard.checkpoint_failures")
              + out["read_failures"])
    return int(attempted), int(failed)


def layer_metrics(out: dict, tracer, counts: dict) -> dict:
    from workloads import counter_total
    stats, snapshot = out["stats"], out["snapshot"]
    self_s = tracer.self_times()
    lookups = stats.cache_hits + stats.cache_misses
    saves = out["saves"]
    ingest = out.get("ingest")
    fleet = ingest is not None

    def counter(name):
        return counter_total(snapshot, name)

    return {
        "capture.decode_s": self_s.get("capture.decode", 0.0),
        "capture.rows": out["capture_rows"],
        "capture.blocks_read": counter("repro.capture.blocks_read"),
        "engine.ingest.self_s": self_s.get("engine.ingest", 0.0),
        "engine.frames": stats.frames_ingested,
        "engine.evidence": stats.evidence_events,
        "engine.probe_requests": stats.probe_requests,
        "engine.devices_seen": stats.devices_seen,
        "engine.batches_flushed": stats.batches_flushed,
        "engine.estimates": stats.estimates_emitted,
        "engine.cache.hit_ratio": (stats.cache_hits / lookups
                                   if lookups else 0.0),
        "engine.cache.lookups": lookups,
        "localization.locate_s": self_s.get("localization.locate", 0.0),
        "localization.gammas_located": counts.get("gammas", 0),
        "localization.unlocatable": stats.unlocatable,
        "localization.fit_s": self_s.get("localization.fit", 0.0),
        "localization.refits": stats.refits,
        "lp.dense.pivots": counter("repro.lp.dense.pivots"),
        "lp.revised.pivots": counter("repro.lp.revised.pivots"),
        "lp.revised.refactorizations": counter(
            "repro.lp.revised.refactorizations"),
        "checkpoint.save_s": self_s.get("checkpoint.save", 0.0),
        "checkpoint.save_max_s": max((s for s, _ in saves), default=0.0),
        "checkpoint.bytes": (out["checkpoint_bytes"] if fleet else
                             max((b for _, b in saves), default=0)),
        "checkpoint.saves": (counter("repro.service.shard.checkpoints")
                             if fleet else len(saves)),
        "service.route_s": self_s.get("service.route", 0.0),
        "service.frames_published": counter(
            "repro.service.frames.published"),
        "service.barriers": counter("repro.service.checkpoint.barriers"),
        "service.shard.localize_s": self_s.get("service.shard.localize",
                                               0.0),
        "service.restarts": counter("repro.service.shard.restarts"),
        "gateway.stream_s": self_s.get("gateway.stream", 0.0),
        "gateway.batches_resent": ingest.batches_resent if fleet else 0,
        "ingest.duplicates": counter("repro.ingest.duplicates"),
        "ingest.rejects": counter("repro.ingest.rejects"),
        "socket.reconnects": counter("repro.socket.reconnects"),
        "socket.crc_rejects": counter("repro.socket.crc_rejects"),
        "http.locate_s": self_s.get("http.locate", 0.0),
        "http.locates": len(out["reads"]) if fleet else 0,
        "http.locate_failures": out["read_failures"],
    }


def cached(path: Path, compute):
    """Arrays saved next to the corpus by the first pass that needs them.

    They depend only on the corpus, so later passes load them instead
    of spending run time on them again.
    """
    if path.is_file():
        with np.load(path) as data:
            return tuple(data[key] for key in sorted(data.files))
    arrays = compute()
    with open(path, "wb") as handle:
        np.savez(handle, **{f"a{i}": a for i, a in enumerate(arrays)})
        handle.flush()
        # On disk before the next pass measures.
        os.fsync(handle.fileno())
    return arrays


def expected_fixes(reference, localizer, corpus: Path, wrong: bool):
    """``locate(Γ_ref)`` per device; stateless answers are kept per corpus.

    A fitted model (AP-Rad) is asked afresh every pass.  A stateless
    localizer answers identically for every Γ under one ``cache_key()``.
    """
    if localizer.supports_partial_fit:
        return reference.expected(localizer)
    name = "".join(c if c.isalnum() else "_" for c in localizer.cache_key())
    path = corpus / f"expected-{name}{'-wrong' if wrong else ''}.npz"
    return cached(path, lambda: (reference.expected(localizer),))[0]


def measure(args) -> dict:
    from check import Reference, check_fixes
    from repro.net80211.mac import MacAddress
    from tracing import Tracer
    from workloads import PASSES, EvidenceIndex, fleet_evidence

    params = WORKLOADS[args.workload]
    truth_path = args.corpus / "truth.npz"
    with np.load(truth_path) as data:
        device_macs = data["device_macs"]
    rng = np.random.default_rng(args.seed)
    read_macs = [MacAddress(int(mac)) for mac in
                 rng.choice(device_macs, 4096)]
    del device_macs

    tracer = Tracer(bool(args.traced))
    args.pass_dir.mkdir()
    runner = PASSES[args.workload](args.corpus, params, tracer,
                                   args.pass_dir, read_macs)
    # The benchmark's own allocations so far (imports, read targets)
    # are collected now, not charged to the timed part.
    gc.collect()
    start = time.perf_counter()
    runner.setup()
    setup_s = time.perf_counter() - start
    try:
        out = runner.run()
    finally:
        runner.teardown()
    # ru_maxrss is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- untimed from here: checks against the generated evidence ----
    with np.load(truth_path) as data:
        truth = {key: data[key] for key in data.files}
    reference = Reference(truth, params["window_s"],
                          wrong=args.wrong_reference)
    expected = expected_fixes(reference, out["localizer"], args.corpus,
                              args.wrong_reference)
    checked = check_fixes(reference, expected, out["fixes"])
    frames = int(truth["truth_xy"].shape[0])
    ok = (checked["mismatches"] == 0 and checked["compared"] > 0
          and out["frames"] == frames
          and out["stats"].frames_ingested == frames)
    if "ingest" in out:
        # The gateway's batches, not capture positions, reach the fleet.
        mobile, ts, position = cached(
            args.corpus / "fleet-evidence.npz",
            lambda: fleet_evidence(args.corpus / "capture.cap"))
        handoff_times = [at for at, _ in out["handoffs"]]
        lengths = np.array([length for _, length in out["handoffs"]])
        # The rebuild holds only if every batch went out once, in order.
        ok = (ok and int(lengths.sum()) == frames
              and out["ingest"].batches_resent == 0)
        batch = np.searchsorted(np.cumsum(lengths), position, side="right")
        index = EvidenceIndex(mobile, ts, batch)
    else:
        # Capture rows map to the engine's ingest batches by position.
        index = EvidenceIndex(truth["ev_mobile"], truth["ev_ts"],
                              truth["ev_row"] // params["batch_records"])
        handoff_times = out["handoffs"]
    latencies, unmatched = emit_latencies_ms(out, index, handoff_times)
    attempted, failed = accounting(out)
    summary = {
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "wall_s": out["wall_s"],
        "frames_per_s": out["frames"] / out["wall_s"],
        "peak_rss_mb": peak_rss_mb,
        "cpus": sorted(os.sched_getaffinity(0)),
        "emit_p50_ms": percentile(latencies, 50),
        "emit_p99_ms": percentile(latencies, 99),
        "emits_unmatched": unmatched,
        "reads_ms": (np.asarray(out["reads"]) * 1e3).tolist(),
        "attempted": attempted,
        "failed": failed,
        "check": checked,
        "ok": ok,
    }
    if args.traced:
        summary["layers"] = layer_metrics(out, tracer, runner.counts)
        tracer.write(WORK / f"trace-{args.workload}.jsonl")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one pass of a workload; print its summary.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--pass-dir", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the whole pass: the fleet's threads hand work to each
    # other all the time, and a wake-up sent to another CPU that the
    # host has just taken away stalls the whole chain.  Pinned, every
    # wake-up goes to the CPU the pass already runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
