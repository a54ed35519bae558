"""Seeded campus corpus: APs on a grid, churning devices, ground truth.

One generator drives every workload.  APs sit on a jittered campus grid
with one known coverage range; devices arrive, hop between dwell spots
and leave.  Every probe burst a device makes yields a probe request
(a share of them under one-shot randomized MACs), probe responses from
the in-range APs, and sometimes a data exchange with the nearest AP.
APs beacon on their own clock, and a share of all frames reaches the
capture late, so it is delivered out of order.

The program under test receives only two files written here: a
columnar capture and a WiGLE-style AP CSV.  The ground truth (each
device's true position at every frame) and the evidence the benchmark
needs for its output check go to ``truth.npz``, which only the
benchmark reads.

Run as a script, the generator writes one workload's corpus::

    python3 perfbench/corpus.py --workload campus-replay --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

#: Every input property that changes the program's behaviour is one of
#: these explicit parameters:
#:
#: * ``devices`` against ``cache_size`` — how far the device population
#:   outgrows the engine's Γ-set memo cache;
#: * ``spots`` — Γ sharing: devices dwell only at this many places, so
#:   fewer spots means more devices share one AP neighbourhood Γ;
#: * ``random_mac_share`` — share of probe bursts sent under a fresh
#:   one-shot randomized MAC (each becomes a new, short-lived device);
#: * ``out_of_order_share`` / ``out_of_order_delay_s`` — frames that
#:   reach the capture late, past the reader's block boundaries;
#: * ``window_s`` against ``burst_interval_s`` — the engine's Γ
#:   co-observation window spans more than one probe burst, so a Γ
#:   unions the APs of consecutive bursts (and of two spots while a
#:   device moves).
#:
#: Every workload hands the engine 128-frame batches, the batch a
#: collector sends by default (``stream_capture_to``,
#: ``marauder ingest --batch-records``): the fleet's collector keeps
#: that default, and the single-engine workloads replay the capture in
#: batches of the same size.
WORKLOADS = {
    "campus-replay": {
        "why": ("ingest dominates: over 10k churning devices through one "
                "m-loc engine with periodic checkpoints, no LP"),
        "ap_rows": 12, "ap_cols": 12, "ap_spacing_m": 60.0,
        "ap_range_m": 75.0, "ap_jitter_m": 8.0,
        "duration_s": 1800.0, "devices": 10000,
        "stay_s": [20.0, 80.0], "burst_interval_s": 20.0,
        "dwell_s": 120.0, "spots": 600,
        "response_prob": 0.6, "data_prob": 0.25, "data_frames": 4,
        "random_mac_share": 0.3, "beacon_interval_s": 20.0,
        "out_of_order_share": 0.02, "out_of_order_delay_s": [5.0, 60.0],
        "window_s": 30.0, "cache_size": 4096, "batch_size": 32,
        "block_records": 4096, "batch_records": 128,
        "checkpoint_every_frames": 60000,
        "localizer": "m-loc",
    },
    "aprad-refit": {
        "why": ("the AP-Rad radius LP re-fit and the full re-localization "
                "after it are the work; ingest does little"),
        "ap_rows": 7, "ap_cols": 7, "ap_spacing_m": 60.0,
        "ap_range_m": 75.0, "ap_jitter_m": 8.0,
        "duration_s": 900.0, "devices": 400,
        "stay_s": [60.0, 300.0], "burst_interval_s": 20.0,
        "dwell_s": 60.0, "spots": 300,
        "response_prob": 0.6, "data_prob": 0.25, "data_frames": 4,
        "random_mac_share": 0.2, "beacon_interval_s": 20.0,
        "out_of_order_share": 0.02, "out_of_order_delay_s": [5.0, 60.0],
        "window_s": 30.0, "cache_size": 4096, "batch_size": 32,
        "block_records": 4096, "batch_records": 128,
        "checkpoint_every_frames": 0, "refit_every": 3000,
        "localizer": "ap-rad", "r_max_m": 85.0,
    },
    "fleet-ingest": {
        "why": ("record path plus bus, wire, gateway and router, with "
                "/locate reads beside the writes"),
        "ap_rows": 10, "ap_cols": 10, "ap_spacing_m": 60.0,
        "ap_range_m": 75.0, "ap_jitter_m": 8.0,
        "duration_s": 900.0, "devices": 700,
        "stay_s": [30.0, 150.0], "burst_interval_s": 20.0,
        "dwell_s": 120.0, "spots": 800,
        "response_prob": 0.6, "data_prob": 0.25, "data_frames": 4,
        "random_mac_share": 0.3, "beacon_interval_s": 20.0,
        "out_of_order_share": 0.02, "out_of_order_delay_s": [5.0, 60.0],
        "window_s": 30.0, "cache_size": 4096, "batch_size": 32,
        # The collector and router keep the program's own batch sizes
        # (stream_capture_to, ShardedEngine.publish_batch defaults).
        "block_records": 4096,
        "checkpoint_every_frames": 5000, "shards": 2,
        "localizer": "m-loc",
    },
}

#: Campus origin for the WiGLE CSV's geodetic coordinates.
ORIGIN = (42.6555, -71.3262)

BROADCAST = (1 << 48) - 1
AP_OUI = 0x001A2B
DEVICE_OUI = 0x0050F2
#: First octet 0xDA: locally administered, unicast — a randomized MAC.
RANDOM_PREFIX = 0xDA


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write ``capture.cap``, ``wigle.csv`` and ``truth.npz`` to ``out``."""
    from repro.capture import (CAPTURE_DTYPE, FRAME_TYPES, NO_BSSID,
                               make_capture_writer)
    from repro.geo.enu import LocalTangentPlane
    from repro.geo.wgs84 import GeodeticCoordinate
    from repro.geometry.point import Point
    from repro.net80211.frames import FrameType
    from repro.net80211.mac import MacAddress

    p = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    codes = {frame_type: code for code, frame_type in enumerate(FRAME_TYPES)}

    # -- access points: a jittered grid, one known range -------------
    rows, cols, spacing = p["ap_rows"], p["ap_cols"], p["ap_spacing_m"]
    grid = np.array([(c * spacing, r * spacing)
                     for r in range(rows) for c in range(cols)], float)
    ap_xy = grid + rng.uniform(-p["ap_jitter_m"], p["ap_jitter_m"],
                               grid.shape)
    n_aps = len(ap_xy)
    ap_mac = (np.uint64(AP_OUI << 24)
              + rng.choice(1 << 24, n_aps, replace=False).astype(np.uint64))
    radius = p["ap_range_m"]

    # -- dwell spots: every spot hears at least two APs --------------
    width, height = (cols - 1) * spacing, (rows - 1) * spacing
    spot_xy = np.empty((0, 2))
    while len(spot_xy) < p["spots"]:
        cand = rng.uniform((0.0, 0.0), (width, height), (p["spots"], 2))
        dist = np.hypot(cand[:, None, 0] - ap_xy[None, :, 0],
                        cand[:, None, 1] - ap_xy[None, :, 1])
        keep = (dist < radius).sum(axis=1) >= 2
        spot_xy = np.concatenate([spot_xy, cand[keep]])[:p["spots"]]
    dist = np.hypot(spot_xy[:, None, 0] - ap_xy[None, :, 0],
                    spot_xy[:, None, 1] - ap_xy[None, :, 1])
    in_range = dist < radius
    max_k = int(in_range.sum(axis=1).max())
    # spot → in-range AP indices, padded with -1
    spot_aps = np.full((len(spot_xy), max_k), -1, np.int64)
    for s in range(len(spot_xy)):
        idx = np.nonzero(in_range[s])[0]
        spot_aps[s, :len(idx)] = idx
    spot_nearest = dist.argmin(axis=1)

    # -- devices: arrive, dwell at spots, leave ----------------------
    n_dev = p["devices"]
    duration = p["duration_s"]
    stay_lo, stay_hi = p["stay_s"]
    arrive = rng.uniform(0.0, duration - stay_lo, n_dev)
    leave = np.minimum(arrive + rng.uniform(stay_lo, stay_hi, n_dev),
                       duration)
    interval = p["burst_interval_s"]
    phase = rng.uniform(0.0, interval, n_dev)
    n_bursts = np.maximum(
        0, np.floor((leave - arrive - phase) / interval).astype(int) + 1)
    dev_mac = (np.uint64(DEVICE_OUI << 24)
               + rng.choice(1 << 24, n_dev, replace=False).astype(np.uint64))

    b_dev = np.repeat(np.arange(n_dev), n_bursts)
    b_k = np.arange(len(b_dev)) - np.repeat(np.cumsum(n_bursts) - n_bursts,
                                            n_bursts)
    b_t = arrive[b_dev] + phase[b_dev] + b_k * interval
    leg = np.floor((b_t - arrive[b_dev]) / p["dwell_s"]).astype(np.int64)
    _, leg_id = np.unique(b_dev * 100000 + leg, return_inverse=True)
    b_spot = rng.integers(0, len(spot_xy), leg_id.max() + 1)[leg_id]
    n_b = len(b_dev)
    randomized = rng.random(n_b) < p["random_mac_share"]
    b_mac = dev_mac[b_dev].copy()
    n_rand = int(randomized.sum())
    b_mac[randomized] = (np.uint64(RANDOM_PREFIX << 40)
                         + rng.choice(1 << 40, n_rand,
                                      replace=False).astype(np.uint64))

    # Ground truth rides along: the spot the device dwells at when it
    # sent or heard the frame (a burst and its responses share one).
    parts = []  # (kind, src, dst, bssid, rx_ts, spot or -1)

    def add(kind, src, dst, bssid, ts, spot):
        parts.append((np.full(len(ts), codes[kind], np.uint8), src, dst,
                      bssid, ts, spot))

    # probe requests
    add(FrameType.PROBE_REQUEST, b_mac,
        np.full(n_b, BROADCAST, np.uint64), np.full(n_b, NO_BSSID, np.uint64),
        b_t, b_spot)
    # probe responses from in-range APs
    cand = spot_aps[b_spot]                         # (n_b, max_k)
    ok = (cand >= 0) & (rng.random(cand.shape) < p["response_prob"])
    rb, rj = np.nonzero(ok)
    r_ap = cand[rb, rj]
    add(FrameType.PROBE_RESPONSE, ap_mac[r_ap], b_mac[rb], ap_mac[r_ap],
        b_t[rb] + 0.002 + 0.0011 * rj + rng.uniform(0, 1e-4, len(rb)),
        b_spot[rb])
    # data exchanges (real MAC) with the nearest AP
    talk = np.nonzero(rng.random(n_b) < p["data_prob"])[0]
    talk = np.repeat(talk, p["data_frames"])
    j = np.tile(np.arange(p["data_frames"]), len(talk) // p["data_frames"])
    d_ap = ap_mac[spot_nearest[b_spot[talk]]]
    d_dev = dev_mac[b_dev[talk]]
    uplink = j % 2 == 0
    add(FrameType.DATA, np.where(uplink, d_dev, d_ap),
        np.where(uplink, d_ap, d_dev), d_ap,
        b_t[talk] + 0.05 + 0.013 * j + rng.uniform(0, 1e-4, len(talk)),
        b_spot[talk])
    # beacons
    beacon = p["beacon_interval_s"]
    per_ap = int(duration // beacon)
    bt = (rng.uniform(0, beacon, n_aps)[:, None]
          + beacon * np.arange(per_ap)[None, :]).ravel()
    b_ap = np.repeat(np.arange(n_aps), per_ap)
    add(FrameType.BEACON, ap_mac[b_ap], np.full(len(bt), BROADCAST,
                                                np.uint64),
        ap_mac[b_ap], bt, np.full(len(bt), -1))

    kind, src, dst, bssid, rx_ts, spot_of = (
        np.concatenate(column) for column in zip(*parts))

    # -- arrival order: a share of frames lands late ------------------
    late = rng.random(len(rx_ts)) < p["out_of_order_share"]
    lo, hi = p["out_of_order_delay_s"]
    arrival = rx_ts + np.where(late, rng.uniform(lo, hi, len(rx_ts)), 0.0)
    order = np.argsort(arrival, kind="stable")
    # The columnar writer stable-sorts each block by rx_ts; doing it
    # here first keeps file row order equal to this array's order.
    block = p["block_records"]
    for start in range(0, len(order), block):
        chunk = order[start:start + block]
        order[start:start + block] = chunk[np.argsort(rx_ts[chunk],
                                                      kind="stable")]
    kind, src, dst, bssid, rx_ts, spot_of = (
        a[order] for a in (kind, src, dst, bssid, rx_ts, spot_of))

    records = np.zeros(len(kind), CAPTURE_DTYPE)
    records["kind"] = kind
    records["src"] = src
    records["dst"] = dst
    records["bssid"] = bssid
    records["ts"] = rx_ts
    records["rx_ts"] = rx_ts
    records["channel"] = 6
    records["rx_channel"] = 6
    records["seq"] = np.arange(len(kind)) % 4096
    records["rssi"] = -60.0
    records["snr"] = 25.0
    records["tx_power"] = 20.0
    records["tx_gain"] = 2.0
    records["ssid"] = np.where(kind == codes[FrameType.PROBE_REQUEST],
                               b"", b"campus")

    out.mkdir(parents=True, exist_ok=True)
    with make_capture_writer(out / "capture.cap",
                             block_records=block) as writer:
        writer.write_rows(records)

    plane = LocalTangentPlane(GeodeticCoordinate(*ORIGIN))
    with open(out / "wigle.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["netid", "ssid", "trilat", "trilong", "channel"])
        for mac, (x, y) in zip(ap_mac, ap_xy):
            geo = plane.from_point(Point(float(x), float(y)))
            writer.writerow([str(MacAddress(int(mac))), "campus",
                             repr(geo.latitude_deg),
                             repr(geo.longitude_deg), 6])

    # Evidence rows, as the engine defines them: responses prove
    # (destination, bssid); data frames prove (non-AP endpoint, bssid).
    resp = kind == codes[FrameType.PROBE_RESPONSE]
    data = kind == codes[FrameType.DATA]
    evidence = np.nonzero(resp | data)[0]
    mobile = np.where(resp, dst, np.where(src != bssid, src, dst))
    truth_xy = np.full((len(kind), 2), np.nan)
    has_spot = spot_of >= 0
    truth_xy[has_spot] = spot_xy[spot_of[has_spot]]
    device_macs = np.unique(np.concatenate([b_mac, d_dev]))
    np.savez(out / "truth.npz",
             device_macs=device_macs, ev_row=evidence,
             ev_mobile=mobile[evidence], ev_ap=bssid[evidence],
             ev_ts=rx_ts[evidence], truth_xy=truth_xy)
    # Written back to disk now, not while the first pass measures.
    for path in out.iterdir():
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
    return {
        "frames": int(len(kind)),
        "aps": n_aps,
        "devices": n_dev,
        "device_macs": int(len(device_macs)),
        "randomized_macs": n_rand,
        "probe_bursts": n_b,
        "evidence_frames": int(len(evidence)),
        "out_of_order_frames": int(late.sum()),
        "spots": int(len(spot_xy)),
        "capture_bytes": (out / "capture.cap").stat().st_size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True,
                        help="the program's source root (holds repro/)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    print(json.dumps(generate(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
