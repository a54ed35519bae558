"""Device → shard partitioning for the sharded tracking service.

The whole service rests on one invariant: **every frame that can affect
a device's state lands on the same shard**.  The engine's per-device
state — the streaming Γ, the dirty bit, the track, quarantine — is keyed
by the mobile's MAC, so the partition function hashes the *mobile* of a
frame's evidence (not the transmitter: an AP's probe response carries
evidence about its destination).

The hash is CRC32 over the big-endian 48-bit address — stable across
processes and Python versions, unlike the salted builtin ``hash`` —
so a checkpointed fleet restarts onto the same partitioning, and a
remote transport can compute the same routing without coordination.
"""

from __future__ import annotations

import zlib

from repro.engine.ingest import extract_evidence
from repro.net80211.mac import MacAddress
from repro.net80211.medium import ReceivedFrame


def device_shard(mac: MacAddress, shards: int) -> int:
    """The shard owning a device (stable, uniform over the MAC space)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(mac.value.to_bytes(6, "big")) % shards


def routing_key(received: ReceivedFrame) -> MacAddress:
    """The MAC whose shard must ingest this frame.

    Evidence frames route by the *mobile* they prove communicable (so
    Γ updates stay shard-local); probe requests route by their source
    (the probing mobile, feeding the shard's pseudonym linker);
    anything else — beacons, unmatched management traffic — routes by
    its transmitter, which only moves a frame counter.
    """
    evidence = extract_evidence(received)
    if evidence is not None:
        return evidence.mobile
    return received.frame.source


def shard_of(received: ReceivedFrame, shards: int) -> int:
    """Compose :func:`routing_key` and :func:`device_shard`."""
    return device_shard(routing_key(received), shards)
