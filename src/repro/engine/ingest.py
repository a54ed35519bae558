"""Ingest stage: streaming Γ maintenance for the localization engine.

The batch pipeline (:mod:`repro.sniffer.observation`) keeps *every*
observation timestamp so it can answer arbitrary retrospective queries.
A live engine serving millions of devices cannot afford that: it only
needs, per device, the most recent evidence for each AP — enough to
evaluate the sliding-window Γ the next localization will use.

:class:`GammaState` is that bounded structure.  It stores one float per
(mobile, AP) pair — the latest time the pair was proven communicable —
and defines the streaming Γ of a device as the APs heard within
``window_s`` of the device's *own* most recent observation (the same
co-observation semantics as :meth:`ObservationStore.gamma`, evaluated
lazily at the device's frontier rather than at wall-clock "now").

:func:`extract_evidence` mirrors the communicability rules of
:meth:`ObservationStore.ingest` for the frame types that prove a
(mobile, AP) link; frame types that carry no pairwise evidence (probe
requests, beacons) return ``None`` and are handled by the engine's
bookkeeping directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional

from repro.net80211.frames import FrameType
from repro.net80211.mac import MacAddress, MacNames
from repro.net80211.medium import ReceivedFrame


@dataclass(frozen=True)
class Evidence:
    """One proven (mobile, AP) communicability event."""

    mobile: MacAddress
    ap: MacAddress
    timestamp: float


def extract_evidence(received: ReceivedFrame) -> Optional[Evidence]:
    """The (mobile, AP, time) evidence in one captured frame, if any."""
    frame = received.frame
    if frame.frame_type in (FrameType.PROBE_RESPONSE,
                            FrameType.ASSOCIATION_RESPONSE):
        # AP -> mobile: proof the pair can communicate.
        if frame.bssid is None or frame.destination.is_multicast:
            return None
        return Evidence(mobile=frame.destination, ap=frame.bssid,
                        timestamp=received.rx_timestamp)
    if frame.frame_type is FrameType.DATA and frame.bssid is not None:
        mobile = (frame.source if frame.source != frame.bssid
                  else frame.destination)
        if mobile.is_multicast:
            return None
        return Evidence(mobile=mobile, ap=frame.bssid,
                        timestamp=received.rx_timestamp)
    return None


class GammaState:
    """Per-device sliding-window Γ sets, updated one event at a time.

    Memory is O(devices x APs-per-device): only the newest timestamp
    per (mobile, AP) pair is retained.
    """

    def __init__(self, window_s: float = 30.0):
        if window_s <= 0.0:
            raise ValueError(f"window must be > 0 s, got {window_s}")
        self.window_s = window_s
        # mobile -> ap -> latest evidence time
        self._latest_by_ap: Dict[MacAddress, Dict[MacAddress, float]] = {}
        # mobile -> newest evidence time over all APs
        self._frontier: Dict[MacAddress, float] = {}

    def observe(self, evidence: Evidence) -> FrozenSet[MacAddress]:
        """Fold one evidence event in; return the device's current Γ."""
        return self.fold(evidence.mobile, evidence.ap, evidence.timestamp)

    def fold(self, mobile: MacAddress, ap: MacAddress,
             timestamp: float) -> FrozenSet[MacAddress]:
        """:meth:`observe` without the :class:`Evidence` wrapper.

        The engine's batch path folds millions of rows; building an
        ``Evidence`` per row would cost more than the fold itself.
        """
        by_ap = self._latest_by_ap.get(mobile)
        if by_ap is None:
            by_ap = self._latest_by_ap[mobile] = {}
        previous = by_ap.get(ap)
        if previous is None or timestamp > previous:
            by_ap[ap] = timestamp
        frontier = self._frontier.get(mobile)
        if frontier is None or timestamp > frontier:
            self._frontier[mobile] = timestamp
        return self.gamma(mobile)

    def gamma(self, mobile: MacAddress) -> FrozenSet[MacAddress]:
        """APs heard within ``window_s`` of the device's newest evidence."""
        by_ap = self._latest_by_ap.get(mobile)
        if not by_ap:
            return frozenset()
        horizon = self._frontier[mobile] - self.window_s
        return frozenset([ap for ap, ts in by_ap.items() if ts >= horizon])

    def last_seen(self, mobile: MacAddress) -> Optional[float]:
        """The newest evidence time for a device (None if never seen)."""
        return self._frontier.get(mobile)

    def devices(self):
        return list(self._latest_by_ap.keys())

    def __len__(self) -> int:
        return len(self._latest_by_ap)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def to_dict(self, names: Optional[Mapping[MacAddress, str]] = None
                ) -> dict:
        """JSON-compatible snapshot of the Γ state.

        ``names`` maps addresses to their text; pass one shared
        :class:`~repro.net80211.mac.MacNames` to format each address
        once across a whole checkpoint.
        """
        if names is None:
            names = MacNames()
        return {
            "window_s": self.window_s,
            "events": {
                names[mobile]: {names[ap]: ts for ap, ts in by_ap.items()}
                for mobile, by_ap in self._latest_by_ap.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GammaState":
        state = cls(window_s=float(data["window_s"]))
        for mobile_text, by_ap in data.get("events", {}).items():
            mobile = MacAddress.parse(mobile_text)
            parsed = {MacAddress.parse(ap): float(ts)
                      for ap, ts in by_ap.items()}
            state._latest_by_ap[mobile] = parsed
            state._frontier[mobile] = max(parsed.values())
        return state
