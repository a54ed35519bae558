"""Output check and accuracy: final fixes against the generated evidence.

For every device the benchmark rebuilds Γ_ref from the evidence it
generated — the APs heard within ``window_s`` of the device's newest
evidence — and asks the run's localizer for ``locate(Γ_ref)``.  Each
device whose Γ_ref can be located must have a final fix at that
position; any mismatch fails the run.  Accuracy (the paper's Fig. 13
measure) compares the same final fixes with the device's true position
at its newest evidence.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.net80211.mac import MacAddress

#: Positions are compared to this many metres: the engine may reach an
#: estimate through a vectorized batch path and the reference through a
#: per-Γ call, which can differ in the last floating-point bits.
TOLERANCE_M = 1e-6

Fixes = Dict[int, Tuple[float, float]]


class Reference:
    """Γ_ref and truth per device, derived once per corpus.

    Held as NumPy arrays; Γ sets are built only when a check asks
    for the expected fixes.
    """

    def __init__(self, truth, window_s: float, wrong: bool = False):
        mobile = truth["ev_mobile"]
        ap = truth["ev_ap"]
        ts = truth["ev_ts"]
        # Newest evidence per device: last of each device, by time.
        order = np.lexsort((ts, mobile))
        last = np.r_[mobile[order][1:] != mobile[order][:-1], True]
        self.devices = mobile[order][last]
        frontier = ts[order][last]
        self.truth_xy = truth["truth_xy"][truth["ev_row"][order][last]]
        # Latest evidence per (device, AP) pair, sorted by device, AP.
        order = np.lexsort((ts, ap, mobile))
        m, a = mobile[order], ap[order]
        last = np.r_[(m[1:] != m[:-1]) | (a[1:] != a[:-1]), True]
        pair_mobile, pair_ap, pair_ts = m[last], a[last], ts[order][last]
        index = np.searchsorted(self.devices, pair_mobile)
        live = pair_ts >= frontier[index] - window_s
        self.pair_index, self.pair_ap = index[live], pair_ap[live]
        self.starts = np.r_[0, np.nonzero(np.diff(self.pair_index))[0] + 1]
        if wrong:
            # A deliberately wrong reference: drop the lowest AP from
            # every Γ_ref large enough to stay locatable without it.
            sizes = np.diff(np.r_[self.starts, len(self.pair_index)])
            keep = np.ones(len(self.pair_index), bool)
            keep[self.starts[sizes >= 3]] = False
            self.pair_index = self.pair_index[keep]
            self.pair_ap = self.pair_ap[keep]
            self.starts = np.r_[0, np.nonzero(np.diff(self.pair_index))[0]
                                + 1]
        self.device_count = int(len(truth["device_macs"]))

    def expected(self, localizer) -> np.ndarray:
        """``localizer.locate(Γ_ref)`` per device, NaN where unlocatable."""
        xy = np.full((len(self.devices), 2), np.nan)
        by_gamma: Dict[frozenset, Optional[Tuple[float, float]]] = {}
        ends = np.r_[self.starts[1:], len(self.pair_index)]
        for start, end in zip(self.starts.tolist(), ends.tolist()):
            gamma = frozenset(MacAddress(bssid) for bssid in
                              self.pair_ap[start:end].tolist())
            if gamma not in by_gamma:
                estimate = localizer.locate(gamma)
                by_gamma[gamma] = (None if estimate is None else
                                   (estimate.position.x, estimate.position.y))
            if by_gamma[gamma] is not None:
                xy[self.pair_index[start]] = by_gamma[gamma]
        return xy


def check_fixes(reference: Reference, expected: np.ndarray,
                fixes: Fixes) -> dict:
    """Compare final fixes with ``reference.expected(localizer)``.

    Returns the check summary.
    """
    fix_xy = np.array([fixes.get(int(device), (np.nan, np.nan))
                       for device in reference.devices])
    locatable = ~np.isnan(expected[:, 0])
    match = locatable & (np.abs(fix_xy - expected) <= TOLERANCE_M).all(axis=1)
    errors = np.hypot(*(fix_xy[match] - reference.truth_xy[match]).T)
    compared = int(locatable.sum())
    return {
        "compared": compared,
        "mismatches": compared - int(match.sum()),
        "unlocatable_reference": len(expected) - compared,
        "fixes": len(fixes),
        "loc_error_p50_m": float(np.median(errors)) if len(errors) else None,
        "located_share": len(fixes) / reference.device_count,
    }
