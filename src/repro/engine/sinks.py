"""Sink stage: where the engine's estimates flow.

Every flushed estimate is offered to each attached sink.  Sinks bridge
the streaming engine to the existing batch-era consumers: the device
tracker (:class:`TrackerSink` — the engine always owns one), the map
display (:class:`RendererSink`), ad-hoc consumers
(:class:`CallbackSink`), and live dashboards that only want the newest
fix per device (:class:`LatestFixSink`).

Construction is unified behind :func:`make_sink`: callers (the CLI, the
simulation harness) name a sink by spec string — ``"tracker"``,
``"latest"``, ``"renderer:label_devices=false"`` — and supply any
required live objects as keyword context.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.localization.base import LocalizationEstimate
from repro.net80211.mac import MacAddress
from repro.sniffer.tracker import DeviceTracker


class EngineSink:
    """Interface: receives every (mobile, timestamp, estimate) flush."""

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Called once when the engine's stream ends (optional)."""


class TrackerSink(EngineSink):
    """Appends every estimate to a :class:`DeviceTracker` track."""

    def __init__(self, tracker: Optional[DeviceTracker] = None):
        self.tracker = tracker if tracker is not None else DeviceTracker()

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        self.tracker.record(mobile, timestamp, estimate)


class CallbackSink(EngineSink):
    """Forwards every estimate to a user callback."""

    def __init__(self, callback: Callable[
            [MacAddress, float, LocalizationEstimate], None]):
        self.callback = callback

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        self.callback(mobile, timestamp, estimate)


class LatestFixSink(EngineSink):
    """Keeps only the newest estimate per device (a live-map feed)."""

    def __init__(self):
        self._latest: Dict[MacAddress,
                           Tuple[float, LocalizationEstimate]] = {}

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        self._latest[mobile] = (timestamp, estimate)

    @property
    def fixes(self) -> Dict[MacAddress, Tuple[float, LocalizationEstimate]]:
        return dict(self._latest)

    def estimates(self) -> Dict[MacAddress, LocalizationEstimate]:
        """The newest estimate per device (display/geojson input shape)."""
        return {mobile: estimate
                for mobile, (_, estimate) in self._latest.items()}


class RendererSink(EngineSink):
    """Plots every estimate on a :class:`repro.display.MapRenderer`."""

    def __init__(self, renderer, label_devices: bool = True):
        self.renderer = renderer
        self.label_devices = label_devices
        self.emitted = 0

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        label = str(mobile) if self.label_devices else ""
        self.renderer.add_estimate(estimate.position, label=label)
        self.emitted += 1


class NullSink(EngineSink):
    """Counts emissions and discards them.

    The load-test sink: service benchmarks measure engine throughput
    without rendering or tracking overhead polluting the numbers, but
    still assert how many estimates flowed.
    """

    def __init__(self):
        self.emitted = 0
        self.closed = False

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        self.emitted += 1

    def close(self) -> None:
        self.closed = True


class FanoutSink(EngineSink):
    """Composes several sinks into one.

    Accepts any iterable of sinks — list, tuple, generator — and
    snapshots it at construction.
    """

    def __init__(self, sinks: Iterable[EngineSink]):
        self.sinks = list(sinks)

    def emit(self, mobile: MacAddress, timestamp: float,
             estimate: LocalizationEstimate) -> None:
        for sink in self.sinks:
            sink.emit(mobile, timestamp, estimate)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# Unified construction
# ----------------------------------------------------------------------

#: spec name → (class, context keys the factory forwards when present)
_SINKS = {
    "tracker": (TrackerSink, ("tracker",)),
    "callback": (CallbackSink, ("callback",)),
    "latest": (LatestFixSink, ()),
    "renderer": (RendererSink, ("renderer",)),
    "null": (NullSink, ()),
}


def sink_names() -> Tuple[str, ...]:
    """The spec names :func:`make_sink` accepts, stable order."""
    return tuple(_SINKS)


def make_sink(spec, **context) -> EngineSink:
    """Build a sink from a spec.

    ``spec`` may be:

    * an :class:`EngineSink` instance — returned as-is;
    * an iterable of specs — each built recursively and composed into
      a :class:`FanoutSink`;
    * a string ``name`` or ``name:key=value,...`` (``tracker``,
      ``callback``, ``latest``, ``renderer``), with live objects the
      sink needs — the tracker, the callback, the renderer — supplied
      as keyword ``context``.

    Option values are coerced like localizer specs: ``int`` → ``float``
    → ``bool`` → ``str``.
    """
    if isinstance(spec, EngineSink):
        return spec
    if not isinstance(spec, str) and isinstance(spec, Iterable):
        return FanoutSink(make_sink(part, **context) for part in spec)
    from repro.localization.factory import parse_spec
    name, options = parse_spec(spec)
    try:
        cls, context_keys = _SINKS[name]
    except KeyError:
        known = ", ".join(_SINKS)
        raise ValueError(
            f"unknown sink {name!r}; expected one of: {known}") from None
    kwargs = {key: context[key] for key in context_keys if key in context}
    kwargs.update(options)
    try:
        return cls(**kwargs)
    except (TypeError, KeyError) as error:
        raise ValueError(
            f"bad options for sink {name!r}: {error}") from None
