"""Deterministic fault injection behind cheap no-op hooks.

Production code never branches on "is chaos testing on" — it simply
calls :func:`hook` at named *sites*::

    faults.hook("engine.flush")                 # may raise / delay
    record = faults.hook("capture.record", rec) # may corrupt / drop

When no :class:`FaultInjector` is installed (the normal case) a hook is
one module attribute read and a ``None`` check, then returns its value
unchanged.  Installing an injector (:func:`use_injector`) arms the
configured :class:`FaultSpec` list; everything the injector does is a
pure function of its specs and seed, so a chaos run is exactly
reproducible.

Sites are plain dotted strings; the conventional ones are

=================  ====================================================
``capture.record`` each record yielded by :func:`~repro.sniffer.replay.iter_capture`
``engine.flush``   the start of a micro-batch localization attempt
``engine.localize``per-device localization on the degraded path
``engine.refit``   the start of a scheduled model re-fit
``engine.checkpoint`` between the checkpoint temp-write and the rename
``lp.solve``       entry of :meth:`repro.lp.LpProblem.solve`
``sink.emit``      each (sink, estimate) delivery attempt
``worker.chunk``   each ``locate_batch`` call
``bus.publish``    each router → shard bus message (key = shard index)
``bus.collect``    each shard → router bus read (key = shard index)
``socket.send``    each encoded wire frame before the TCP write
``socket.recv``    each decoded wire frame after the TCP read
=================  ====================================================

The socket sites fire inside the transport's background reader and
sender threads, which never see a :func:`use_injector` block entered on
the main thread — arm those with ``use_injector(..., all_threads=True)``
(the CLI's ``--inject`` does this automatically when a socket transport
is selected).

Spec strings (CLI ``--inject``) look like::

    sink.emit:raise=SinkError,times=3
    lp.solve:delay=0.05,times=2
    capture.record:drop,p=0.01
    engine.localize:raise=SolverError,match=02:00:00:00:00:07

Every fired fault is counted in the current
:class:`~repro.obs.MetricsRegistry` under
``repro.faults.injected{site=...,mode=...}``, so a chaos run's fault
history lands in the same snapshot as the engine's own counters.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.faults.errors import (
    CaptureError,
    CheckpointError,
    InfeasibleError,
    ReproError,
    SinkError,
    SolverError,
    UnboundedError,
    WorkerError,
)

#: Sentinel returned by a ``drop``-mode fault: the caller discards the
#: value it offered (a capture record, an emission) and moves on.
DROPPED = object()

_MODES = ("raise", "delay", "corrupt", "drop")

#: Exception names a ``raise``-mode spec may name.
ERROR_TYPES: Dict[str, type] = {
    "ReproError": ReproError,
    "CaptureError": CaptureError,
    "SolverError": SolverError,
    "InfeasibleError": InfeasibleError,
    "UnboundedError": UnboundedError,
    "SinkError": SinkError,
    "CheckpointError": CheckpointError,
    "WorkerError": WorkerError,
    "OSError": OSError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}


@dataclass
class FaultSpec:
    """One configured fault: where, what, and how often.

    Parameters
    ----------
    site:
        Site pattern the spec arms (``fnmatch`` glob, so
        ``"worker.*"`` matches every worker site).
    mode:
        ``"raise"`` | ``"delay"`` | ``"corrupt"`` | ``"drop"``.
    times:
        Fire at most this many times (``None`` = every eligible call).
    after:
        Skip the first ``after`` eligible calls before firing.
    probability:
        Fire each eligible call with this probability (seeded, so the
        pattern is deterministic per injector seed).
    error:
        Exception type name for ``raise`` mode (see :data:`ERROR_TYPES`).
    message:
        Message for the raised exception.
    delay_s:
        Sleep length for ``delay`` mode.
    match:
        Optional glob the hook's ``key`` must match (e.g. one device's
        MAC) before the spec is eligible.
    mutate:
        Optional transform for ``corrupt`` mode; the default corruption
        empties dicts, reverses strings, and otherwise returns ``None``.
    """

    site: str
    mode: str = "raise"
    times: Optional[int] = None
    after: int = 0
    probability: float = 1.0
    error: str = "ReproError"
    message: str = ""
    delay_s: float = 0.0
    match: Optional[str] = None
    mutate: Optional[Callable[[object], object]] = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"fault mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "raise" and self.error not in ERROR_TYPES:
            known = ", ".join(ERROR_TYPES)
            raise ValueError(
                f"unknown fault error type {self.error!r}; "
                f"expected one of: {known}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times}")

    def build_error(self) -> Exception:
        cls = ERROR_TYPES[self.error]
        message = self.message or f"injected fault at {self.site}"
        return cls(message)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI spec string into a :class:`FaultSpec`.

    Grammar: ``site:mode[=arg][,key=value,...]`` where ``mode`` is one
    of ``raise`` (arg = error type name), ``delay`` (arg = seconds),
    ``corrupt``, ``drop``, and keys are ``times``, ``after``,
    ``p``/``probability``, ``match``, ``message``.
    """
    site, sep, tail = text.partition(":")
    site = site.strip()
    if not sep or not site or not tail.strip():
        raise ValueError(
            f"malformed fault spec {text!r} (expected site:mode[,opts])")
    parts = [part.strip() for part in tail.split(",") if part.strip()]
    mode_part, parts = parts[0], parts[1:]
    mode, _, mode_arg = mode_part.partition("=")
    kwargs: Dict[str, object] = {"site": site, "mode": mode.strip()}
    mode_arg = mode_arg.strip()
    if mode_arg:
        if mode == "raise":
            kwargs["error"] = mode_arg
        elif mode == "delay":
            kwargs["delay_s"] = float(mode_arg)
        else:
            raise ValueError(
                f"mode {mode!r} takes no argument in spec {text!r}")
    for part in parts:
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(
                f"malformed option {part!r} in fault spec {text!r}")
        if key == "times":
            kwargs["times"] = int(value)
        elif key == "after":
            kwargs["after"] = int(value)
        elif key in ("p", "probability"):
            kwargs["probability"] = float(value)
        elif key == "match":
            kwargs["match"] = value
        elif key == "message":
            kwargs["message"] = value
        else:
            raise ValueError(
                f"unknown option {key!r} in fault spec {text!r}")
    return FaultSpec(**kwargs)


def _default_corrupt(value):
    if isinstance(value, dict):
        return {}
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, bytes):
        return bytes(b ^ 0xFF for b in value)
    return None


class FaultInjector:
    """Fires configured :class:`FaultSpec` faults at hook sites.

    Deterministic: the per-spec probability stream is seeded from
    ``seed`` and the spec's position, so two injectors built with the
    same specs and seed fire identically.  ``sleep`` is injectable so
    tests can fake the clock for ``delay`` faults.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep):
        self.specs = list(specs)
        self.seed = seed
        self._sleep = sleep
        self._hits = [0] * len(self.specs)
        self._fires = [0] * len(self.specs)
        # Hooks fire from transport background threads when the
        # injector is armed process-wide; the eligibility bookkeeping
        # (hit counts, probability streams) stays consistent under one
        # lock, released before any delay-mode sleep.
        self._lock = threading.Lock()
        self._rngs = [
            random.Random((seed << 16)
                          ^ zlib.crc32(f"{index}:{spec.site}".encode()))
            for index, spec in enumerate(self.specs)
        ]

    def fired(self) -> Dict[str, int]:
        """Fire counts per ``site:mode`` (the CLI's chaos summary)."""
        summary: Dict[str, int] = {}
        for spec, fires in zip(self.specs, self._fires):
            key = f"{spec.site}:{spec.mode}"
            summary[key] = summary.get(key, 0) + fires
        return summary

    @property
    def total_fired(self) -> int:
        return sum(self._fires)

    def _eligible(self, index: int, spec: FaultSpec, site: str,
                  key: Optional[str]) -> bool:
        if not fnmatchcase(site, spec.site):
            return False
        if spec.match is not None and not fnmatchcase(key or "",
                                                      spec.match):
            return False
        self._hits[index] += 1
        if self._hits[index] <= spec.after:
            return False
        if spec.times is not None and self._fires[index] >= spec.times:
            return False
        if (spec.probability < 1.0
                and self._rngs[index].random() >= spec.probability):
            return False
        return True

    def fire(self, site: str, value=None, key: Optional[str] = None):
        """Apply every eligible spec; returns the (possibly replaced)
        value, or raises / delays per the spec modes."""
        for index, spec in enumerate(self.specs):
            with self._lock:
                if not self._eligible(index, spec, site, key):
                    continue
                self._fires[index] += 1
            obs.current_registry().counter(
                "repro.faults.injected", site=site, mode=spec.mode).inc()
            if spec.mode == "raise":
                raise spec.build_error()
            if spec.mode == "delay":
                self._sleep(spec.delay_s)
            elif spec.mode == "corrupt":
                mutate = spec.mutate or _default_corrupt
                value = mutate(value)
            elif spec.mode == "drop":
                return DROPPED
        return value


# ----------------------------------------------------------------------
# The hook seam
# ----------------------------------------------------------------------

_tls = threading.local()

#: Process-wide fallback injector (``use_injector(all_threads=True)``);
#: a thread-local injector still wins on threads that armed one.
_global_injector: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, or ``None`` (the production default)."""
    injector = getattr(_tls, "injector", None)
    return injector if injector is not None else _global_injector


@contextmanager
def use_injector(injector: FaultInjector,
                 all_threads: bool = False) -> Iterator[FaultInjector]:
    """Arm ``injector`` for the duration of the block.

    By default the injector is visible only to the arming thread —
    chaos in one test never leaks into a neighbor.  With
    ``all_threads=True`` it becomes the process-wide fallback, which
    the socket transports need: their reader, sender, and heartbeat
    threads are spawned internally and never enter the caller's
    ``with`` block.
    """
    global _global_injector
    if all_threads:
        previous = _global_injector
        _global_injector = injector
        try:
            yield injector
        finally:
            _global_injector = previous
        return
    previous = getattr(_tls, "injector", None)
    _tls.injector = injector
    try:
        yield injector
    finally:
        _tls.injector = previous


def hook(site: str, value=None, key: Optional[str] = None):
    """The production-side seam: a no-op unless an injector is armed.

    Returns ``value`` unchanged in the no-op case; with an injector it
    may raise, sleep, return a corrupted value, or return
    :data:`DROPPED`.
    """
    injector = getattr(_tls, "injector", None)
    if injector is None:
        injector = _global_injector
        if injector is None:
            return value
    return injector.fire(site, value, key=key)
