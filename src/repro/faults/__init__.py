"""``repro.faults`` — the fault-tolerance substrate.

Three pieces (DESIGN.md §7):

* **Typed errors** — the :class:`ReproError` hierarchy every supervised
  failure is classified under, so retry/degradation policies select by
  type, never by message.
* **Injection** — a seeded, deterministic :class:`FaultInjector` armed
  via :func:`use_injector`; production code calls the cheap no-op
  :func:`hook` at named sites (``engine.flush``, ``lp.solve``,
  ``sink.emit``, ``worker.chunk``, ...).
* **Retry** — :class:`RetryPolicy`, exponential backoff with a
  deterministic seeded jitter stream and an injectable clock.

Nothing here imports outside the standard library and :mod:`repro.obs`,
so any layer — capture, LP, engine — can depend on it without cycles.
"""

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
from repro.faults.injector import (
    DROPPED,
    ERROR_TYPES,
    FaultInjector,
    FaultSpec,
    active_injector,
    hook,
    parse_fault_spec,
    use_injector,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "ReproError",
    "CaptureError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "SinkError",
    "CheckpointError",
    "WorkerError",
    "FaultInjector",
    "FaultSpec",
    "parse_fault_spec",
    "use_injector",
    "active_injector",
    "hook",
    "DROPPED",
    "ERROR_TYPES",
    "RetryPolicy",
]
