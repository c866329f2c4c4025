"""Observability: metrics, spans, and exporters for the IRS pipeline.

Instrumentation is compiled in everywhere but *recorded* only when
enabled — via the ``REPRO_OBS=1`` environment variable (checked once at
import, mirroring :mod:`repro.utils.contracts`) or programmatically:

    import repro.obs as obs

    obs.enable()
    index = ExactIRS.from_log(log, window=3600)
    print(obs.render_report(obs.snapshot()))

The disabled path of every metric update is a single attribute check on
a shared state object, so leaving the instrumentation in the hot loops
costs almost nothing (see ``tests/obs/test_overhead.py``).

Module-level convenience handles::

    _EVENTS = obs.counter("streaming.events", "Events ingested")
    _EVENTS.inc()            # records only while enabled

Snapshots are lists of plain dicts; see :mod:`repro.obs.export` for the
JSON-lines / Prometheus / table renderings.
"""

from __future__ import annotations

import importlib
from typing import List, Optional, Tuple

# The lock sanitizer must patch the threading factories before anything
# here creates a lock: REPRO_DEBUG_LOCKS=1 then traces the registry's
# per-family locks and the span recorder along with the serve layer.
# With the flag unset this is a single env read and patches nothing.
from repro.obs import locktrace as _locktrace

_locktrace.install_from_env()

from repro.obs.export import from_jsonl, render_report, to_jsonl, to_prometheus  # noqa: E402
from repro.obs.registry import (  # noqa: E402
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    OBS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ObsState,
    exponential_buckets,
)
from repro.obs.spans import NOOP_SPAN, SpanHandle, SpanListener, SpanRecorder  # noqa: E402

__all__ = [
    "OBS_ENV",
    "REGISTRY",
    "OBS_STATE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "ObsState",
    "SpanRecorder",
    "SpanListener",
    "NOOP_SPAN",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "exponential_buckets",
    "enable",
    "disable",
    "enabled",
    "counter",
    "gauge",
    "histogram",
    "span",
    "span_records",
    "current_span_path",
    "request_context",
    "current_context",
    "snapshot",
    "write_snapshot",
    "reset",
    "to_jsonl",
    "from_jsonl",
    "to_prometheus",
    "render_report",
    "profile",
    "memprof",
    "slo",
]

#: The process-wide registry every instrumented module records into.
REGISTRY = MetricRegistry()

#: The shared enabled flag; hot loops pre-guard with ``OBS_STATE.enabled``.
OBS_STATE = REGISTRY.state

_SPANS = SpanRecorder(REGISTRY)


def enable() -> None:
    """Start recording metrics and spans process-wide."""
    REGISTRY.enable()


def disable() -> None:
    """Stop recording; registered handles keep their accumulated values."""
    REGISTRY.disable()


def enabled() -> bool:
    """True while the instrumentation layer is recording."""
    return REGISTRY.enabled


def counter(name: str, description: str = "") -> Counter:
    """Get or create the process-wide counter family ``name``."""
    return REGISTRY.counter(name, description)


def gauge(name: str, description: str = "") -> Gauge:
    """Get or create the process-wide gauge family ``name``."""
    return REGISTRY.gauge(name, description)


def histogram(name: str, description: str = "", buckets=DEFAULT_TIME_BUCKETS) -> Histogram:
    """Get or create the process-wide histogram family ``name``."""
    return REGISTRY.histogram(name, description, buckets=buckets)


def span(name: str, **labels: object) -> SpanHandle:
    """A context-manager tracing span (no-op singleton while disabled)."""
    return _SPANS.span(name, **labels)


def span_records() -> List[dict]:
    """Finished span records, oldest first."""
    return _SPANS.records()


def current_span_path() -> Tuple[str, ...]:
    """Names of this thread's active spans, outermost first."""
    return _SPANS.current_path()


def request_context(value: str):
    """Attribute this thread's spans/profiles to ``value`` (see
    :meth:`SpanRecorder.context`); a context manager, safe while disabled."""
    return _SPANS.context(value)


def current_context() -> Tuple[str, ...]:
    """This thread's active trace-context values, outermost first."""
    return _SPANS.current_context()


def snapshot(include_spans: bool = True) -> List[dict]:
    """Every metric sample (plus span records) as plain dicts."""
    samples = REGISTRY.samples()
    if include_spans:
        samples.extend(_SPANS.records())
    return samples


def reset() -> None:
    """Zero every metric and drop span records; handles stay valid."""
    REGISTRY.reset()
    _SPANS.reset()


def write_snapshot(path: str, format: Optional[str] = None) -> None:
    """Write the current snapshot to ``path``.

    ``format`` may be ``"jsonl"``, ``"prometheus"`` or ``"table"``; when
    omitted it is inferred from the suffix (``.prom`` → prometheus,
    ``.txt`` → table, anything else → jsonl).
    """
    if format is None:
        if path.endswith(".prom"):
            format = "prometheus"
        elif path.endswith(".txt"):
            format = "table"
        else:
            format = "jsonl"
    samples = snapshot()
    if format == "prometheus":
        text = to_prometheus(samples)
    elif format == "table":
        text = render_report(samples)
    elif format == "jsonl":
        text = to_jsonl(samples)
    else:
        raise ValueError(f"unknown snapshot format: {format!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# The profiling layers live in submodules (obs.profile / obs.memprof);
# bind them to this registry's span recorder so profiler attributions
# group under the live span tree, and so enabling either profiler also
# turns the span/metric layer on.
from repro.obs import memprof, profile  # noqa: E402  (needs _SPANS)

profile._bind(_SPANS.current_path, REGISTRY.enable)
memprof._bind(_SPANS, REGISTRY.enable)

# Environment opt-in, mirroring repro.utils.contracts: REPRO_OBS=1 in the
# environment turns recording on for the whole process at import time;
# REPRO_OBS_PROFILE=1 / REPRO_OBS_MEMPROF=1 additionally install the
# wall-time / memory profilers (each implies REPRO_OBS).
REGISTRY.enable_from_env()
profile.enable_from_env()
memprof.enable_from_env()

#: Submodules only the CLI and serve layers use; the algorithm layer
#: imports ``repro.obs`` for counters and spans and never pays for them.
_LAZY_SUBMODULES = frozenset({"slo"})


def __getattr__(name: str) -> object:
    """Import ``obs.slo`` on first attribute access (PEP 562)."""
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
