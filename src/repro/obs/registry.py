"""The metric registry: counters, gauges, histograms and the on/off state.

Design constraints (mirrors :mod:`repro.utils.contracts`):

* **Near-zero cost when off.**  Every metric handle shares one
  :class:`ObsState` object with its registry; the disabled fast path of
  every update method is a single attribute check (``self._state.enabled``)
  followed by ``return``.  Hot loops that cannot even afford the method
  call pre-guard with ``if _OBS.enabled:`` on the module-level state
  singleton.
* **Handles are module-level singletons.**  Instrumented modules acquire
  their handles at import time (``_EVENTS = obs.counter(...)``); enabling
  or disabling observability later flips the shared state without
  re-binding anything.
* **Standard library only.**  The algorithm modules import this package,
  so importing anything from ``repro.core`` / ``repro.sketch`` here would
  create a cycle.

Metrics support Prometheus-style labels: ``metric.labels(window="900")``
returns a child handle of the same kind that shares the parent's state,
buckets and description and exports as a separate sample.  Values are
guarded by one lock per metric family so concurrent writers (the
streaming indexes live in whatever threads the caller runs) never lose
updates.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, cast

__all__ = [
    "OBS_ENV",
    "ObsState",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramTimer",
    "MetricRegistry",
    "exponential_buckets",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]

OBS_ENV = "REPRO_OBS"

#: Upper bounds (seconds) for latency histograms: 1 µs … 10 s.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.000001,
    0.00001,
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
)

#: Upper bounds for small-integer histograms (list lengths, seed counts).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    1024,
    4096,
    16384,
)


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` geometric bucket bounds: ``start, start·factor, …``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1; got ({start}, {factor}, {count})"
        )
    bounds = []
    bound = float(start)
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


class ObsState:
    """The shared on/off flag; checking it is the whole disabled path."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


LabelKey = Tuple[Tuple[str, str], ...]


class Metric:
    """Base class: name, description, label-children bookkeeping."""

    kind = "metric"

    __slots__ = ("name", "description", "_state", "_lock", "_label_values", "_children")

    def __init__(
        self,
        name: str,
        description: str,
        state: ObsState,
        lock: Optional[threading.Lock] = None,
        label_values: LabelKey = (),
    ) -> None:
        self.name = name
        self.description = description
        self._state = state
        # One lock per metric *family*: children share the parent's lock so
        # a snapshot sees a consistent family.
        self._lock = lock if lock is not None else threading.Lock()
        self._label_values = label_values  # immutable after construction
        self._children: Dict[LabelKey, "Metric"] = {}  # repro-lint: guarded-by=_lock

    # -- labels ---------------------------------------------------------
    def labels(self, **labels: object) -> "Metric":
        """The child handle for this label combination (created on demand).

        Children are real metric objects of the same kind; label values
        are stringified.  Calling ``labels()`` with no arguments returns
        ``self``.
        """
        if not labels:
            return self
        key: LabelKey = tuple(sorted((k, str(v)) for k, v in labels.items()))
        # Deliberate double-checked fast path: a bare read of the dict is
        # safe under the GIL (children are only ever added, never
        # replaced), and a miss re-checks under the lock below.
        child = self._children.get(key)  # repro-lint: disable=R201
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(key)
                    self._children[key] = child
        return child

    def _make_child(self, key: LabelKey) -> "Metric":
        raise NotImplementedError

    @property
    def label_values(self) -> Dict[str, str]:
        """This handle's labels as a plain dict (empty for the parent)."""
        return dict(self._label_values)

    # -- export ---------------------------------------------------------
    def _iter_family(self) -> Iterator["Metric"]:
        """Self plus every labelled child, parent first.

        The child list is snapshotted under the family lock before
        anything is yielded, so consumers never observe a half-added
        child and never run their bodies inside the lock.
        """
        with self._lock:
            children = [self._children[key] for key in sorted(self._children)]
        yield self
        yield from children

    def samples(self) -> List[dict]:
        """One export dict per family member that has recorded anything."""
        return [
            member._sample()
            for member in self._iter_family()
            if member._has_data()
        ]

    def _sample(self) -> dict:
        raise NotImplementedError

    def _has_data(self) -> bool:
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError

    def _base_sample(self) -> dict:
        return {
            "type": self.kind,
            "name": self.name,
            "labels": dict(self._label_values),
            "description": self.description,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        suffix = f" {dict(self._label_values)}" if self._label_values else ""
        return f"{type(self).__name__}({self.name!r}{suffix})"


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._value = 0.0  # repro-lint: guarded-by=_lock

    def _make_child(self, key: LabelKey) -> "Counter":
        return Counter(self.name, self.description, self._state, self._lock, key)

    def labels(self, **labels: object) -> "Counter":
        return cast("Counter", super().labels(**labels))

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (no-op while observability is disabled)."""
        if not self._state.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The accumulated count."""
        with self._lock:
            return self._value

    def _has_data(self) -> bool:
        with self._lock:
            return self._value != 0.0 or not self._children

    def _sample(self) -> dict:
        sample = self._base_sample()
        with self._lock:
            sample["value"] = self._value
        return sample

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    __slots__ = ("_value", "_touched")

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._value = 0.0  # repro-lint: guarded-by=_lock
        self._touched = False  # repro-lint: guarded-by=_lock

    def _make_child(self, key: LabelKey) -> "Gauge":
        return Gauge(self.name, self.description, self._state, self._lock, key)

    def labels(self, **labels: object) -> "Gauge":
        return cast("Gauge", super().labels(**labels))

    def set(self, value: float) -> None:
        """Overwrite the gauge (no-op while observability is disabled)."""
        if not self._state.enabled:
            return
        with self._lock:
            self._value = float(value)
            self._touched = True

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        if not self._state.enabled:
            return
        with self._lock:
            self._value += amount
            self._touched = True

    def dec(self, amount: float = 1.0) -> None:
        """Shift the gauge down by ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current gauge value."""
        with self._lock:
            return self._value

    def _has_data(self) -> bool:
        with self._lock:
            return self._touched or not self._children

    def _sample(self) -> dict:
        sample = self._base_sample()
        with self._lock:
            sample["value"] = self._value
        return sample

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0
            self._touched = False


class HistogramTimer:
    """Context manager that observes its elapsed seconds on exit."""

    __slots__ = ("_histogram", "_start_ns", "elapsed_ns")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start_ns = 0
        self.elapsed_ns = 0

    def __enter__(self) -> "HistogramTimer":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_ns = time.perf_counter_ns() - self._start_ns
        self._histogram.observe(self.elapsed_ns / 1e9)


class _NoopTimer:
    """Reusable do-nothing stand-in for :class:`HistogramTimer`."""

    __slots__ = ()

    elapsed_ns = 0

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NOOP_TIMER = _NoopTimer()


class Histogram(Metric):
    """Bucketed distribution with count / sum / min / max.

    Buckets are fixed upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  The exported ``buckets`` list is cumulative
    (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    __slots__ = ("_buckets", "_bucket_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        description: str,
        state: ObsState,
        lock: Optional[threading.Lock] = None,
        label_values: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, description, state, lock, label_values)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self._buckets = bounds  # immutable after construction
        self._bucket_counts = [0] * (len(bounds) + 1)  # +Inf tail; repro-lint: guarded-by=_lock
        self._count = 0  # repro-lint: guarded-by=_lock
        self._sum = 0.0  # repro-lint: guarded-by=_lock
        self._min = float("inf")  # repro-lint: guarded-by=_lock
        self._max = float("-inf")  # repro-lint: guarded-by=_lock

    def _make_child(self, key: LabelKey) -> "Histogram":
        return Histogram(
            self.name, self.description, self._state, self._lock, key, self._buckets
        )

    def labels(self, **labels: object) -> "Histogram":
        return cast("Histogram", super().labels(**labels))

    def observe(self, value: float) -> None:
        """Record one observation (no-op while observability is disabled)."""
        if not self._state.enabled:
            return
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        # Buckets are few (≤ ~16); a linear scan beats bisect's call cost.
        for index, bound in enumerate(self._buckets):
            if value <= bound:
                return index
        return len(self._buckets)

    def time(self) -> Union["HistogramTimer", "_NoopTimer"]:
        """A context manager timing its body into this histogram.

        Returns the shared no-op singleton while disabled, so hot call
        sites pay one method call and one attribute check.
        """
        if not self._state.enabled:
            return NOOP_TIMER
        return HistogramTimer(self)

    # -- stats ----------------------------------------------------------
    # The family lock is a plain (non-reentrant) Lock, so everything
    # below reads the raw fields under the lock instead of chaining
    # through the locking properties.
    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observation (0.0 when empty)."""
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation (0.0 when empty)."""
        with self._lock:
            return self._max if self._count else 0.0

    def _has_data(self) -> bool:
        with self._lock:
            return self._count > 0 or not self._children

    def _sample(self) -> dict:
        sample = self._base_sample()
        with self._lock:
            cumulative = []
            running = 0
            for bound, bucket_count in zip(self._buckets, self._bucket_counts):
                running += bucket_count
                cumulative.append([bound, running])
            count = self._count
            total = self._sum
            minimum = self._min if count else 0.0
            maximum = self._max if count else 0.0
        sample.update(
            {
                "count": count,
                "sum": total,
                "min": minimum,
                "max": maximum,
                "mean": total / count if count else 0.0,
                "buckets": cumulative,
            }
        )
        return sample

    def _reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self._buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")


class MetricRegistry:
    """Named metric families plus the shared enabled flag.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the existing handle (so every module sees
    the same family), asking with a conflicting kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}  # repro-lint: guarded-by=_lock
        self.state = ObsState()

    # -- switching ------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True while metric updates are being recorded."""
        return self.state.enabled

    def enable(self) -> None:
        """Start recording metric updates."""
        self.state.enabled = True

    def disable(self) -> None:
        """Stop recording; handles stay registered and keep their values."""
        self.state.enabled = False

    def enable_from_env(self, environ: Optional[Dict[str, str]] = None) -> bool:
        """Enable when ``REPRO_OBS`` is set to a non-empty value ≠ ``0``."""
        env = os.environ if environ is None else environ
        if env.get(OBS_ENV, "") not in ("", "0"):
            self.enable()
            return True
        return False

    # -- registration ---------------------------------------------------
    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(name, description, self.state, buckets=buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls: type, name: str, description: str) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, description, self.state)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Optional[Metric]:
        """The registered family called ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- lifecycle ------------------------------------------------------
    def reset(self) -> None:
        """Zero every value (handles stay registered and keep working)."""
        with self._lock:
            for metric in self._metrics.values():
                for member in metric._iter_family():
                    member._reset()

    # -- export ---------------------------------------------------------
    def samples(self) -> List[dict]:
        """Export dicts for every family member, sorted by (name, labels)."""
        collected: List[dict] = []
        for metric in self.metrics():
            collected.extend(metric.samples())
        collected.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        return collected
