"""Per-route serving SLOs evaluated from the observability registry.

The paper's serving claim (Fig. 4: oracle queries answered in
microseconds to milliseconds) only stays true if someone watches it.
This module turns that claim into declarative, enforceable objectives:

* :class:`SLOSpec` — one route's objective: a p99 latency threshold
  (milliseconds) and an error-rate budget (fraction of requests allowed
  to fail with a 5xx);
* :func:`evaluate_slos` — judge a metrics snapshot (the list-of-dicts
  form produced by :func:`repro.obs.snapshot`) against a spec list,
  estimating p99 from the cumulative histogram buckets of
  ``serve.http_request_seconds{route}`` and the error rate from the
  ``serve.http_requests{route,code}`` counters;
* :class:`SLOTracker` — the live form: retains a rolling window of
  registry snapshots and evaluates each spec over the *deltas* inside
  the window, reporting a burn rate (window error rate ÷ budget, >1
  means the budget is being spent faster than allowed).  The HTTP
  server's ``/v1/healthz`` carries its output;
* :func:`load_slo_specs` / :func:`render_slo` — JSON spec files for the
  ``repro obs slo --check`` CLI gate and its table/JSON rendering.

Quantiles estimated from histogram buckets are upper-bound-biased (the
estimate interpolates within the bucket that crosses the target rank),
which is the conservative direction for a latency objective: a breach
verdict can only be pessimistic, never optimistic.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_SLOS",
    "DEFAULT_WINDOW_SECONDS",
    "SLOSpec",
    "SLOStatus",
    "SLOTracker",
    "evaluate_slos",
    "histogram_quantile",
    "load_slo_specs",
    "render_slo",
]

#: Histogram family the latency objective reads (labelled by route).
LATENCY_METRIC = "serve.http_request_seconds"

#: Counter family the error budget reads (labelled by route and code).
REQUEST_COUNTER = "serve.http_requests"

#: Rolling-window length the live tracker evaluates over.
DEFAULT_WINDOW_SECONDS = 300.0


@dataclass(frozen=True)
class SLOSpec:
    """One route's objective: p99 latency bound + 5xx error budget."""

    route: str
    p99_ms: float
    error_budget: float

    def __post_init__(self) -> None:
        if self.p99_ms <= 0:
            raise ValueError(f"p99_ms must be > 0, got {self.p99_ms}")
        if not 0.0 <= self.error_budget <= 1.0:
            raise ValueError(
                f"error_budget must be a fraction in [0, 1], got {self.error_budget}"
            )


#: Objectives for the bundled serving routes.  Generous by design: they
#: gate CI on shared runners, and a tight bound belongs in a spec file
#: tuned on the machine that serves (see ``load_slo_specs``).
DEFAULT_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec(route="/v1/healthz", p99_ms=250.0, error_budget=0.0),
    SLOSpec(route="/v1/influence", p99_ms=250.0, error_budget=0.02),
    SLOSpec(route="/v1/spread", p99_ms=500.0, error_budget=0.02),
    SLOSpec(route="/v1/topk", p99_ms=1000.0, error_budget=0.02),
)


@dataclass(frozen=True)
class SLOStatus:
    """The verdict for one spec: observed values plus breach reasons."""

    route: str
    requests: int
    errors: int
    error_rate: float
    error_budget: float
    p99_ms: Optional[float]
    p99_target_ms: float
    burn_rate: Optional[float]
    window_seconds: Optional[float]
    ok: bool
    breaches: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready form (the ``/v1/healthz`` payload shape)."""
        return {
            "route": self.route,
            "requests": self.requests,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "error_budget": self.error_budget,
            "p99_ms": self.p99_ms,
            "p99_target_ms": self.p99_target_ms,
            "burn_rate": self.burn_rate,
            "window_seconds": self.window_seconds,
            "ok": self.ok,
            "breaches": list(self.breaches),
        }


def histogram_quantile(
    buckets: Sequence[Sequence[float]],
    count: int,
    quantile: float,
    maximum: Optional[float] = None,
) -> Optional[float]:
    """Estimate a quantile from cumulative ``[bound, count]`` pairs.

    ``buckets`` is the export shape of :class:`repro.obs.Histogram`
    (cumulative counts at each upper bound); ``count`` the total number
    of observations including the implicit ``+Inf`` tail.  Interpolates
    linearly inside the bucket whose cumulative count crosses the target
    rank; observations beyond the last bound fall back to ``maximum``
    (or the last bound when no maximum is known).  Returns ``None`` for
    an empty histogram.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    if count <= 0:
        return None
    rank = quantile * count
    previous_bound = 0.0
    previous_cum = 0.0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:
                return float(bound)
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (float(bound) - previous_bound) * fraction
        previous_bound = float(bound)
        previous_cum = float(cumulative)
    # Target rank sits in the +Inf tail: the best honest answer is the
    # largest observation (or the last finite bound as a floor).
    if maximum is not None:
        return max(float(maximum), previous_bound)
    return previous_bound


# ---------------------------------------------------------------------------
# Snapshot plumbing: per-route totals out of the samples list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RouteTotals:
    """Cumulative per-route counts extracted from one metrics snapshot."""

    requests: float
    errors: float
    buckets: Tuple[Tuple[float, float], ...]
    count: int
    maximum: float


def _route_totals(samples: Iterable[Mapping[str, object]]) -> Dict[str, _RouteTotals]:
    requests: Dict[str, float] = {}
    errors: Dict[str, float] = {}
    histograms: Dict[str, Mapping[str, object]] = {}
    for sample in samples:
        name = sample.get("name")
        labels = sample.get("labels") or {}
        route = labels.get("route") if isinstance(labels, Mapping) else None
        if not isinstance(route, str):
            continue
        if name == REQUEST_COUNTER and sample.get("type") == "counter":
            value = float(sample.get("value", 0.0))  # type: ignore[arg-type]
            requests[route] = requests.get(route, 0.0) + value
            code = str(labels.get("code", ""))
            if code.startswith("5"):
                errors[route] = errors.get(route, 0.0) + value
        elif name == LATENCY_METRIC and sample.get("type") == "histogram":
            histograms[route] = sample
    totals: Dict[str, _RouteTotals] = {}
    for route in set(requests) | set(histograms):
        histogram = histograms.get(route, {})
        buckets = tuple(
            (float(bound), float(cumulative))
            for bound, cumulative in histogram.get("buckets", ())  # type: ignore[union-attr]
        )
        totals[route] = _RouteTotals(
            requests=requests.get(route, 0.0),
            errors=errors.get(route, 0.0),
            buckets=buckets,
            count=int(histogram.get("count", 0)),  # type: ignore[arg-type]
            maximum=float(histogram.get("max", 0.0)),  # type: ignore[arg-type]
        )
    return totals


def _judge(
    spec: SLOSpec,
    requests: float,
    errors: float,
    p99_ms: Optional[float],
    window_seconds: Optional[float],
) -> SLOStatus:
    breaches: List[str] = []
    error_rate = errors / requests if requests else 0.0
    burn_rate: Optional[float] = None
    if requests:
        if spec.error_budget > 0:
            burn_rate = error_rate / spec.error_budget
        elif errors:
            burn_rate = float("inf")
        else:
            burn_rate = 0.0
    if requests and error_rate > spec.error_budget:
        breaches.append(
            f"error rate {error_rate:.4f} exceeds budget {spec.error_budget:.4f}"
        )
    if p99_ms is not None and p99_ms > spec.p99_ms:
        breaches.append(f"p99 {p99_ms:.3f}ms exceeds target {spec.p99_ms:g}ms")
    return SLOStatus(
        route=spec.route,
        requests=int(requests),
        errors=int(errors),
        error_rate=error_rate,
        error_budget=spec.error_budget,
        p99_ms=p99_ms,
        p99_target_ms=spec.p99_ms,
        burn_rate=burn_rate,
        window_seconds=window_seconds,
        ok=not breaches,
        breaches=tuple(breaches),
    )


def evaluate_slos(
    specs: Sequence[SLOSpec],
    samples: Iterable[Mapping[str, object]],
) -> List[SLOStatus]:
    """Judge ``specs`` against one metrics snapshot (lifetime totals).

    Routes with no traffic evaluate as ``ok`` with zero requests — an
    idle route has spent none of its budget.
    """
    totals = _route_totals(samples)
    statuses: List[SLOStatus] = []
    for spec in specs:
        route = totals.get(spec.route)
        if route is None:
            statuses.append(_judge(spec, 0.0, 0.0, None, None))
            continue
        p99_seconds = histogram_quantile(
            route.buckets, route.count, 0.99, maximum=route.maximum
        )
        p99_ms = p99_seconds * 1e3 if p99_seconds is not None else None
        statuses.append(_judge(spec, route.requests, route.errors, p99_ms, None))
    return statuses


# ---------------------------------------------------------------------------
# Live rolling-window tracking
# ---------------------------------------------------------------------------


class SLOTracker:
    """Evaluates SLOs over a rolling window of registry snapshots.

    Call :meth:`observe` with the current samples (typically from every
    ``/v1/healthz`` probe); the tracker keeps the snapshots that fall
    inside ``window_seconds`` and judges each spec on the *difference*
    between the newest and oldest retained snapshot, so a long-lived
    server reports the last few minutes rather than its whole lifetime.
    With fewer than two snapshots in the window it falls back to
    lifetime totals (the only honest answer on the first probe).
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = DEFAULT_SLOS,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_snapshots: int = 240,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if max_snapshots < 2:
            raise ValueError(f"max_snapshots must be >= 2, got {max_snapshots}")
        self.specs = tuple(specs)
        self.window_seconds = float(window_seconds)
        self._snapshots: Deque[Tuple[float, Dict[str, _RouteTotals]]] = deque(
            maxlen=max_snapshots
        )

    def observe(
        self,
        samples: Iterable[Mapping[str, object]],
        now: Optional[float] = None,
    ) -> List[SLOStatus]:
        """Fold one snapshot in and return the windowed verdicts.

        ``now`` is a monotonic timestamp override for tests; by default
        the tracker reads ``time.monotonic()`` itself.
        """
        timestamp = time.monotonic() if now is None else float(now)
        totals = _route_totals(samples)
        self._snapshots.append((timestamp, totals))
        while (
            len(self._snapshots) > 1
            and timestamp - self._snapshots[0][0] > self.window_seconds
            and timestamp - self._snapshots[1][0] >= self.window_seconds
        ):
            self._snapshots.popleft()
        oldest_ts, oldest = self._snapshots[0]
        window = timestamp - oldest_ts if len(self._snapshots) > 1 else None
        statuses: List[SLOStatus] = []
        for spec in self.specs:
            new = totals.get(spec.route)
            if new is None:
                statuses.append(_judge(spec, 0.0, 0.0, None, window))
                continue
            old = oldest.get(spec.route) if window is not None else None
            requests = new.requests - (old.requests if old else 0.0)
            errors = new.errors - (old.errors if old else 0.0)
            buckets, count = self._bucket_delta(new, old)
            p99_seconds = histogram_quantile(
                buckets, count, 0.99, maximum=new.maximum
            )
            p99_ms = p99_seconds * 1e3 if p99_seconds is not None else None
            statuses.append(_judge(spec, requests, errors, p99_ms, window))
        return statuses

    @staticmethod
    def _bucket_delta(
        new: _RouteTotals, old: Optional[_RouteTotals]
    ) -> Tuple[Tuple[Tuple[float, float], ...], int]:
        if old is None or len(old.buckets) != len(new.buckets):
            return new.buckets, new.count
        buckets = tuple(
            (bound, cumulative - old_cumulative)
            for (bound, cumulative), (_, old_cumulative) in zip(
                new.buckets, old.buckets
            )
        )
        return buckets, new.count - old.count


# ---------------------------------------------------------------------------
# Spec files and rendering (the CLI surface)
# ---------------------------------------------------------------------------


def load_slo_specs(path: str) -> List[SLOSpec]:
    """Read a JSON spec file: ``[{"route", "p99_ms", "error_budget"}, …]``.

    Every failure mode surfaces as a one-line ``ValueError`` naming the
    file, matching the snapshot loader convention.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read SLO spec: {exc.strerror or exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: truncated or invalid JSON: {exc}") from exc
    if not isinstance(document, list) or not document:
        raise ValueError(f"{path}: SLO spec must be a non-empty JSON array")
    specs: List[SLOSpec] = []
    seen: set = set()
    for index, entry in enumerate(document):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: spec[{index}] must be an object")
        try:
            route = entry["route"]
            spec = SLOSpec(
                route=str(route),
                p99_ms=float(entry["p99_ms"]),
                error_budget=float(entry["error_budget"]),
            )
        except KeyError as exc:
            raise ValueError(
                f"{path}: spec[{index}] is missing required field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: spec[{index}]: {exc}") from exc
        if spec.route in seen:
            raise ValueError(f"{path}: duplicate route {spec.route!r}")
        seen.add(spec.route)
        specs.append(spec)
    return specs


def render_slo(statuses: Sequence[SLOStatus], format: str = "table") -> str:
    """Render verdicts as a ``table`` or ``json`` report."""
    if format == "json":
        return (
            json.dumps([status.to_dict() for status in statuses], indent=2, sort_keys=True)
            + "\n"
        )
    if format != "table":
        raise ValueError(f"unknown SLO format {format!r}; use table or json")
    lines = [
        f"{'route':<20} {'reqs':>8} {'errors':>7} {'err_rate':>9} "
        f"{'p99_ms':>10} {'target':>8} {'burn':>6}  verdict"
    ]
    for status in statuses:
        p99 = f"{status.p99_ms:.3f}" if status.p99_ms is not None else "-"
        burn = f"{status.burn_rate:.2f}" if status.burn_rate is not None else "-"
        verdict = "ok" if status.ok else "BREACH: " + "; ".join(status.breaches)
        lines.append(
            f"{status.route:<20} {status.requests:>8} {status.errors:>7} "
            f"{status.error_rate:>9.4f} {p99:>10} {status.p99_target_ms:>8g} "
            f"{burn:>6}  {verdict}"
        )
    breached = sum(1 for status in statuses if not status.ok)
    lines.append("")
    lines.append(f"{len(statuses)} route SLO(s) evaluated, {breached} breached")
    return "\n".join(lines) + "\n"
