"""repro.obs — process-wide observability: metrics, traces, exporters.

One switchboard for everything the repo measures about itself:

- a thread-safe :class:`~repro.obs.metrics.MetricsRegistry` (counters,
  gauges, streaming-quantile histograms) replacing the ad-hoc unsynchronized
  counters that used to live on individual services;
- a :class:`~repro.obs.trace.Tracer` producing span trees per DSE frame,
  with context propagation across executor threads and the middleware
  wire (a compact trace context rides the mux frame);
- exporters: JSONL session dumps, Prometheus text, console flame
  summaries (:mod:`repro.obs.export`), rendered offline by
  ``python -m repro.tools.obsreport``.

Everything is **off by default** and costs one flag check per
instrumentation point when disabled; the overhead with tracing *enabled*
is gated by ``benchmarks/bench_obs_overhead.py`` (≤ 5% on the IEEE-118
DSE hot path).  Estimator outputs are bit-identical either way — the
instrumentation never touches numerics or RNG state.

Usage::

    from repro import obs

    obs.configure(enabled=True)          # or REPRO_OBS=1 in the environment
    ...run a session...
    obs.export_jsonl("session.jsonl", tracer=obs.tracer(),
                     registry=obs.metrics())
    obs.configure(enabled=False, reset=True)

Knobs: ``configure(enabled=, sample_every=)``; environment overrides
``REPRO_OBS`` (truthy enables at import) and ``REPRO_OBS_SAMPLE``
(record every N-th trace).
"""

from __future__ import annotations

import os

from .export import (
    build_trace_trees,
    export_jsonl,
    load_jsonl,
    render_flame,
    render_metrics_table,
    render_prometheus,
    render_prometheus_snapshots,
)
from .health import (
    DEFAULT_TRIGGERS,
    FlightRecorder,
    HealthEvent,
    HealthMonitor,
    Watchdog,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    TRACE_CTX_SIZE,
    pack_span_context,
    unpack_span_context,
    use_context,
)
from .trace import current_context as _trace_current_context

__all__ = [
    # hub
    "configure", "enabled", "tracer", "metrics", "span", "current_context",
    "reset_in_worker",
    "health", "health_enabled",
    # building blocks
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "SpanContext", "Tracer", "NOOP_SPAN",
    "use_context", "pack_span_context", "unpack_span_context",
    "TRACE_CTX_SIZE",
    # health plane
    "HealthMonitor", "HealthEvent", "FlightRecorder", "Watchdog",
    "DEFAULT_TRIGGERS",
    # exporters
    "export_jsonl", "load_jsonl", "render_prometheus",
    "render_prometheus_snapshots", "render_flame",
    "render_metrics_table", "build_trace_trees",
]

_USE_CURRENT = object()

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()
_health_enabled = False
_health: HealthMonitor | None = None
_health_dump_dir = None


def _make_health() -> HealthMonitor:
    from pathlib import Path

    mon = HealthMonitor(registry=_registry)
    mon.recorder.dump_dir = (
        Path(_health_dump_dir) if _health_dump_dir is not None else None
    )
    return mon


def configure(
    *,
    enabled: bool | None = None,
    sample_every: int | None = None,
    reset: bool = False,
    health: bool | None = None,
    health_dump_dir=_USE_CURRENT,
) -> None:
    """Configure the process-wide observability state.

    ``enabled`` flips every instrumentation point on/off; ``sample_every``
    records every N-th root trace (head sampling, children inherit the
    decision); ``reset`` clears accumulated spans, metrics and health
    state first.

    ``health`` flips the runtime health plane (flight recorder, watchdog
    — see :mod:`repro.obs.health`); ``health_dump_dir`` is
    where trigger events auto-dump blackbox JSONL files (``None`` = no
    auto-dumps, explicit ``dump(path)`` only).  Span capture into the
    flight recorder additionally needs ``enabled=True`` — the health
    plane never creates spans of its own.
    """
    global _enabled, _health_enabled, _health, _health_dump_dir
    if reset:
        _tracer.reset()
        _registry.reset()
        if _health is not None:
            _health.stop()
            _health = None
        _tracer.mirror = None
    if sample_every is not None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        _tracer.sample_every = int(sample_every)
    if enabled is not None:
        _enabled = bool(enabled)
    if health_dump_dir is not _USE_CURRENT:
        _health_dump_dir = health_dump_dir
        if _health is not None:
            from pathlib import Path

            _health.recorder.dump_dir = (
                Path(health_dump_dir) if health_dump_dir is not None else None
            )
    if health is not None:
        _health_enabled = bool(health)
        if _health_enabled:
            if _health is None:
                _health = _make_health()
            _tracer.mirror = _health.recorder.record_span
        else:
            if _health is not None:
                _health.stop()
            _tracer.mirror = None


def enabled() -> bool:
    """Whether observability is globally on (the hot-path guard)."""
    return _enabled


def health_enabled() -> bool:
    """Whether the runtime health plane is on (the hot-path guard for
    every health hook in serving / DSE / the pools)."""
    return _health_enabled


def health() -> HealthMonitor:
    """The process-wide :class:`HealthMonitor` (created lazily; shared by
    every instrumented layer).  Instrumented code guards each call with
    :func:`health_enabled` — accessing the monitor does not enable it."""
    global _health
    if _health is None:
        _health = _make_health()
        if _health_enabled:
            _tracer.mirror = _health.recorder.record_span
    return _health


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def span(name: str, *, parent=_USE_CURRENT, **attrs):
    """Open a span on the global tracer — the universal instrumentation
    point.  Returns :data:`NOOP_SPAN` when observability is disabled, so
    call sites need no guard of their own."""
    if not _enabled:
        return NOOP_SPAN
    if parent is _USE_CURRENT:
        return _tracer.start_span(name, attrs=attrs)
    return _tracer.start_span(name, parent=parent, attrs=attrs)


def current_context() -> SpanContext | None:
    """Active span context of this thread, or ``None`` (also when
    observability is disabled — callers use this as the propagation
    guard)."""
    if not _enabled:
        return None
    return _trace_current_context()


def reset_in_worker() -> None:
    """Disable and clear observability in a freshly spawned/forked pool
    worker: the parent's tracer state is not meaningful there, and the
    worker records nothing."""
    global _enabled, _health_enabled, _health
    _enabled = False
    _health_enabled = False
    _health = None
    _tracer.mirror = None
    _tracer.reset()
    _registry.reset()


# Environment opt-in: REPRO_OBS=1 enables at import (CLI tools, examples);
# REPRO_OBS_SAMPLE=N records every N-th trace; REPRO_OBS_HEALTH=1 turns on
# the runtime health plane.
def _truthy(v: str) -> bool:
    return v.lower() in ("1", "true", "yes", "on")


if _truthy(os.environ.get("REPRO_OBS", "")):
    configure(enabled=True)
if os.environ.get("REPRO_OBS_SAMPLE", ""):
    try:
        configure(sample_every=int(os.environ["REPRO_OBS_SAMPLE"]))
    except ValueError:  # pragma: no cover - bad env value
        pass
if _truthy(os.environ.get("REPRO_OBS_HEALTH", "")):
    configure(health=True)
