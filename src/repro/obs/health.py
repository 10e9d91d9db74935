"""repro.obs.health — the always-on runtime health plane.

PR 4 made the repo observable *after the fact* (record, export, render
with ``obsreport``).  This module makes it observable *while it runs*:

- :class:`HealthEvent` — one typed, timestamped "something notable
  happened" record (``shard.lost``, ``watchdog.stall``, ``shed.burst``,
  ``frame.degraded``, ``slo.burn``, ``manual``), counted under
  ``health.events_total{kind}``;
- :class:`FlightRecorder` — bounded ring buffers of the most recent
  spans, metric snapshots and health events.  When a trigger event fires
  (or :meth:`HealthMonitor.dump` is called) it writes a self-contained
  **blackbox**: a repro-obs-v1 JSONL file that ``obsreport`` /
  ``obstop`` render directly, with the active fault injector's
  ``fired_summary`` in the meta header so a chaos failure replays from
  the artifact alone;
- :class:`Watchdog` — armed heartbeat watches over stallable loops
  (Step-2 rounds, pool maps, shard dispatchers).  ``beat`` is a lock-free
  timestamp store on the instrumented thread; staleness is detected by a
  monitor *check*, never by anything on the hot path;
- :class:`SloSpec` / :class:`SloEngine` — declarative latency /
  availability / shed-budget objectives over the serving tier's
  cumulative stats, evaluated as **multi-window burn rates** with
  hysteresis (the SRE alerting shape: alert only when the error budget is
  burning in *every* window, enter/exit after N consecutive verdicts);
- :class:`HealthMonitor` — the hub tying them together, exposed as
  ``obs.health()`` behind ``obs.configure(health=True)`` /
  ``REPRO_OBS_HEALTH``.  Disabled (the default) no instrumented layer
  calls into this module at all — outputs stay bitwise identical.

Everything here observes; nothing blocks, retries or mutates the work it
watches.  The monitor's background loop (or an explicit ``tick()`` in
tests, with an injected clock) is the only place staleness and burn are
computed.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .export import _dump_record
from .metrics import MetricsRegistry

__all__ = [
    "HealthEvent",
    "FlightRecorder",
    "Watchdog",
    "WatchToken",
    "SloSpec",
    "SloEngine",
    "HealthMonitor",
    "DEFAULT_TRIGGERS",
]

#: event kinds that auto-dump a blackbox when the recorder has a dump dir
DEFAULT_TRIGGERS = frozenset(
    {
        "frame.degraded",
        "shard.lost",
        "shed.burst",
        "watchdog.stall",
        "site.lost",
        "site.recovered",
    }
)


@dataclass(frozen=True)
class HealthEvent:
    """One typed health occurrence (immutable, JSON-ready)."""

    kind: str
    source: str
    severity: str = "warning"
    detail: dict = field(default_factory=dict)
    t_wall: float = 0.0
    seq: int = 0

    def to_dict(self) -> dict:
        """JSONL record (``kind="event"`` — repro-obs-v1 readers that
        predate the health plane skip it)."""
        return {
            "kind": "event",
            "event": self.kind,
            "severity": self.severity,
            "source": self.source,
            "detail": dict(self.detail),
            "t": self.t_wall,
            "seq": self.seq,
        }


def _jsonable_fired(summary: dict) -> dict:
    """``FaultInjector.fired_summary`` keyed by tuples -> JSON keys.

    The stringified tuple is deterministic, so two replays of the same
    seeded plan produce byte-identical blackbox meta."""
    return {str(k): v for k, v in sorted(summary.items(), key=lambda kv: str(kv[0]))}


class FlightRecorder:
    """Bounded rings of recent spans / metric snapshots / health events,
    dumped as a self-contained blackbox JSONL on demand or on trigger.

    The span ring is fed by the tracer's mirror hook
    (:attr:`repro.obs.trace.Tracer.mirror`), so it sees every recorded
    span — including ones the tracer's retention bound would drop — but
    only keeps the last ``span_capacity``.  That is the point: after a
    long soak the tracer may be full or reset, while the recorder still
    holds the minutes *around the failure*.
    """

    def __init__(
        self,
        *,
        span_capacity: int = 4096,
        event_capacity: int = 512,
        snapshot_capacity: int = 16,
        dump_dir=None,
        min_dump_interval: float = 1.0,
        clock=time.monotonic,
    ):
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=int(span_capacity))
        self._events: deque = deque(maxlen=int(event_capacity))
        self._snapshots: deque = deque(maxlen=int(snapshot_capacity))
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.min_dump_interval = float(min_dump_interval)
        self._clock = clock
        self._last_dump = None
        self._dump_seq = itertools.count(1)
        self.dumps: list[str] = []

    # -- feeds ---------------------------------------------------------
    def record_span(self, span_dict: dict) -> None:
        """Tracer mirror sink (appends under the ring's own lock)."""
        with self._lock:
            self._spans.append(span_dict)

    def record_event(self, event: HealthEvent) -> None:
        with self._lock:
            self._events.append(event)

    def snapshot_metrics(self, registry: MetricsRegistry) -> None:
        """Append one timestamped snapshot of every metric to the ring."""
        snap = {"t": time.time(), "metrics": registry.collect()}
        with self._lock:
            self._snapshots.append(snap)

    # -- reads ---------------------------------------------------------
    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def events(self) -> list[HealthEvent]:
        with self._lock:
            return list(self._events)

    def snapshots(self) -> list[dict]:
        with self._lock:
            return list(self._snapshots)

    # -- dumping -------------------------------------------------------
    def dump(self, path, *, registry=None, meta: dict | None = None) -> str:
        """Write the rings (plus an optional live-registry snapshot) to
        ``path`` as repro-obs-v1 JSONL; returns the path written.

        The file is self-contained: meta header (``"blackbox": true``,
        trigger info, fault ``fired_summary`` when an injector is
        active), span records, health-event records, a ``metric`` record
        per live metric and one ``snapshot`` record per ring entry.
        """
        with self._lock:
            spans = list(self._spans)
            events = list(self._events)
            snapshots = list(self._snapshots)
        header = {
            "kind": "meta",
            "format": "repro-obs-v1",
            "blackbox": True,
            "exported_at": time.time(),
            "n_spans": len(spans),
            "n_events": len(events),
        }
        from .. import faults  # local import: faults layers import obs

        inj = faults.active()
        if inj is not None:
            header["fired_summary"] = _jsonable_fired(inj.fired_summary())
        if meta:
            header.update(meta)
        path = str(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dump_record(header))
            for d in spans:
                fh.write(_dump_record(d))
            for ev in events:
                fh.write(_dump_record(ev.to_dict()))
            if registry is not None:
                for d in registry.collect():
                    rec = dict(d)
                    rec["kind"] = "metric"
                    rec["metric_kind"] = d["kind"]
                    fh.write(_dump_record(rec))
            for snap in snapshots:
                fh.write(_dump_record({"kind": "snapshot", **snap}))
        self.dumps.append(path)
        return path

    def trigger(self, reason: str, *, registry=None, meta: dict | None = None) -> str | None:
        """Auto-dump a blackbox named after ``reason`` into ``dump_dir``.

        Returns the path, or ``None`` when no dump dir is configured or
        the previous dump was under ``min_dump_interval`` ago (one
        failure storm must not fill the disk with near-identical
        blackboxes)."""
        if self.dump_dir is None:
            return None
        now = self._clock()
        with self._lock:
            if (
                self._last_dump is not None
                and now - self._last_dump < self.min_dump_interval
            ):
                return None
            self._last_dump = now
            seq = next(self._dump_seq)
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        slug = "".join(c if c.isalnum() else "-" for c in reason)
        path = self.dump_dir / f"blackbox-{seq:03d}-{slug}.jsonl"
        full = dict(meta or {})
        full.setdefault("trigger", reason)
        return self.dump(path, registry=registry, meta=full)


class WatchToken:
    """One armed heartbeat watch (held by the instrumented code).

    ``beat()`` is the hot-path side: a single monotonic-clock read and an
    attribute store — no locks, no allocation.  Staleness is judged by
    :meth:`Watchdog.check` on the monitor's thread."""

    __slots__ = ("name", "source", "timeout", "gate", "detail",
                 "last_beat", "beats", "tripped")

    def __init__(self, name, source, timeout, gate, detail, now):
        self.name = name
        self.source = source
        self.timeout = float(timeout)
        self.gate = gate
        self.detail = detail or {}
        self.last_beat = now
        self.beats = 0
        self.tripped = False


class Watchdog:
    """Detects silent stalls through armed heartbeat watches.

    A watch is *armed* while its loop is supposed to make progress
    (a live Step-2 round loop, an in-flight pool map, a serving
    dispatcher with queued work) and *disarmed* when the loop ends.  An
    optional ``gate`` callable suppresses staleness while there is
    legitimately nothing to do (e.g. an idle dispatcher) — a gated-idle
    watch has its deadline refreshed so a later burst gets the full
    timeout again.

    ``check`` fires each stalled watch **once per stall episode**: the
    token stays tripped until the next beat clears it.
    """

    def __init__(self, *, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._watches: set[WatchToken] = set()
        self.trips = 0

    def arm(self, name: str, *, timeout: float, source: str = "",
            gate=None, detail: dict | None = None) -> WatchToken:
        if timeout <= 0:
            raise ValueError("watch timeout must be positive")
        tok = WatchToken(name, source or name, timeout, gate, detail,
                         self._clock())
        with self._lock:
            self._watches.add(tok)
        return tok

    def beat(self, token: WatchToken) -> None:
        token.beats += 1
        token.last_beat = self._clock()
        token.tripped = False

    def disarm(self, token: WatchToken) -> None:
        with self._lock:
            self._watches.discard(token)

    def active(self) -> list[WatchToken]:
        with self._lock:
            return list(self._watches)

    def check(self, now: float | None = None) -> list[WatchToken]:
        """Scan armed watches; returns the ones that newly stalled."""
        now = self._clock() if now is None else now
        stalled = []
        for tok in self.active():
            gate = tok.gate
            if gate is not None:
                try:
                    busy = bool(gate())
                except Exception:  # noqa: BLE001 - a dying gate is "idle"
                    busy = False
                if not busy:
                    tok.last_beat = now  # idle: restart the clock
                    continue
            if tok.tripped:
                continue
            if now - tok.last_beat > tok.timeout:
                tok.tripped = True
                stalled.append(tok)
        self.trips += len(stalled)
        return stalled


_SLO_KINDS = ("latency", "availability", "shed_budget")


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    ``objective`` is the target *good fraction* (0 < objective < 1); the
    error budget is ``1 - objective``.  ``kind`` selects how good/total
    counts derive from a stats source:

    - ``latency`` — good: requests resolving within ``threshold`` seconds
      (streaming-histogram bucket resolution, counted pessimistically);
    - ``availability`` — good: completed requests; bad: typed sheds plus
      lost replicas (a replica loss is one bad unit of serving capacity);
    - ``shed_budget`` — good: executed requests; bad: shed requests.

    ``windows`` are the (short, long) burn-rate windows in seconds; the
    alert condition is ``burn >= burn_threshold`` in **every** window,
    sustained for ``hysteresis`` consecutive evaluations (and it takes
    the same number of clean evaluations to clear).
    """

    name: str
    kind: str
    objective: float = 0.99
    threshold: float = 0.0
    windows: tuple = (5.0, 60.0)
    burn_threshold: float = 1.0
    hysteresis: int = 2

    def __post_init__(self):
        if self.kind not in _SLO_KINDS:
            raise ValueError(f"kind must be one of {_SLO_KINDS}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.kind == "latency" and self.threshold <= 0:
            raise ValueError("latency SLOs need a positive threshold")
        if len(self.windows) < 1 or any(w <= 0 for w in self.windows):
            raise ValueError("windows must be positive durations")
        if self.burn_threshold <= 0 or self.hysteresis < 1:
            raise ValueError("burn_threshold > 0 and hysteresis >= 1 required")

    @staticmethod
    def parse(text: str) -> "SloSpec":
        """Parse the compact knob grammar (``REPRO_OBS_SLO``)::

            name:kind:objective[:threshold][:short/long][:burn]

        e.g. ``lat:latency:0.95:0.2``, ``avail:availability:0.999``,
        ``shed:shed_budget:0.99::1/10:2``.  Empty positions keep their
        defaults."""
        parts = [p.strip() for p in text.split(":")]
        if len(parts) < 3:
            raise ValueError(
                f"SLO spec {text!r}: need at least name:kind:objective"
            )
        kw: dict = {"name": parts[0], "kind": parts[1],
                    "objective": float(parts[2])}
        if len(parts) > 3 and parts[3]:
            kw["threshold"] = float(parts[3])
        if len(parts) > 4 and parts[4]:
            kw["windows"] = tuple(float(w) for w in parts[4].split("/"))
        if len(parts) > 5 and parts[5]:
            kw["burn_threshold"] = float(parts[5])
        return SloSpec(**kw)


def _totals_fn(spec: SloSpec, source):
    """Cumulative ``() -> (total, good)`` reader for a stats source.

    Duck-typed over the serving tier's two stats shapes.  Counters are
    read without the source's lock: they are ints mutated under it, so a
    pair can skew by one in-flight update — noise the windowed burn
    estimate tolerates by construction."""
    if hasattr(source, "latency_hist"):  # ServiceStats
        if spec.kind == "latency":
            hist = source.latency_hist
            thr = spec.threshold
            return lambda: (hist.count, hist.count_below(thr))
        return lambda: (
            source.n_requests + source.n_shed, source.n_requests
        )
    if hasattr(source, "replicas_lost"):  # RouterStats
        if spec.kind == "latency":
            raise ValueError(
                "latency SLOs need a ServiceStats source (a router has "
                "no latency histogram of its own)"
            )
        return lambda: (
            source.completed + source.shed + source.replicas_lost,
            source.completed,
        )
    raise TypeError(
        f"cannot derive {spec.kind!r} totals from {type(source).__name__}"
    )


class _TrackedSlo:
    __slots__ = ("spec", "source", "source_name", "totals", "ring",
                 "burning", "enter_streak", "exit_streak", "burns")

    def __init__(self, spec, source, source_name, totals, ring_len):
        self.spec = spec
        self.source = source
        self.source_name = source_name
        self.totals = totals
        self.ring: deque = deque(maxlen=ring_len)  # (t, total, good)
        self.burning = False
        self.enter_streak = 0
        self.exit_streak = 0
        self.burns: dict[float, float] = {}


class SloEngine:
    """Evaluates tracked :class:`SloSpec` objectives as multi-window burn
    rates over cumulative stats snapshots.

    Each evaluation appends one ``(t, total, good)`` sample per tracked
    SLO and, per window, takes the delta against the newest sample at
    least that old (the oldest available while the window fills).  The
    burn rate is ``bad_fraction / error_budget`` — burn 1.0 consumes the
    budget exactly at the objective's pace, burn ≥ ``burn_threshold`` in
    every window (through hysteresis) raises the alert.  Gauges:
    ``health.slo.burn_rate{slo, source, window}`` and
    ``health.slo.burning{slo, source}``.
    """

    def __init__(self, *, registry: MetricsRegistry | None = None,
                 clock=time.monotonic, ring_len: int = 512):
        self.registry = registry
        self._clock = clock
        self._ring_len = int(ring_len)
        self._lock = threading.Lock()
        self._tracked: dict[tuple, _TrackedSlo] = {}

    def track(self, spec: SloSpec, source, *, source_name: str = "") -> None:
        """Attach ``spec`` to a stats source (``ServiceStats`` /
        ``RouterStats``); re-tracking the same (slo, source name)
        replaces the previous attachment."""
        tr = _TrackedSlo(spec, source, source_name,
                         _totals_fn(spec, source), self._ring_len)
        with self._lock:
            self._tracked[(spec.name, source_name)] = tr

    def untrack_source(self, source) -> None:
        with self._lock:
            self._tracked = {
                k: v for k, v in self._tracked.items() if v.source is not source
            }

    def evaluate(self, now: float | None = None) -> list[dict]:
        """One evaluation pass; returns the alerts that newly *entered*
        the burning state (hysteresis satisfied this pass)."""
        now = self._clock() if now is None else now
        with self._lock:
            tracked = list(self._tracked.values())
        fired = []
        for tr in tracked:
            total, good = tr.totals()
            tr.ring.append((now, float(total), float(good)))
            spec = tr.spec
            budget = 1.0 - spec.objective
            burns = {}
            saw_traffic = False
            for w in spec.windows:
                base = tr.ring[0]
                for sample in reversed(tr.ring):
                    if now - sample[0] >= w:
                        base = sample
                        break
                d_total = total - base[1]
                d_good = good - base[2]
                if d_total <= 0:
                    burns[w] = 0.0
                    continue
                saw_traffic = True
                bad_frac = max(0.0, d_total - d_good) / d_total
                burns[w] = bad_frac / budget
            tr.burns = burns
            burning_now = saw_traffic and all(
                b >= spec.burn_threshold for b in burns.values()
            )
            if burning_now:
                tr.enter_streak += 1
                tr.exit_streak = 0
            else:
                tr.exit_streak += 1
                tr.enter_streak = 0
            if not tr.burning and tr.enter_streak >= spec.hysteresis:
                tr.burning = True
                fired.append({
                    "slo": spec.name,
                    "source": tr.source_name,
                    "kind": spec.kind,
                    "objective": spec.objective,
                    "burns": {str(w): b for w, b in burns.items()},
                })
            elif tr.burning and tr.exit_streak >= spec.hysteresis:
                tr.burning = False
            if self.registry is not None:
                for w, b in burns.items():
                    self.registry.gauge(
                        "health.slo.burn_rate",
                        slo=spec.name, source=tr.source_name, window=str(w),
                    ).set(b)
                self.registry.gauge(
                    "health.slo.burning", slo=spec.name, source=tr.source_name,
                ).set(1.0 if tr.burning else 0.0)
        return fired

    def status(self) -> list[dict]:
        """Per-SLO snapshot for dashboards."""
        with self._lock:
            tracked = list(self._tracked.values())
        return [
            {
                "slo": tr.spec.name,
                "source": tr.source_name,
                "kind": tr.spec.kind,
                "objective": tr.spec.objective,
                "burning": tr.burning,
                "burns": {str(w): b for w, b in tr.burns.items()},
            }
            for tr in tracked
        ]


class HealthMonitor:
    """The health-plane hub: one flight recorder, one watchdog, one SLO
    engine, one event stream — shared process-wide via ``obs.health()``.

    Instrumented layers call the cheap notifier methods
    (:meth:`shard_lost`, :meth:`note_shed`, :meth:`frame_degraded`,
    :meth:`watch` / :meth:`beat`); the monitor turns them into typed
    events, ``health.*`` counters and — for trigger kinds — blackbox
    dumps.  :meth:`tick` runs the periodic checks (watchdog scan, SLO
    evaluation, metric snapshot); :meth:`start` runs them on a daemon
    thread.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
        watchdog: Watchdog | None = None,
        slo: SloEngine | None = None,
        clock=time.monotonic,
        default_stall_timeout: float = 30.0,
        shed_burst: int = 10,
        shed_burst_window: float = 1.0,
        trigger_kinds=DEFAULT_TRIGGERS,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.recorder = recorder or FlightRecorder(clock=clock)
        self.watchdog = watchdog or Watchdog(clock=clock)
        self.slo = slo or SloEngine(registry=self.registry, clock=clock)
        self.default_stall_timeout = float(default_stall_timeout)
        self.trigger_kinds = frozenset(trigger_kinds)
        self.default_slos: list[SloSpec] = []
        self._listeners: list = []
        self._seq = itertools.count(1)
        self._shed_times: deque = deque(maxlen=max(2, int(shed_burst)))
        self._shed_burst = int(shed_burst)
        self._shed_window = float(shed_burst_window)
        self._burst_rearm = float("-inf")
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- event stream --------------------------------------------------
    def add_listener(self, callback) -> None:
        """``callback(event)`` runs synchronously on the emitting thread
        (keep it cheap; exceptions are swallowed)."""
        self._listeners.append(callback)

    def emit(self, kind: str, source: str, *, severity: str = "warning",
             **detail) -> HealthEvent:
        """Record one typed health event (ring + counter + listeners);
        trigger kinds also dump a blackbox."""
        ev = HealthEvent(
            kind=kind, source=source, severity=severity, detail=detail,
            t_wall=time.time(), seq=next(self._seq),
        )
        self.recorder.record_event(ev)
        self.registry.counter("health.events_total", kind=kind).inc()
        for cb in self._listeners:
            try:
                cb(ev)
            except Exception:  # noqa: BLE001 - listeners must not break emitters
                pass
        if kind in self.trigger_kinds:
            path = self.recorder.trigger(
                kind, registry=self.registry, meta={"event": ev.to_dict()}
            )
            if path is not None:
                self.registry.counter(
                    "health.blackbox.dumps_total", trigger=kind
                ).inc()
        return ev

    # -- notifiers wired into the instrumented layers ------------------
    def shard_lost(self, shard: str, exc: Exception | None = None) -> HealthEvent:
        """A serving replica died (fires synchronously from the router's
        loss path, *before* the rehash re-dispatches its requests)."""
        return self.emit(
            "shard.lost", shard, severity="critical",
            error=repr(exc) if exc is not None else "",
        )

    def frame_degraded(self, source: str, **detail) -> HealthEvent:
        return self.emit("frame.degraded", source, **detail)

    def site_lost(self, site: str, **detail) -> HealthEvent:
        """A DSE site's lease expired (recovery plane): its checkpoints
        stopped arriving and the coordinator declared it lost."""
        return self.emit("site.lost", site, severity="critical", **detail)

    def site_recovered(self, source: str, **detail) -> HealthEvent:
        """A lost subsystem resumed on its checkpoint replica (failover
        promotion completed, or a degraded frame cleared)."""
        return self.emit("site.recovered", source, severity="info", **detail)

    def note_shed(self, source: str, cause: str) -> None:
        """Count a shed request toward burst detection: ``shed_burst``
        sheds inside ``shed_burst_window`` seconds raise one
        ``shed.burst`` event per episode."""
        now = self._clock()
        ring = self._shed_times
        ring.append(now)
        if (
            len(ring) == ring.maxlen
            and now - ring[0] <= self._shed_window
            and now >= self._burst_rearm
        ):
            self._burst_rearm = now + self._shed_window
            self.emit(
                "shed.burst", source, count=len(ring),
                window_s=self._shed_window, last_cause=cause,
            )

    # -- watchdog convenience ------------------------------------------
    def watch(self, name: str, *, timeout: float | None = None,
              source: str = "", gate=None, **detail) -> WatchToken:
        return self.watchdog.arm(
            name,
            timeout=timeout if timeout is not None else self.default_stall_timeout,
            source=source, gate=gate, detail=detail or None,
        )

    def beat(self, token: WatchToken) -> None:
        self.watchdog.beat(token)

    def disarm(self, token: WatchToken) -> None:
        self.watchdog.disarm(token)

    # -- SLO attachment ------------------------------------------------
    def watch_service(self, name: str, stats) -> int:
        """Apply every default latency / shed-budget SLO to a replica's
        ``ServiceStats``; returns the number attached."""
        n = 0
        for spec in self.default_slos:
            if spec.kind in ("latency", "shed_budget"):
                self.slo.track(spec, stats, source_name=name)
                n += 1
        return n

    def watch_router(self, name: str, stats) -> int:
        """Apply every default availability SLO to a ``RouterStats``."""
        n = 0
        for spec in self.default_slos:
            if spec.kind == "availability":
                self.slo.track(spec, stats, source_name=name)
                n += 1
        return n

    # -- periodic checks -----------------------------------------------
    def tick(self, now: float | None = None) -> list[HealthEvent]:
        """One monitor pass: watchdog scan, SLO evaluation, metric
        snapshot.  Returns the events it emitted."""
        now = self._clock() if now is None else now
        out: list[HealthEvent] = []
        for tok in self.watchdog.check(now):
            self.registry.counter(
                "health.watchdog.trips_total", watch=tok.name
            ).inc()
            out.append(self.emit(
                "watchdog.stall", tok.source, severity="critical",
                watch=tok.name, timeout_s=tok.timeout, beats=tok.beats,
                **tok.detail,
            ))
        for alert in self.slo.evaluate(now):
            self.registry.counter(
                "health.slo.trips_total", slo=alert["slo"]
            ).inc()
            detail = dict(alert)
            src = detail.pop("source") or alert["slo"]
            detail["slo_kind"] = detail.pop("kind")   # "kind" is the event's
            out.append(self.emit("slo.burn", src, **detail))
        self.recorder.snapshot_metrics(self.registry)
        return out

    def start(self, interval: float = 0.25) -> None:
        """Run :meth:`tick` on a daemon thread every ``interval`` s."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(float(interval),),
            name="health-monitor", daemon=True,
        )
        self._thread.start()

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover - keep the loop alive
                pass

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()

    # -- explicit blackbox ---------------------------------------------
    def dump(self, path=None, *, reason: str = "manual") -> str | None:
        """Write a blackbox now: to ``path``, or into the recorder's dump
        dir (``None`` if neither is available)."""
        self.emit("manual", reason, severity="info")
        if path is not None:
            return self.recorder.dump(
                path, registry=self.registry, meta={"trigger": reason}
            )
        return self.recorder.trigger(reason, registry=self.registry)
