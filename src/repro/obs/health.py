"""repro.obs.health — the always-on runtime health plane.

PR 4 made the repo observable *after the fact* (record, export, render
with ``obsreport``).  This module makes it observable *while it runs*:

- :class:`HealthEvent` — one typed, timestamped "something notable
  happened" record (``shard.lost``, ``watchdog.stall``, ``shed.burst``,
  ``frame.degraded``, ``site.lost``, ``site.recovered``, ``manual``),
  counted under ``health.events_total{kind}``;
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
- :class:`HealthMonitor` — the hub tying them together, exposed as
  ``obs.health()`` behind ``obs.configure(health=True)`` /
  ``REPRO_OBS_HEALTH``.  Disabled (the default) no instrumented layer
  calls into this module at all — outputs stay bitwise identical.

Everything here observes; nothing blocks, retries or mutates the work it
watches.  The monitor's background loop (or an explicit ``tick()`` in
tests, with an injected clock) is the only place staleness is computed.
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

#: flight-recorder ring bounds: spans, health events, metric snapshots
SPAN_CAPACITY = 4096
EVENT_CAPACITY = 512
SNAPSHOT_CAPACITY = 16
#: seconds between two auto-dumped blackboxes (a failure storm writes one)
MIN_DUMP_INTERVAL = 1.0
#: heartbeat timeout of a watch armed without an explicit one, seconds
STALL_TIMEOUT = 30.0
#: ``SHED_BURST`` sheds inside ``SHED_BURST_WINDOW`` seconds are a burst
SHED_BURST = 10
SHED_BURST_WINDOW = 1.0


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
    only keeps the last :data:`SPAN_CAPACITY`.  That is the point: after a
    long soak the tracer may be full or reset, while the recorder still
    holds the minutes *around the failure*.
    """

    def __init__(self, *, dump_dir=None, clock=time.monotonic):
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=SPAN_CAPACITY)
        self._events: deque = deque(maxlen=EVENT_CAPACITY)
        self._snapshots: deque = deque(maxlen=SNAPSHOT_CAPACITY)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
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
        the previous dump was under :data:`MIN_DUMP_INTERVAL` ago (one
        failure storm must not fill the disk with near-identical
        blackboxes)."""
        if self.dump_dir is None:
            return None
        now = self._clock()
        with self._lock:
            if (
                self._last_dump is not None
                and now - self._last_dump < MIN_DUMP_INTERVAL
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


class HealthMonitor:
    """The health-plane hub: one flight recorder, one watchdog, one event
    stream — shared process-wide via ``obs.health()``.

    Instrumented layers call the cheap notifier methods
    (:meth:`shard_lost`, :meth:`note_shed`, :meth:`frame_degraded`,
    :meth:`watch` / :meth:`beat`); the monitor turns them into typed
    events, ``health.*`` counters and — for trigger kinds — blackbox
    dumps.  :meth:`tick` runs the periodic checks (watchdog scan, metric
    snapshot); :meth:`start` runs them on a daemon thread.
    """

    def __init__(self, *, registry: MetricsRegistry | None = None,
                 clock=time.monotonic):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.recorder = FlightRecorder(clock=clock)
        self.watchdog = Watchdog(clock=clock)
        self._listeners: list = []
        self._seq = itertools.count(1)
        self._shed_times: deque = deque(maxlen=SHED_BURST)
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
        if kind in DEFAULT_TRIGGERS:
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
        """Count a shed request toward burst detection: :data:`SHED_BURST`
        sheds inside :data:`SHED_BURST_WINDOW` seconds raise one
        ``shed.burst`` event per episode."""
        now = self._clock()
        ring = self._shed_times
        ring.append(now)
        if (
            len(ring) == ring.maxlen
            and now - ring[0] <= SHED_BURST_WINDOW
            and now >= self._burst_rearm
        ):
            self._burst_rearm = now + SHED_BURST_WINDOW
            self.emit(
                "shed.burst", source, count=len(ring),
                window_s=SHED_BURST_WINDOW, last_cause=cause,
            )

    # -- watchdog convenience ------------------------------------------
    def watch(self, name: str, *, timeout: float | None = None,
              source: str = "", gate=None, **detail) -> WatchToken:
        return self.watchdog.arm(
            name,
            timeout=timeout if timeout is not None else STALL_TIMEOUT,
            source=source, gate=gate, detail=detail or None,
        )

    def beat(self, token: WatchToken) -> None:
        self.watchdog.beat(token)

    def disarm(self, token: WatchToken) -> None:
        self.watchdog.disarm(token)

    # -- periodic checks -----------------------------------------------
    def tick(self, now: float | None = None) -> list[HealthEvent]:
        """One monitor pass: watchdog scan, then a metric snapshot.
        Returns the events it emitted."""
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
