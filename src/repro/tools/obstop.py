"""obstop — terminal health dashboard for a live registry or a blackbox.

Renders the cluster's vital signs from the health plane's metric
streams: throughput counters (with per-second rates when watching live),
latency histograms (n / p50 / p99), gauges, and the tail of recent
health events.  Works against two sources:

- **a file** — any repro-obs-v1 JSONL dump, including the flight
  recorder's blackbox artifacts (``--watch`` re-reads it periodically,
  so a long-running soak writing dumps gets a poor-man's live view);
- **a live registry** — :class:`Dashboard` wraps a
  :class:`~repro.obs.metrics.MetricsRegistry` (e.g. ``obs.metrics()``)
  and an optional :class:`~repro.obs.health.HealthMonitor` for the event
  tail; each :meth:`Dashboard.tick` renders one frame with rates
  computed against the previous tick.

Usage::

    python -m repro.tools.obstop blackbox.jsonl
    python -m repro.tools.obstop session.jsonl --watch 2
"""

from __future__ import annotations

import argparse
import sys
import time

from ..obs.export import load_jsonl

__all__ = ["render_dashboard", "Dashboard", "build_parser", "main"]

#: counter prefixes surfaced in the throughput section (others fold into
#: the "other counters" line-count only)
_RATE_PREFIXES = (
    "serving.", "router.", "live.", "dse.", "session.", "mux.", "health.",
    "executor.", "sim.", "mw.",
)


def _metric_kind(snap: dict) -> str:
    return snap.get("metric_kind", snap.get("kind", "?"))


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_event(ev: dict) -> str:
    detail = ev.get("detail") or {}
    extras = ", ".join(
        f"{k}={v}" for k, v in sorted(detail.items()) if v not in ("", None)
    )
    t = ev.get("t", 0.0)
    stamp = time.strftime("%H:%M:%S", time.localtime(t)) if t else "--:--:--"
    line = (
        f"  {stamp}  [{ev.get('severity', '?'):>8}] "
        f"{ev.get('event', '?'):<16} {ev.get('source', '')}"
    )
    return line + (f"  ({extras})" if extras else "")


def render_dashboard(
    metrics: list[dict],
    events: list[dict] | None = None,
    meta: dict | None = None,
    *,
    rates: dict | None = None,
    max_events: int = 8,
) -> str:
    """One dashboard frame from metric snapshots + health events.

    ``metrics`` accepts registry ``collect()`` snapshots or JSONL metric
    records; ``rates`` maps ``(name, labels-string)`` to a per-second
    rate (supplied by :class:`Dashboard` when watching live).
    """
    counters, gauges, hists = [], [], []
    for snap in metrics:
        kind = _metric_kind(snap)
        if kind == "counter":
            counters.append(snap)
        elif kind == "gauge":
            gauges.append(snap)
        elif kind == "histogram":
            hists.append(snap)

    lines: list[str] = []
    title = "obstop"
    if meta:
        if meta.get("trigger"):
            title += f" — blackbox [{meta['trigger']}]"
        elif meta.get("blackbox"):
            title += " — blackbox"
    lines.append(f"== {title} ==")
    if meta and meta.get("fired_summary"):
        lines.append(f"faults fired: {meta['fired_summary']}")
    lines.append("")

    shown = [c for c in counters if c["name"].startswith(_RATE_PREFIXES)]
    if shown:
        lines.append("-- throughput --")
        for snap in shown:
            key = (snap["name"], _label_str(snap.get("labels") or {}))
            rate = (rates or {}).get(key)
            tail = f"  {rate:10.1f}/s" if rate is not None else ""
            lines.append(
                f"  {snap['name'] + key[1]:<52} {snap['value']:>12.6g}{tail}"
            )
        hidden = len(counters) - len(shown)
        if hidden:
            lines.append(f"  (+{hidden} other counters)")
        lines.append("")

    if hists:
        lines.append("-- latency / distributions --")
        lines.append(f"  {'metric':<52} {'n':>8} {'p50':>11} {'p99':>11}")
        for snap in hists:
            name = snap["name"] + _label_str(snap.get("labels") or {})
            lines.append(
                f"  {name:<52} {snap['count']:>8} "
                f"{snap['p50']:>11.3e} {snap['p99']:>11.3e}"
            )
        lines.append("")

    if gauges:
        lines.append("-- gauges --")
        for snap in gauges:
            name = snap["name"] + _label_str(snap.get("labels") or {})
            lines.append(f"  {name:<52} {snap['value']:>12.6g}")
        lines.append("")

    events = list(events or [])
    lines.append(f"-- recent health events ({len(events)} total) --")
    if events:
        for ev in events[-max_events:]:
            lines.append(_fmt_event(ev))
    else:
        lines.append("  (none)")
    return "\n".join(lines)


class Dashboard:
    """Live dashboard over a registry (and optional health monitor).

    Each :meth:`tick` snapshots the registry, computes per-second counter
    rates against the previous tick, and returns the rendered frame.
    """

    def __init__(self, registry, monitor=None, *, clock=time.monotonic):
        self.registry = registry
        self.monitor = monitor
        self._clock = clock
        self._prev: dict | None = None
        self._prev_t: float | None = None

    def tick(self, now: float | None = None) -> str:
        now = self._clock() if now is None else now
        metrics = self.registry.collect()
        rates: dict = {}
        if self._prev is not None and self._prev_t is not None:
            dt = now - self._prev_t
            if dt > 0:
                for snap in metrics:
                    if snap.get("kind") != "counter":
                        continue
                    key = (snap["name"], _label_str(snap.get("labels") or {}))
                    prev = self._prev.get(key)
                    if prev is not None:
                        rates[key] = (snap["value"] - prev) / dt
        self._prev = {
            (s["name"], _label_str(s.get("labels") or {})): s["value"]
            for s in metrics
            if s.get("kind") == "counter"
        }
        self._prev_t = now
        events = None
        if self.monitor is not None:
            events = [ev.to_dict() for ev in self.monitor.recorder.events()]
        return render_dashboard(metrics, events, rates=rates)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obstop",
        description="terminal health dashboard over a repro-obs-v1 JSONL "
        "dump (blackbox or session export)",
    )
    p.add_argument("path", help="JSONL file to render")
    p.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-read and re-render every SECONDS (ctrl-c to stop)",
    )
    p.add_argument(
        "--max-events", type=int, default=8,
        help="health events to show in the tail (default 8)",
    )
    return p


def _render_file(path: str, max_events: int) -> str:
    data = load_jsonl(path)
    metrics = data["metrics"]
    if not metrics and data["snapshots"]:
        # blackbox with ring snapshots only: render the newest one
        metrics = data["snapshots"][-1].get("metrics", [])
    return render_dashboard(
        metrics, data["events"], data["meta"], max_events=max_events
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.watch is None:
        print(_render_file(args.path, args.max_events))
        return 0
    try:
        while True:
            frame = _render_file(args.path, args.max_events)
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.watch)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
