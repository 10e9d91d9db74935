"""Observability exporters: JSONL dumps, Prometheus text, console flames.

One schema everywhere: spans export as the dicts produced by
:meth:`repro.obs.trace.Span.to_dict`, metrics as registry snapshots, and
per-frame session records as :meth:`repro.core.telemetry.FrameReport.to_dict`.

- :func:`export_jsonl` / :func:`load_jsonl` — line-per-record dump of a
  session (``kind`` is ``span`` / ``metric`` / ``frame`` / ``meta``);
- :func:`render_prometheus` — Prometheus text exposition of a registry
  (counters as ``_total``-style samples, histograms as count/sum plus
  quantile samples);
- :func:`build_trace_trees` / :func:`render_flame` — reassemble span
  parent/child links and render a per-trace console flame summary.
"""

from __future__ import annotations

import json
import time

from .metrics import MetricsRegistry

__all__ = [
    "export_jsonl",
    "load_jsonl",
    "render_prometheus",
    "render_prometheus_snapshots",
    "build_trace_trees",
    "render_flame",
    "render_metrics_table",
]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def _json_default(o):
    try:
        import numpy as np

        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    return repr(o)


def _dump_record(d: dict) -> str:
    """One JSONL line for a record dict (shared with the flight recorder)."""
    return json.dumps(d, default=_json_default) + "\n"


def export_jsonl(path, *, tracer=None, registry=None, frames=None, meta=None) -> int:
    """Write a recorded session to ``path`` (one JSON object per line).

    ``tracer`` contributes its finished spans, ``registry`` a snapshot of
    every metric, ``frames`` an iterable of
    :class:`~repro.core.telemetry.FrameReport` (or plain dicts).  Returns
    the number of lines written.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {"kind": "meta", "format": "repro-obs-v1", "exported_at": time.time()}
        if tracer is not None:
            header["spans_dropped"] = tracer.spans_dropped
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, default=_json_default) + "\n")
        n += 1
        if tracer is not None:
            for d in tracer.finished():
                fh.write(json.dumps(d, default=_json_default) + "\n")
                n += 1
        if registry is not None:
            for d in registry.collect():
                rec = dict(d)
                rec["kind"] = "metric"
                rec["metric_kind"] = d["kind"]
                fh.write(json.dumps(rec, default=_json_default) + "\n")
                n += 1
        if frames is not None:
            for fr in frames:
                d = fr if isinstance(fr, dict) else fr.to_dict()
                rec = {"kind": "frame", **d}
                fh.write(json.dumps(rec, default=_json_default) + "\n")
                n += 1
    return n


def load_jsonl(path) -> dict:
    """Read a session dump back:
    ``{"meta", "spans", "metrics", "frames", "events", "snapshots"}``.

    ``events`` / ``snapshots`` come from health-plane blackbox dumps
    (empty for plain session exports); unknown kinds are skipped, so
    newer dumps stay readable by older loaders and vice versa.
    """
    out = {"meta": {}, "spans": [], "metrics": [], "frames": [],
           "events": [], "snapshots": []}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("kind")
            if kind == "meta":
                out["meta"] = rec
            elif kind == "span":
                out["spans"].append(rec)
            elif kind == "metric":
                out["metrics"].append(rec)
            elif kind == "frame":
                out["frames"].append(rec)
            elif kind == "event":
                out["events"].append(rec)
            elif kind == "snapshot":
                out["snapshots"].append(rec)
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote and newline must be ``\\\\``, ``\\"`` and ``\\n`` inside the
    quoted value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(str(k))}="{_prom_escape(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus_snapshots(snapshots) -> str:
    """Prometheus text-format rendering of metric snapshot dicts.

    Accepts both live ``registry.collect()`` snapshots (``kind`` is the
    metric kind) and JSONL metric records (``kind == "metric"`` with the
    metric kind under ``metric_kind``) — the one renderer behind
    :func:`render_prometheus` and the ``obsreport --prometheus`` CLI.
    """
    lines: list[str] = []
    for snap in snapshots:
        name = _prom_name(snap["name"])
        labels = snap.get("labels") or {}
        kind = snap.get("metric_kind", snap.get("kind"))
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_prom_labels(labels)} {snap['value']:.10g}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_prom_labels(labels)} {snap['value']:.10g}")
        else:  # histogram -> summary-style quantile samples
            lines.append(f"# TYPE {name} summary")
            for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                qlabels = dict(labels)
                qlabels["quantile"] = q
                lines.append(f"{name}{_prom_labels(qlabels)} {snap[key]:.10g}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {snap['sum']:.10g}")
            lines.append(f"{name}_count{_prom_labels(labels)} {snap['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text-format rendering of every metric in ``registry``."""
    return render_prometheus_snapshots(registry.collect())


# ----------------------------------------------------------------------
# trace trees and console flames
# ----------------------------------------------------------------------
def build_trace_trees(spans: list[dict]) -> list[dict]:
    """Reassemble span dicts into trace trees.

    Returns one record per trace: ``{"trace", "roots", "n_spans"}`` where
    every span node gains a ``"children"`` list (sorted by start time).
    Spans whose parent is missing from the dump (e.g. dropped by the
    retention bound) are promoted to roots rather than lost.
    """
    by_trace: dict[int, list[dict]] = {}
    for d in spans:
        by_trace.setdefault(d["trace"], []).append(d)

    trees = []
    for trace_id, group in sorted(by_trace.items()):
        nodes = {d["span"]: {**d, "children": []} for d in group}
        roots = []
        for node in nodes.values():
            parent = node.get("parent")
            if parent is not None and parent in nodes:
                nodes[parent]["children"].append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda c: c.get("start", 0.0))
        roots.sort(key=lambda c: c.get("start", 0.0))
        trees.append({"trace": trace_id, "roots": roots, "n_spans": len(group)})
    trees.sort(key=lambda t: min((r.get("start", 0.0) for r in t["roots"]), default=0.0))
    return trees


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    body = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items(), key=lambda kv: str(kv[0])))
    return " {" + body + "}"


def _flame_node(node: dict, total: float, depth: int, lines: list[str],
                max_depth: int) -> None:
    if max_depth is not None and depth > max_depth:
        return
    dur = node.get("dur", 0.0)
    frac = dur / total if total > 0 else 0.0
    bar = "#" * max(1, int(round(frac * 24))) if dur > 0 else ""
    status = "" if node.get("status", "ok") == "ok" else " [ERROR]"
    lines.append(
        f"{'  ' * depth}{node['name']:<{max(1, 38 - 2 * depth)}} "
        f"{dur * 1e3:9.3f} ms  {frac * 100:5.1f}%  {bar}{status}"
        f"{_fmt_attrs(node.get('attrs') or {})}"
    )
    for child in node.get("children", []):
        _flame_node(child, total, depth + 1, lines, max_depth)


def render_flame(spans: list[dict], *, max_depth: int | None = None) -> str:
    """Console flame summary: one indented tree per trace, durations and
    percent-of-root bars per span."""
    lines: list[str] = []
    for tree in build_trace_trees(spans):
        total = sum(r.get("dur", 0.0) for r in tree["roots"])
        lines.append(
            f"trace {tree['trace']:#x} — {tree['n_spans']} spans, "
            f"{total * 1e3:.3f} ms"
        )
        for root in tree["roots"]:
            _flame_node(root, total, 1, lines, max_depth)
        lines.append("")
    return "\n".join(lines)


def render_metrics_table(snapshots: list[dict]) -> str:
    """Fixed-width console table of metric snapshots."""
    lines = [f"{'metric':<44} {'kind':<10} {'value / p50 / p99':>32}"]
    for snap in snapshots:
        kind = snap.get("metric_kind", snap.get("kind", "?"))
        name = snap["name"] + _fmt_attrs(snap.get("labels") or {})
        if kind in ("counter", "gauge"):
            val = f"{snap['value']:.6g}"
        else:
            val = (
                f"n={snap['count']} p50={snap['p50']:.3e} "
                f"p99={snap['p99']:.3e}"
            )
        lines.append(f"{name:<44} {kind:<10} {val:>32}")
    return "\n".join(lines)
