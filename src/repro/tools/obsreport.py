"""CLI: render a recorded observability dump (JSONL) for the console.

Example::

    python -m repro.tools.run_session --case case14 --frames 2 --obs out.jsonl
    python -m repro.tools.obsreport out.jsonl
    python -m repro.tools.obsreport out.jsonl --prometheus
    python -m repro.tools.obsreport out.jsonl --traces --max-depth 3
"""

from __future__ import annotations

import argparse
import sys

from ..obs import load_jsonl, render_flame, render_metrics_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.tools.obsreport",
        description="Render a repro.obs JSONL session dump: trace flame "
                    "summaries, metric tables, frame reports.",
    )
    p.add_argument("path", help="JSONL file written by repro.obs.export_jsonl")
    p.add_argument("--traces", action="store_true",
                   help="only the trace flame summaries")
    p.add_argument("--metrics", action="store_true",
                   help="only the metrics table")
    p.add_argument("--frames", action="store_true",
                   help="only the per-frame session records")
    p.add_argument("--prometheus", action="store_true",
                   help="re-render the recorded metrics in Prometheus "
                        "text-exposition format")
    p.add_argument("--max-depth", type=int, default=None,
                   help="truncate flame trees below this depth")
    return p


def _render_prometheus_records(metric_records: list[dict]) -> str:
    # one renderer for live registries and recorded dumps: escaping and
    # histogram _sum/_count handling cannot drift between the two paths
    from ..obs.export import render_prometheus_snapshots

    return render_prometheus_snapshots(metric_records)


def _frame_table(frames: list[dict]) -> str:
    lines = [
        f"{'t(s)':>8} {'noise':>7} {'rounds':>6} {'bytes':>8} "
        f"{'wall (ms)':>10} {'sim total (ms)':>14}"
    ]
    for fr in frames:
        sim_total = (fr.get("timings") or {}).get("total", 0.0)
        lines.append(
            f"{fr.get('t', 0.0):8.1f} {fr.get('noise_level', 0.0):7.3f} "
            f"{fr.get('rounds', 0):6d} {fr.get('bytes_exchanged', 0):8d} "
            f"{fr.get('wall_time', 0.0) * 1e3:10.2f} {sim_total * 1e3:14.3f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    dump = load_jsonl(args.path)

    if args.prometheus:
        sys.stdout.write(_render_prometheus_records(dump["metrics"]))
        return 0

    sections = {
        "traces": args.traces,
        "metrics": args.metrics,
        "frames": args.frames,
    }
    show_all = not any(sections.values())

    meta = dump["meta"]
    print(f"{args.path}: {len(dump['spans'])} spans, "
          f"{len(dump['metrics'])} metrics, {len(dump['frames'])} frames"
          + (f", {meta['spans_dropped']} spans dropped"
             if meta.get("spans_dropped") else ""))

    if (show_all or sections["traces"]) and dump["spans"]:
        print("\n== traces ==")
        print(render_flame(dump["spans"], max_depth=args.max_depth))
    if (show_all or sections["metrics"]) and dump["metrics"]:
        print("== metrics ==")
        print(render_metrics_table(dump["metrics"]))
    if (show_all or sections["frames"]) and dump["frames"]:
        print("\n== frames ==")
        print(_frame_table(dump["frames"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
