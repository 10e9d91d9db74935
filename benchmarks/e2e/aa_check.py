"""A/A check: two interleaved sets of runs of the same tree must agree.

    python3 benchmarks/e2e/aa_check.py --runs 10 --out benchmarks/e2e/AA_RESULT.json
    python3 benchmarks/e2e/aa_check.py --runs 5 --hog 1 --workloads ieee118_session \
        --out benchmarks/e2e/AA_RESULT_hog.json

Sets A and B run the same seeds, alternating A1 B1 A2 B2 … so slow phases
of the host land on both.  For every (end-to-end metric, workload) pair it
prints both medians, each set's quartile spread (interquartile distance
over the median — the acceptance statistic), the relative gap of B's
median against A's and the metric's bound, and exits non-zero when a gap
or a spread (``setup_s`` spread excepted) exceeds the bound.

``--hog N`` keeps N busy-loop processes running during set B only: the
yardstick-paired metrics should hold while the raw ``bench.op_p50_ms``
moves.  That mode reports but does not gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RAW = ("bench.op_p50_ms", "bench.yardstick_p50_ms")

_HOG = "while True: pass"


def one_run(workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    bench = next(json.loads(ln[len("# bench "):]) for ln in lines
                 if ln.startswith("# bench "))
    values.update({k: bench[k] for k in RAW})
    values["ops_attempted"], values["ops_failed"] = result["attempted"], result["failed"]
    return values


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--hog", type=int, default=0,
                    help="busy-loop processes during set B (report only)")
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    runs = {w: {"A": [], "B": []} for w in args.workloads}
    for i in range(args.runs):
        for side in ("A", "B"):
            hogs = [subprocess.Popen([sys.executable, "-c", _HOG])
                    for _ in range(args.hog if side == "B" else 0)]
            try:
                for w in args.workloads:
                    runs[w][side].append(one_run(w, seed=i + 1, seconds=args.seconds))
                    print(f"run {i + 1}/{args.runs} set {side} {w} done",
                          file=sys.stderr, flush=True)
            finally:
                for h in hogs:
                    h.kill()
                for h in hogs:
                    h.wait()

    report = {"runs_per_set": args.runs, "hog": args.hog, "pairs": [], "ok": True}
    print(f"{'workload':18s} {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'gap':>8s} {'bound':>6s}")
    for w in args.workloads:
        failed = sum(r["ops_failed"] for s in "AB" for r in runs[w][s])
        for name in [*bounds, *RAW]:
            a = summarise([r[name] for r in runs[w]["A"]])
            b = summarise([r[name] for r in runs[w]["B"]])
            gap = b["median"] / a["median"] - 1.0   # every metric: lower is better
            bound = bounds.get(name)
            ok = True
            if bound is not None and not args.hog:
                ok = gap <= bound and (
                    name == "setup_s" or max(a["spread"], b["spread"]) <= bound
                )
            report["pairs"].append({"workload": w, "metric": name, "A": a, "B": b,
                                    "gap": gap, "bound": bound, "ok": ok})
            report["ok"] = report["ok"] and ok and failed == 0
            print(f"{w:18s} {name:22s} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{a['spread']:9.4f} {b['spread']:9.4f} {gap:+8.4f} "
                  f"{bound if bound is not None else '-':>6} {'' if ok else 'FAIL'}")
        print(f"{w:18s} ops_failed {failed}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("A/A", "passed" if report["ok"] else "FAILED")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
