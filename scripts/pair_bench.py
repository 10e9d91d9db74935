#!/usr/bin/env python3
"""Interleaved parent/change runs of the end-to-end benchmark.

    scripts/pair_bench.py <parent-rev> --workload ieee118_session --seeds 1-5 [--seconds 20]
    scripts/pair_bench.py <parent-rev> --workload all --seeds 1-5
    scripts/pair_bench.py <parent-rev> --workload wecc37_condensed --seeds 1-10 --claim op_norm_ms

The host drifts by tens of percent between minutes, so a parent number
remembered from an earlier run proves nothing.  This extracts the committed
files of ``<parent-rev>`` into a scratch directory once, then for every
workload named (``all``: every workload of ``BENCHMARK.json``) and every
seed runs ``benchmarks/e2e/run.py`` once on that copy and once on this
working tree, back to back, alternating which side goes first, and prints
one table per workload: each seed's pair and the medians of the six
end-to-end metrics.  A pair counts as a win for the change when its value
is lower (every metric is lower-is-better).  Each median line ends in the
no-regression verdict against the metric's ``BENCHMARK.json`` bound:
``worse`` (the change's median is above the parent's by more than the
bound), ``unresolved`` (it is not, but the parent's own runs spread wider
than the bound and the change does not beat every one of them), or ``ok``.

``--claim METRIC`` tests a claimed gain on that metric as the
choosing-metrics guide (section 8) asks: it prints each side's quartiles
and ``claim met`` only when the change wins at least nine tenths of the
pairs run (ties count for neither side) and the medians differ, in the
metric's better direction, by more than the parent's interquartile range;
otherwise ``claim not met`` and a non-zero exit.  The guide asks for ten
or more pairs: with fewer (a held-out check on a few extra seeds) the line
still reports the quartiles, the wins and the median gain, but ends in
``too few pairs for a verdict`` and the exit is non-zero.

The parent is extracted with ``git archive`` rather than checked out as a
``git worktree``: it leaves nothing registered in ``.git`` and is what the
driver itself does (committed files, fresh directory).  The change side is
the working tree as it stands, uncommitted edits included.  Nothing under
``benchmarks/e2e/`` is read except through ``run.py``'s output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-5"`` → [1..5]; ``"1,4,9"`` → [1, 4, 9]; both forms mix."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


MIN_PAIRS = 10


def claim_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Whether paired runs support a claimed gain (choosing-metrics §8).

    ``parent[i]`` and ``change[i]`` are one pair; ``better`` is
    ``"lower"`` or ``"higher"``.  The change wins a pair when its value is
    better, a tie counts for neither side, and the claim is met only when
    there are at least :data:`MIN_PAIRS` pairs, the change wins at least
    nine tenths of them and its median beats the parent's by more than the
    parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change value per parent value, at least one")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    gain = sign * (qp[1] - qc[1])
    iqr = qp[2] - qp[0]
    return {
        "wins": wins,
        "pairs": len(parent),
        "parent": qp,
        "change": qc,
        "gain": gain,
        "parent_iqr": iqr,
        "met": (
            len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent) and gain > iqr
        ),
    }


def extract(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = into / "parent.tar"
    subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", "-o", str(archive), rev],
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(into / "parent", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One untraced ``run.py`` in ``tree``; its last output line is the
    JSON object with the metrics and the failure counts."""
    cmd = [
        sys.executable, "benchmarks/e2e/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(
            f"{tree}: run.py printed no result (exit {proc.returncode})\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def compare(sides: dict, workload: str, args, spec: dict) -> bool:
    """One workload's table; true when no change-side run failed an op or
    a correctness check, and a ``--claim`` is met."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = list(bounds)
    pairs: list[tuple[int, dict, dict]] = []
    print(f"# workload {workload}  parent {args.parent_rev}  "
          f"seeds {args.seeds}  seconds {args.seconds or spec['run_seconds']}")
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        out = {
            side: run_once(sides[side], workload, seed, args.seconds)
            for side in order
        }
        pairs.append((seed, out["parent"], out["change"]))
        cells = "  ".join(
            f"{m} {out['parent']['metrics'][m]:.5g} -> {out['change']['metrics'][m]:.5g}"
            for m in metrics
        )
        failed = "  ".join(
            f"{side}: {out[side]['failed']}/{out[side]['attempted']} failed"
            + ("" if out[side]["correct"] else " INCORRECT")
            for side in ("parent", "change")
        )
        print(f"seed {seed} (first: {order[0]})  {cells}  [{failed}]", flush=True)

    print(f"# medians over {len(pairs)} pairs (parent -> change, change wins)")
    for m in metrics:
        par = [p["metrics"][m] for _, p, _ in pairs]
        chg = [c["metrics"][m] for _, _, c in pairs]
        wins = sum(c < p for p, c in zip(par, chg))
        a, b = statistics.median(par), statistics.median(chg)
        rel = f"{(b - a) / a:+.1%}" if a else "n/a"
        if a and (b - a) / a > bounds[m]:
            verdict = "worse"
        elif a and (max(par) - min(par)) / a > bounds[m] and max(chg) >= min(par):
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{m:14s} {a:.5g} -> {b:.5g}  ({rel})  {wins}/{len(pairs)}  "
              f"bound {bounds[m]:.0%}: {verdict}")
    bad = [
        (seed, side)
        for seed, p, c in pairs
        for side, out in (("parent", p), ("change", c))
        if out["failed"] or not out["correct"]
    ]
    for seed, side in bad:
        print(f"# seed {seed}: {side} run had failed ops or a correctness violation")
    met = True
    if args.claim:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}[args.claim]
        v = claim_verdict(
            [p["metrics"][args.claim] for _, p, _ in pairs],
            [c["metrics"][args.claim] for _, _, c in pairs],
            better,
        )
        met = v["met"]
        print(
            f"# claim {args.claim} ({better} is better)  "
            f"parent q1/median/q3 {'/'.join(f'{q:.5g}' for q in v['parent'])}  "
            f"change q1/median/q3 {'/'.join(f'{q:.5g}' for q in v['change'])}  "
            f"wins {v['wins']}/{v['pairs']}  median gain {v['gain']:.5g} vs "
            f"parent IQR {v['parent_iqr']:.5g}: "
            + (
                f"too few pairs for a verdict (fewer than {MIN_PAIRS})"
                if v["pairs"] < MIN_PAIRS
                else "claim met" if met else "claim not met"
            )
        )
    return met and not any(side == "change" for _, side in bad)


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument(
        "--workload", required=True, nargs="+", choices=[*names, "all"],
        help="one or more workload names, or 'all'; one table each",
    )
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: the benchmark's own)")
    ap.add_argument(
        "--claim", metavar="METRIC",
        choices=[m["name"] for m in spec["end_to_end"]],
        help="end-to-end metric a gain is claimed on: print the paired verdict",
    )
    args = ap.parse_args()
    workloads = names if "all" in args.workload else args.workload

    scratch = Path(tempfile.mkdtemp(prefix="pair_bench_"))
    try:
        extract(args.parent_rev, scratch)
        sides = {"parent": scratch / "parent", "change": REPO}
        # every table is printed, whatever an earlier one found
        clean = [compare(sides, w, args, spec) for w in workloads]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(clean) else 1


if __name__ == "__main__":
    sys.exit(main())
