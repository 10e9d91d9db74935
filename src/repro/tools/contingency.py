"""CLI: N-1 contingency analysis from an estimated state.

Example::

    python -m repro.tools.contingency --case case118 --margin 1.5
    python -m repro.tools.contingency --case case118 --method ac --executor processes:2
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..contingency import ContingencyAnalyzer, enumerate_n1, run_parallel
from ..estimation import estimate_state
from ..grid.powerflow import run_ac_power_flow
from ..measurements import full_placement, generate_measurements
from .common import CASE_CHOICES, load_case

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.tools.contingency",
        description="Estimation-fed N-1 contingency screening.",
    )
    p.add_argument("--case", default="case118", help=f"test case ({CASE_CHOICES})")
    p.add_argument("--margin", type=float, default=1.5,
                   help="rating margin over base-case flows")
    p.add_argument("--method", default="dc", choices=["dc", "ac"])
    p.add_argument("--executor", default=None,
                   help="executor spec (serial | processes[:N]); an ac sweep "
                        "fans out on a process pool, a dc sweep is one "
                        "batched solve whatever this says")
    p.add_argument("--top", type=int, default=5, help="worst cases to print")
    p.add_argument("--seed", type=int, default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    net = load_case(args.case)
    pf = run_ac_power_flow(net, flat_start=True)

    rng = np.random.default_rng(args.seed)
    mset = generate_measurements(net, full_placement(net), pf, rng=rng)
    estimate = estimate_state(net, mset)
    print(f"{net.name}: estimated state in {estimate.iterations} WLS iterations")

    safe, islanding = enumerate_n1(net)
    print(f"N-1: {len(safe)} analysable, {len(islanding)} islanding "
          f"({', '.join(c.label for c in islanding) or 'none'})")

    analyzer = ContingencyAnalyzer.from_estimate(
        net, estimate, method=args.method, rating_margin=args.margin
    )
    report = run_parallel(analyzer, safe, executor=args.executor)
    insecure = [r for r in report.results if not r.secure]
    print(f"screened in {report.makespan * 1e3:.1f} ms "
          f"({report.scheme}, {len(report.per_worker_cases)} worker(s)); "
          f"insecure: {len(insecure)}/{len(safe)}")

    worst = sorted(report.results, key=lambda r: -r.max_loading)[: args.top]
    print(f"\nworst {len(worst)} cases:")
    for r in worst:
        flags = "" if r.secure else f"  ({len(r.violations)} violations)"
        print(f"  outage {r.contingency.label:>9}: max loading "
              f"{r.max_loading:5.2f}x{flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
