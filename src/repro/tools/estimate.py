"""CLI: one-shot state estimation on a bundled or synthetic case.

Example::

    python -m repro.tools.estimate --case case118 --noise 1.0
    python -m repro.tools.estimate --case synthetic:6x15 --robust --bad-rows 3
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..estimation import (
    chi_square_test,
    constrained_estimate,
    estimate_state,
    huber_estimate,
    identify_bad_data,
)
from ..grid.powerflow import run_ac_power_flow
from ..measurements import full_placement, generate_measurements, inject_bad_data
from .common import CASE_CHOICES, load_case

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.tools.estimate",
        description="Run WLS state estimation on a test case.",
    )
    p.add_argument("--case", default="case14", help=f"test case ({CASE_CHOICES})")
    p.add_argument("--noise", type=float, default=1.0,
                   help="noise level relative to nominal meter accuracy")
    p.add_argument("--seed", type=int, default=0, help="measurement RNG seed")
    p.add_argument("--robust", action="store_true",
                   help="use the Huber M-estimator instead of plain WLS")
    p.add_argument("--constrained", action="store_true",
                   help="enforce zero-injection equality constraints")
    p.add_argument("--bad-rows", type=int, default=0,
                   help="inject N gross errors and run identification")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    net = load_case(args.case)
    pf = run_ac_power_flow(net, flat_start=True)
    rng = np.random.default_rng(args.seed)
    mset = generate_measurements(
        net, full_placement(net), pf, noise_level=args.noise, rng=rng
    )
    print(f"{net.name}: {net.n_bus} buses, {len(mset)} measurements, "
          f"noise level {args.noise}")

    if args.bad_rows:
        rows = rng.choice(len(mset), size=args.bad_rows, replace=False)
        mset = inject_bad_data(mset, rows, rng=rng)
        print(f"injected gross errors at rows {sorted(rows.tolist())}")

    if args.robust:
        result = huber_estimate(net, mset)
        kind = "Huber"
    elif args.constrained:
        result = constrained_estimate(net, mset)
        kind = "constrained WLS"
    else:
        result = estimate_state(net, mset)
        kind = "WLS"

    err = result.state_error(pf.Vm, pf.Va)
    print(f"{kind}: converged={result.converged} iterations={result.iterations}")
    print(f"objective J = {result.objective:.2f} (dof {result.dof}); "
          f"chi-square passes: {chi_square_test(result)}")
    print(f"Vm RMSE {err['vm_rmse']:.3e} p.u.; "
          f"Va RMSE {np.rad2deg(err['va_rmse']):.4f} deg")

    if args.bad_rows and not args.robust:
        report = identify_bad_data(net, mset)
        print(f"bad-data identification removed rows "
              f"{sorted(report.removed_rows)}; passes: "
              f"{report.passes_chi_square}")
    return 0 if result.converged else 1


if __name__ == "__main__":
    sys.exit(main())
