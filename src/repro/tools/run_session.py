"""CLI: multi-frame DSE session on the architecture prototype.

Example::

    python -m repro.tools.run_session --case case118 --subsystems 9 --frames 3
    python -m repro.tools.run_session --case synthetic:12x20 --live --tcp
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from ..core import ArchitecturePrototype, DseSession
from ..dse import dse_pmu_placement
from ..grid.powerflow import run_ac_power_flow
from ..measurements import ScadaSystem, full_placement
from .common import CASE_CHOICES, load_case

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.tools.run_session",
        description="Process SCADA frames through the distributed "
                    "state-estimation architecture.",
    )
    p.add_argument("--case", default="case118", help=f"test case ({CASE_CHOICES})")
    p.add_argument("--subsystems", type=int, default=9)
    p.add_argument("--frames", type=int, default=3, help="SCADA frames to run")
    p.add_argument("--scan-period", type=float, default=4.0)
    p.add_argument("--tcp", action="store_true",
                   help="with --live: a real localhost TCP hub instead of "
                        "the in-process one")
    p.add_argument("--live", action="store_true",
                   help="run each frame on the live multi-threaded runtime "
                        "(concurrent estimator sites over middleware)")
    p.add_argument("--csv", help="write the per-frame table to this CSV file")
    p.add_argument("--obs", metavar="PATH",
                   help="record traces/metrics and dump the session as "
                        "JSONL to PATH (render with repro.tools.obsreport)")
    p.add_argument("--seed", type=int, default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    net = load_case(args.case)
    if args.obs:
        from .. import obs

        obs.configure(enabled=True, reset=True)
    run_ac_power_flow(net, flat_start=True)  # fail fast on unsolvable cases

    arch = ArchitecturePrototype.assemble(
        net, m_subsystems=args.subsystems, seed=args.seed
    )
    with contextlib.ExitStack() as stack:
        placement = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        scada = ScadaSystem(net, placement, scan_period=args.scan_period,
                            seed=args.seed)
        session = DseSession(arch)
        live = None
        if args.live:
            from ..core import LiveDseRuntime

            # one resident deployment for the whole session: every scan is
            # a values-only frame over it
            live = stack.enter_context(
                LiveDseRuntime(arch.dec, placement, use_tcp=args.tcp)
            )

        print(f"{net.name}: {arch.dec.m} subsystems on "
              f"{arch.topology.n_clusters} clusters; "
              f"{args.frames} frames at {args.scan_period}s\n")
        print(f"{'t(s)':>6} | {'x':>6} | {'Ni':>5} | {'imb1':>5} | {'imb2':>5} "
              f"| {'migr':>4} | {'sim total (ms)':>14} | {'Vm RMSE':>9}")
        for frame in scada.frames(args.frames):
            rep = session.process_frame(
                frame.mset, t=frame.t, truth=(frame.pf.Vm, frame.pf.Va)
            )
            print(f"{rep.t:6.1f} | {rep.noise_level:6.3f} | "
                  f"{rep.expected_iterations:5.1f} | {rep.imbalance_step1:5.3f} "
                  f"| {rep.imbalance_step2:5.3f} | {rep.migrated_weight:4d} | "
                  f"{rep.timings.total * 1e3:14.2f} | "
                  f"{rep.vm_rmse_vs_truth:.3e}")
            if live is not None:
                res = live.run(z=frame.mset.z)
                err = res.state_error(frame.pf.Vm, frame.pf.Va)
                print(f"       live runtime: wall "
                      f"{res.wall_time * 1e3:.1f} ms, Vm RMSE "
                      f"{err['vm_rmse']:.3e}, errors: {len(res.errors)}")
        if args.csv:
            from ..reporting import write_frames_csv

            write_frames_csv(session.reports, args.csv)
            print(f"\nwrote {args.csv}")
        if args.obs:
            from .. import obs

            n = obs.export_jsonl(
                args.obs,
                tracer=obs.tracer(),
                registry=obs.metrics(),
                frames=session.reports,
                meta={"case": args.case, "frames": args.frames},
            )
            obs.configure(enabled=False, reset=True)
            print(f"\nwrote {args.obs} ({n} records) — render with "
                  f"python -m repro.tools.obsreport {args.obs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
