"""Condensation benchmarks: Schur-reduced Step-2 exchange and solve.

``measure_condensation`` runs the reference and the boundary-condensed
DSE over the same warm estimators on three systems — IEEE-14, IEEE-118
and the WECC-scale synthetic interconnection of
:mod:`bench_ext_wecc_scale` (37 balancing authorities) — and records per
case:

- final-state parity between the two paths (gate: ≤ 1e-8 everywhere);
- exchanged wire bytes, reference vs condensed (gate: ≥ 5× reduction at
  WECC scale — the tie-endpoint boundary blocks against full
  exchange-set broadcasts);
- warm Step-2 time and Step-2 iteration totals of both paths, over the
  same fresh values-only frames, the two paths taking turns (gate: the
  condensed path is the faster one at WECC scale — one exact round, then
  rounds that assemble and factor no gain, against a full
  re-factorisation every iteration of every round).  On IEEE-14 and
  IEEE-118 the subsystems are too small for the frozen rounds' cheaper
  iterations to buy back their linear convergence; the ratio there is
  reported, not gated.

Run directly for a human-readable report; the exit status is non-zero
when a gate fails::

    PYTHONPATH=src python benchmarks/bench_condensation.py
"""

from __future__ import annotations

import sys
import time

import numpy as np
from scipy.linalg.lapack import dpotrs

from repro.dse import (
    DistributedStateEstimator,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, case118, synthetic_grid
from repro.measurements import full_placement, generate_measurements

__all__ = ["gate_failures", "measure_condensation"]

#: benchmark systems: name -> (network builder, decomposition builder)
CASES = {
    "ieee14": (case14, lambda net: decompose(net, 3, seed=0)),
    "ieee118": (case118, lambda net: decompose(net, 4, seed=0)),
    "wecc37": (
        lambda: synthetic_grid(n_areas=37, buses_per_area=40, seed=11),
        decompose_by_areas,
    ),
}


def _step2(res) -> tuple[float, int]:
    """Summed Step-2 time and Gauss-Newton iterations of one frame."""
    recs = res.records.values()
    return (
        sum(sum(rec.step2_times) for rec in recs),
        sum(e.iterations for rec in recs for e in rec.step2_results),
    )


def _warm_blas(calls: int = 100) -> None:
    """Spend OpenBLAS's slow start before anything is timed: in this
    sandbox the first ~60 *threaded* calls of a process — the
    multi-right-hand-side triangular solves of a Schur factorisation are
    such calls — take 16 ms each instead of 20 µs, which would charge the
    small cases' condensed frames ~12 ms per subsystem."""
    chol, rhs = np.eye(80), np.ones((80, 32))
    for _ in range(calls):
        dpotrs(chol, rhs, lower=1)


def measure_condensation(repeats: int = 5) -> dict:
    _warm_blas()
    out = {}
    for name, (build_net, build_dec) in CASES.items():
        net = build_net()
        dec = build_dec(net)
        pf = run_ac_power_flow(net, flat_start=True)
        rng = np.random.default_rng(7)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=rng)

        ref_dse = DistributedStateEstimator(dec, ms)
        con_dse = DistributedStateEstimator(dec, ms, condense=True)
        ref_dse.run()  # warm the caches before timing
        t0 = time.perf_counter()
        con_dse.run()  # first condensed frame builds the Step-2 union
        cold_frame = time.perf_counter() - t0
        # fresh telemetry every frame (a repeated frame would skip the
        # condensed path's one factorisation per subsystem), best of N
        best_ref = best_con = (float("inf"), 0)
        gap_vm = gap_va = 0.0
        for _ in range(repeats):
            z = ms.z + ms.sigma * rng.standard_normal(len(ms))
            r_ref, r_con = ref_dse.run(z=z), con_dse.run(z=z)
            best_ref, best_con = min(best_ref, _step2(r_ref)), min(best_con, _step2(r_con))
            gap_vm = max(gap_vm, float(np.abs(r_con.Vm - r_ref.Vm).max()))
            gap_va = max(gap_va, float(np.abs(r_con.Va - r_ref.Va).max()))

        recs = r_con.records.values()
        conds = [con_dse._step2_cache[s][0] for s in range(dec.m)]
        out[name] = {
            "n_bus": net.n_bus,
            "n_subsystems": dec.m,
            "rounds": r_con.rounds,
            "max_abs_dVm": gap_vm,
            "max_abs_dVa": gap_va,
            "bytes_reference": r_ref.total_bytes_exchanged,
            "bytes_condensed": r_con.total_bytes_exchanged,
            "bytes_reduction": (
                r_ref.total_bytes_exchanged / r_con.total_bytes_exchanged
            ),
            "step2_reference_s": best_ref[0],
            "step2_condensed_s": best_con[0],
            "step2_speedup": best_ref[0] / best_con[0],
            "step2_iterations_reference": best_ref[1],
            "step2_iterations_condensed": best_con[1],
            "cold_condensed_frame_s": cold_frame,
            "factor_time_s": sum(c.factor_time for c in conds) / (repeats + 1),
            "boundary_states": sum(rec.n_boundary_states for rec in recs),
            "interior_states": sum(rec.n_interior_states for rec in recs),
            "fallbacks": sum(c.fallbacks for c in conds),
        }
    return out


def gate_failures(res: dict) -> list[str]:
    """The documented gates that ``res`` does not meet."""
    failed = []
    for name, rec in res.items():
        gap = max(rec["max_abs_dVm"], rec["max_abs_dVa"])
        if gap > 1e-8:
            failed.append(f"{name}: condensed vs reference state gap {gap:.2e} > 1e-8")
    wecc = res["wecc37"]
    if wecc["bytes_reduction"] < 5.0:
        failed.append(
            f"wecc37: wire bytes only {wecc['bytes_reduction']:.2f}x smaller (< 5x)"
        )
    if wecc["step2_speedup"] <= 1.0:
        failed.append(
            "wecc37: condensed Step 2 is not faster than the reference "
            f"({wecc['step2_condensed_s'] * 1e3:.1f} ms vs "
            f"{wecc['step2_reference_s'] * 1e3:.1f} ms)"
        )
    return failed


def main() -> int:
    res = measure_condensation()
    print("boundary condensation (reference vs condensed Step 2)")
    for name, rec in res.items():
        print(
            f"  {name:8s} ({rec['n_bus']:5d} buses, {rec['n_subsystems']:2d} "
            f"subsystems, {rec['rounds']} rounds)"
        )
        print(
            f"    parity     : dVm {rec['max_abs_dVm']:.2e}  "
            f"dVa {rec['max_abs_dVa']:.2e}"
        )
        print(
            f"    wire bytes : {rec['bytes_reference']:8d} -> "
            f"{rec['bytes_condensed']:8d}  ({rec['bytes_reduction']:.2f}x "
            "smaller)"
        )
        print(
            f"    step2 time : {rec['step2_reference_s'] * 1e3:8.1f} ms -> "
            f"{rec['step2_condensed_s'] * 1e3:8.1f} ms  "
            f"({rec['step2_speedup']:.2f}x)"
        )
        print(
            f"    step2 iters: {rec['step2_iterations_reference']:8d}    -> "
            f"{rec['step2_iterations_condensed']:8d}"
        )
        print(
            f"    condensed  : {rec['boundary_states']} boundary / "
            f"{rec['interior_states']} interior states, factorization "
            f"{rec['factor_time_s'] * 1e3:.1f} ms a frame, "
            f"{rec['fallbacks']} fallbacks"
        )
    failed = gate_failures(res)
    for line in failed:
        print(f"GATE FAILED  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
