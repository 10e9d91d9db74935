"""Condensation benchmark: the boundary-only Step-2 exchange.

``measure_condensation`` runs the reference and the boundary-condensed
DSE over the same warm estimators on three systems — IEEE-14, IEEE-118
and the WECC-scale synthetic interconnection of
:mod:`bench_ext_wecc_scale` (37 balancing authorities) — and records per
case:

- whether the condensed states are the reference's, bit for bit, on
  every frame (gate: equal everywhere — ``condense=`` picks the wire
  form, not the solve);
- exchanged wire bytes, reference vs condensed (gate: ≥ 5× reduction at
  WECC scale — the tie-endpoint boundary blocks against full
  exchange-set broadcasts);
- the best warm Step-2 time and the Step-2 iteration total of both
  modes, over the same fresh values-only frames, the two taking turns
  (reported, not gated: both run the one exact Step-2 loop, so the
  iterations are equal and the times differ by host noise alone).

Run directly for a human-readable report; the exit status is non-zero
when a gate fails::

    PYTHONPATH=src python benchmarks/bench_condensation.py
"""

from __future__ import annotations

import sys

import numpy as np

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


def _same(a, b) -> bool:
    """The two frames' states are the same bits."""
    return bool(np.array_equal(a.Vm, b.Vm) and np.array_equal(a.Va, b.Va))


def measure_condensation(repeats: int = 5) -> dict:
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
        r_ref, r_con = ref_dse.run(), con_dse.run()     # warm the caches
        equal = _same(r_con, r_ref)
        # fresh telemetry every frame: the best time, the iteration total
        best_ref = best_con = float("inf")
        iters_ref = iters_con = 0
        for _ in range(repeats):
            z = ms.z + ms.sigma * rng.standard_normal(len(ms))
            r_ref, r_con = ref_dse.run(z=z), con_dse.run(z=z)
            equal &= _same(r_con, r_ref)
            (t_ref, n_ref), (t_con, n_con) = _step2(r_ref), _step2(r_con)
            best_ref, best_con = min(best_ref, t_ref), min(best_con, t_con)
            iters_ref, iters_con = iters_ref + n_ref, iters_con + n_con

        out[name] = {
            "n_bus": net.n_bus,
            "n_subsystems": dec.m,
            "rounds": r_con.rounds,
            "states_equal": equal,
            "bytes_reference": r_ref.total_bytes_exchanged,
            "bytes_condensed": r_con.total_bytes_exchanged,
            "bytes_reduction": (
                r_ref.total_bytes_exchanged / r_con.total_bytes_exchanged
            ),
            "step2_reference_s": best_ref,
            "step2_condensed_s": best_con,
            "step2_iterations_reference": iters_ref,
            "step2_iterations_condensed": iters_con,
        }
    return out


def gate_failures(res: dict) -> list[str]:
    """The documented gates that ``res`` does not meet."""
    failed = [
        f"{name}: condensed states differ from the reference's"
        for name, rec in res.items()
        if not rec["states_equal"]
    ]
    wecc = res["wecc37"]
    if wecc["bytes_reduction"] < 5.0:
        failed.append(
            f"wecc37: wire bytes only {wecc['bytes_reduction']:.2f}x smaller (< 5x)"
        )
    return failed


def main() -> int:
    res = measure_condensation()
    print("boundary condensation (reference vs condensed wire form)")
    for name, rec in res.items():
        print(
            f"  {name:8s} ({rec['n_bus']:5d} buses, {rec['n_subsystems']:2d} "
            f"subsystems, {rec['rounds']} rounds)"
        )
        print(f"    states     : {'equal' if rec['states_equal'] else 'DIFFERENT'}")
        print(
            f"    wire bytes : {rec['bytes_reference']:8d} -> "
            f"{rec['bytes_condensed']:8d}  ({rec['bytes_reduction']:.2f}x "
            "smaller)"
        )
        print(
            f"    step2 time : {rec['step2_reference_s'] * 1e3:8.1f} ms -> "
            f"{rec['step2_condensed_s'] * 1e3:8.1f} ms  (the same solve)"
        )
        print(
            f"    step2 iters: {rec['step2_iterations_reference']:8d}    -> "
            f"{rec['step2_iterations_condensed']:8d}"
        )
    failed = gate_failures(res)
    for line in failed:
        print(f"GATE FAILED  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
