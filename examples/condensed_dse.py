"""Boundary-condensed DSE Step 2: reduced exchange, frozen-gain solve.

Run with::

    python examples/condensed_dse.py

Each subsystem factors its extended gain matrix once per frame, at the
solution of the exact first round, and holds the Cholesky factor, so
every later Step-2 round iterates against it without assembling or
factoring a gain, and every round puts only compact per-neighbour
boundary blocks on the wire.  The example runs the
reference and the condensed path on IEEE-118, checks final-state parity,
and round-trips the condensed wire frames through the live middleware
runtime.
"""

import numpy as np

from repro.core import LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements


def main() -> None:
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 4, seed=0)
    rng = np.random.default_rng(7)
    placement = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, placement, pf, rng=rng)

    ref = DistributedStateEstimator(dec, mset).run()
    con_dse = DistributedStateEstimator(dec, mset, condense=True)
    con = con_dse.run()

    print(f"{net.name}: {dec.m} subsystems, {con.rounds} Step-2 rounds")
    print("\ncoupling sets and frozen-gain factors (per subsystem):")
    for s, rec in con.records.items():
        # the frozen gain is a lookup in the Step-2 estimator's held factors
        held = con_dse._step2_cache[s][0].est.factors
        print(f"  subsystem {s}: {rec.n_boundary_states:3d} boundary / "
              f"{rec.n_interior_states:3d} interior states "
              f"({held.count} factor taken, {rec.factor_time * 1e3:.2f} ms)")

    dvm = float(np.max(np.abs(con.Vm - ref.Vm)))
    dva = float(np.max(np.abs(con.Va - ref.Va)))
    print(f"\nfinal-state parity vs reference Step 2: "
          f"dVm {dvm:.2e}  dVa {dva:.2e}")

    b_ref = ref.total_bytes_exchanged
    b_con = con.total_bytes_exchanged
    print(f"exchange volume: {b_ref} -> {b_con} bytes "
          f"({b_ref / b_con:.2f}x smaller)")

    # The same condensed frames over the live middleware fabric: sites
    # learn about neighbours only from the packed boundary blocks.
    with LiveDseRuntime(dec, mset, condense=True) as runtime:
        live = runtime.run()
    sent = sum(st.bytes_sent for st in live.sites.values())
    match = bool(
        np.array_equal(live.Vm, con.Vm) and np.array_equal(live.Va, con.Va)
    )
    print(f"\nlive runtime (condensed wire frames): {sent} bytes sent, "
          f"bit-identical to in-process: {match}")

    err = con.state_error(pf.Vm, pf.Va)
    print(f"accuracy vs truth: Vm RMSE {err['vm_rmse']:.2e}  "
          f"Va RMSE {err['va_rmse']:.2e}")


if __name__ == "__main__":
    main()
