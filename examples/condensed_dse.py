"""Boundary-condensed DSE Step 2: the same estimate on a compact wire.

Run with::

    python examples/condensed_dse.py

With ``condense=True`` each subsystem sends each neighbour only the
tie-endpoint buses that neighbour's Step-2 solve reads, as compact
boundary blocks (bus ids in the round-0 frame only), instead of its whole
exchange set to every neighbour.  The solves do not change.  The example
runs the reference and the condensed path on IEEE-118, prints each
subsystem's bytes per round under both wire forms, checks that the
states are the same bits, and round-trips the condensed wire frames
through the live middleware runtime.
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
    con = DistributedStateEstimator(dec, mset, condense=True).run()

    print(f"{net.name}: {dec.m} subsystems, {con.rounds} Step-2 rounds")
    print("\nbytes sent per round (reference -> condensed), per subsystem:")
    for s, rec in con.records.items():
        print(f"  subsystem {s}: {ref.records[s].bytes_sent_per_round} -> "
              f"{rec.bytes_sent_per_round}")

    same = bool(np.array_equal(con.Vm, ref.Vm) and np.array_equal(con.Va, ref.Va))
    print(f"\nstates equal to the reference Step 2, bit for bit: {same}")

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
