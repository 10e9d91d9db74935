"""Self-healing demo: kill a site mid-run, watch failover re-host it.

Run with::

    python examples/recovery_demo.py

Exercises the recovery plane end to end in a few seconds:

- a live distributed run with recovery enabled replicates every
  subsystem's checkpoint to its hash-ring successor each round and
  beats round-based leases across the mux fabric;
- a seeded ``FaultPlan`` hard-disconnects one site's hub socket
  mid-frame; its lease expires after ``lease_rounds`` silent rounds,
  the cluster epoch advances, and the orphaned subsystem is promoted
  onto the successor holding its replica — the zombie's frames are
  fenced at the hub from then on;
- the recovered run converges back onto the state of an uninterrupted
  run, and the same seed replays the identical fault sequence.

The script exits non-zero on any deviation, so ``scripts/verify.sh``
uses it as the recovery smoke test.
"""

import time

import numpy as np

from repro import faults
from repro.cluster import RecoveryConfig
from repro.core import LiveDseRuntime
from repro.dse import decompose, dse_pmu_placement
from repro.faults import FaultInjector, FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements

KILL = FaultPlan(seed=2026).add(
    "mux.forward", "disconnect", key=(2, 1), count=1
)


def main() -> None:
    net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
    pf = run_ac_power_flow(net)
    dec = decompose(net, 3, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    rounds = max(1, dec.diameter()) + 18

    def run(plan=None):
        with LiveDseRuntime(
            dec, ms, recv_timeout=0.5, round_deadline=2.0,
            recovery=RecoveryConfig(lease_rounds=2),
        ) as live:
            if plan is None:
                return live.run(rounds=rounds), None
            inj = FaultInjector(plan)
            with faults.injection(inj):
                res = live.run(rounds=rounds)
            return res, inj.fired_summary()

    clean, _ = run()
    assert clean.lost_sites == [] and clean.recovered_subsystems == []
    print(f"clean run       : {dec.m} sites, {rounds} rounds, "
          f"no losses, no false lease expiries")

    t0 = time.perf_counter()
    res, fired = run(KILL)
    dt = time.perf_counter() - t0
    assert res.lost_sites == [1], f"expected site 1 lost, got {res.lost_sites}"
    assert res.recovered_subsystems == [1], "subsystem 1 should be re-hosted"
    host = next(s for s, st in res.sites.items() if st.promoted_subsystems)
    degraded_until = max(max(rs) for rs in res.degraded.values())
    print(f"site kill       : se1 disconnected at round 0, lease expired, "
          f"epoch bumped, subsystem 1 promoted onto se{host}")
    print(f"degradation     : bounded to rounds <= {degraded_until}, "
          f"then clean through round {rounds - 1} ({dt * 1e3:.0f} ms)")

    dvm = float(np.max(np.abs(res.Vm - clean.Vm)))
    dva = float(np.max(np.abs(res.Va - clean.Va)))
    assert dvm <= 1e-7 and dva <= 1e-7, (dvm, dva)
    print(f"re-convergence  : |dVm| {dvm:.1e}, |dVa| {dva:.1e} vs the "
          f"uninterrupted run")

    _, fired2 = run(KILL)
    assert fired2 == fired, "same seed must fire the same faults"
    print(f"replay          : identical fired summary across runs "
          f"({len(fired)} keys)")
    print("recovery demo: OK — recovered")


if __name__ == "__main__":
    main()
