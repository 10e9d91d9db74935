"""Seeded chaos demo: deterministic fault injection over the live stack.

Run with::

    python examples/chaos_demo.py

Exercises the PR-5 fault-tolerance layer end to end in a few seconds:

- one frame dropped and one cut in half at the mux hub hop: each surfaces
  at the receiver as a typed error (decode failure, receive timeout), the
  fabric stays up and the next frame arrives intact;
- a seeded ``FaultPlan`` that starves one estimator site of every
  neighbour update during a live distributed run — the run completes,
  the affected site is flagged degraded, and nothing hangs;
- exact replay: a fresh run under the same plan fires the identical
  faults (``FaultInjector.fired_summary`` is compared key by key).

The script exits non-zero on any deviation, so ``scripts/verify.sh``
uses it as the chaos smoke test.
"""

import time

import numpy as np

from repro import faults
from repro.core import LiveDseRuntime
from repro.dse import decompose, dse_pmu_placement
from repro.faults import FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements
from repro.middleware import (
    FrameError,
    MiddlewareFabric,
    RecvTimeout,
    pack_state_update,
    unpack_state_update,
)


def smoke_hop_faults_fail_typed() -> None:
    """A dropped and a truncated frame are typed errors, never bad data."""
    ids = np.arange(6, dtype=np.int64)
    vm, va = np.linspace(0.98, 1.02, 6), np.linspace(-0.1, 0.1, 6)
    update = pack_state_update(ids, vm, va)
    # per (src, dst) pair the hub sees frames in order: 1st dropped,
    # 2nd halved, 3rd untouched
    plan = (
        FaultPlan(seed=0)
        .add("mux.forward", "drop", key=(0, 1), count=1)
        .add("mux.forward", "corrupt", key=(0, 1), count=1)
    )
    with MiddlewareFabric(["snd", "rcv"], pairs=[("snd", "rcv")]) as fab, \
            faults.injection(plan) as inj:
        for _ in range(3):
            fab.send("snd", "rcv", update)
        try:
            unpack_state_update(fab.recv("rcv", timeout=2.0))
        except FrameError:
            pass
        else:
            raise AssertionError("a halved state update must not decode")
        got = unpack_state_update(fab.recv("rcv", timeout=2.0))
        assert all(np.array_equal(g, w) for g, w in zip(got, (ids, vm, va)))
        try:
            fab.recv("rcv", timeout=0.1)
        except RecvTimeout:
            pass
        else:
            raise AssertionError("the dropped frame must not arrive")
        assert inj.total_fired("mux.forward") == 2
        relayed, _ = fab.relay_stats()[("snd", "rcv")]
        assert relayed == 2, "a dropped frame is not a relayed frame"
        print(f"hop faults      : 1 frame dropped (typed timeout), 1 halved "
              f"(typed decode error), {relayed} relayed, next frame intact")


def smoke_degraded_live_run() -> None:
    """Starve site 0 of every neighbour update; the run degrades, never
    hangs, and replays exactly under the same seed."""
    net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
    pf = run_ac_power_flow(net, flat_start=True)
    dec = decompose(net, 3, seed=0)
    rng = np.random.default_rng(5)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)

    plan = FaultPlan(seed=11).add("mux.forward", "drop", key=(None, 0))

    def one_run():
        with LiveDseRuntime(
            dec, ms, recv_timeout=0.3, round_deadline=2.0
        ) as live, faults.injection(plan) as inj:
            res = live.run(rounds=1)
        return res, inj.fired_summary()

    t0 = time.perf_counter()
    res, fired = one_run()
    dt = time.perf_counter() - t0
    assert res.degraded_subsystems == [0], "site 0 should run degraded"
    assert all(dst == 0 for (_l, (_s, dst), _a) in fired)
    err = res.state_error(pf.Vm, pf.Va)
    print(f"degraded run    : site 0 starved, {sum(fired.values())} frames "
          f"dropped, completed in {dt * 1e3:.0f} ms "
          f"(vm_rmse {err['vm_rmse']:.2e})")

    _, fired2 = one_run()
    assert fired2 == fired, "same seed must fire the same faults"
    print(f"replay          : identical fired summary across runs "
          f"({len(fired)} keys)")


def main() -> None:
    smoke_hop_faults_fail_typed()
    smoke_degraded_live_run()
    print("chaos demo: OK")


if __name__ == "__main__":
    main()
