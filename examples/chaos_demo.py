"""Seeded chaos demo: deterministic fault injection over the live stack.

Run with::

    python examples/chaos_demo.py

Exercises the PR-5 fault-tolerance layer end to end in a few seconds:

- a transient dial failure on a pooled ``MWClient`` healed transparently
  by the typed-error retry policy (one retry, zero payload loss);
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
    EndpointRegistry,
    InprocTransport,
    MWClient,
    RetryPolicy,
)


def smoke_retry_heals_transient_dial_fault() -> None:
    """A dial refused once by the injector succeeds on the retry."""
    transport = InprocTransport()
    registry = EndpointRegistry()
    sender = MWClient(
        "snd", registry, inproc=transport,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
    )
    receiver = MWClient("rcv", registry, inproc=transport)
    receiver.serve("inproc://chaos-demo-rcv")
    try:
        plan = FaultPlan(seed=0).add("client.dial", "fail", count=1)
        with faults.injection(plan) as inj:
            sender.send("rcv", b"survives the refused dial")
        assert receiver.recv(timeout=2.0) == b"survives the refused dial"
        assert sender.retries == 1, "expected exactly one retry"
        assert inj.total_fired("client.dial") == 1
        print(f"retry policy    : 1 dial refused, healed after "
              f"{sender.retries} retry, payload intact")
    finally:
        sender.close()
        receiver.close()


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
            dec, ms, fast=True, recv_timeout=0.3, round_deadline=2.0
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
    smoke_retry_heals_transient_dial_fault()
    smoke_degraded_live_run()
    print("chaos demo: OK")


if __name__ == "__main__":
    main()
