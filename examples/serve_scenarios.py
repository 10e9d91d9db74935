"""Batched scenario serving: estimation frames + N-1 cases, one engine.

Run with::

    python examples/serve_scenarios.py            # IEEE-118
    python examples/serve_scenarios.py --tiny     # IEEE-14 smoke (CI)

The control-room load the paper motivates is not one estimate: it is a
stream of estimation frames interleaved with contingency screenings, all
against the same monitored system.  ``ScenarioService`` serves that stream:
requests are coalesced into batches (bounded by ``max_batch`` and a flush
latency); a batch's contingency cases are one batched DC solve and its
estimation frames one batched WLS solve; results stream back in
completion order with per-request latency and the batch each rode in.
"""

import argparse

import numpy as np

from repro.contingency import enumerate_n1
from repro.dse import decompose, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, case118
from repro.measurements import full_placement, generate_measurements
from repro.serving import ContingencyRequest, ScenarioService


def main(tiny: bool = False) -> None:
    net = case14() if tiny else case118()
    m = 2 if tiny else 9
    max_batch = 4 if tiny else 16
    pf = run_ac_power_flow(net)
    dec = decompose(net, m, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, plac, pf, rng=rng)
    safe, _ = enumerate_n1(net)
    print(f"{net.name}: {dec.m} subsystems, {len(safe)} N-1 cases, "
          f"serving with max_batch={max_batch}")

    with ScenarioService(
        dec, mset, executor="serial", max_batch=max_batch,
        flush_latency=2e-3,
    ) as svc:
        # a burst of contingency screenings...
        futures = svc.submit_contingencies(safe)
        # ...interleaved with fresh estimation frames (values-only z)
        for k in range(3):
            z = mset.z + 0.002 * mset.sigma * rng.standard_normal(len(mset))
            futures.append(svc.submit_estimation(z=z))

        insecure = 0
        for fut in futures:
            res = fut.result()
            if isinstance(res.request, ContingencyRequest):
                insecure += not res.value.secure
        print(f"served {svc.stats.n_requests} scenarios in "
              f"{svc.stats.n_batches} batches "
              f"(mean batch {svc.stats.mean_batch_size:.1f})")
        print(f"latency p50 {svc.stats.latency_percentile(50) * 1e3:.1f} ms, "
              f"p99 {svc.stats.latency_percentile(99) * 1e3:.1f} ms")
        print(f"insecure contingencies: {insecure}/{len(safe)}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--tiny", action="store_true",
                    help="IEEE-14 with a tiny batch (smoke run)")
    main(tiny=ap.parse_args().tiny)
