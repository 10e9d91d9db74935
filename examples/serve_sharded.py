"""Sharded scenario serving: a router over N service replicas.

Run with::

    python examples/serve_sharded.py            # IEEE-118, 2 shards
    python examples/serve_sharded.py --tiny     # IEEE-14 smoke (CI)

One :class:`~repro.serving.service.ScenarioService` is one process's
serving capacity.  ``ShardRouter`` is the horizontal layer above it:
traffic spreads over N replicas by consistent hashing on a
``(grid, region)`` key — repeated what-if scenarios for one region keep
hitting the replica whose warm caches already hold them — while plain
values-only frames round-robin across the ring.  Losing a replica moves
only ~1/N of the keyspace; its queued requests re-hash to the survivors
instead of being dropped.
"""

import argparse

import numpy as np

from repro.dse import decompose, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, case118
from repro.grid.delta import NetworkDelta
from repro.measurements import full_placement, generate_measurements
from repro.serving import ScenarioService, ShardRouter


def main(tiny: bool = False) -> None:
    net = case14() if tiny else case118()
    m = 2 if tiny else 9
    n_frames = 8 if tiny else 24
    pf = run_ac_power_flow(net)
    dec = decompose(net, m, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    mset = generate_measurements(net, plac, pf, rng=rng)

    def replica():
        return ScenarioService(
            dec, mset, executor="serial", max_batch=8, flush_latency=2e-3,
        )

    # per-region what-if scenarios: hashed by label, so each region's
    # traffic has a stable home replica
    regions = [
        NetworkDelta.load_override([b], Pd=[0.05], label=f"region-{b}")
        for b in range(4)
    ]

    with ShardRouter(
        {"s0": replica(), "s1": replica()}, grid=net.name
    ) as router:
        futures = [router.submit_estimation() for _ in range(n_frames)]
        futures += [
            router.submit_estimation(delta=d) for d in regions for _ in (0, 1)
        ]
        homes = {}
        for fut in futures:
            res = fut.result(timeout=120)
            if res.request.delta is not None:
                homes.setdefault(res.request.delta.label, set()).add(res.shard)
        print(f"{net.name}: routed {router.stats.to_dict()['routed']} "
              f"over {len(router.live_shards())} shards")
        sticky = all(len(s) == 1 for s in homes.values())
        print(f"scenario affinity: {len(homes)} regions, "
              f"one home shard each: {sticky}")

        # graceful drain: s0 leaves the ring, its queued work completes,
        # traffic continues on the survivor
        mid_flight = [router.submit_estimation() for _ in range(4)]
        router.remove_shard("s0", drain=True)
        for fut in mid_flight:
            fut.result(timeout=120)
        after = router.submit_estimation().result(timeout=120)
        print(f"after drain: {len(router.live_shards())} live shard(s), "
              f"new traffic served by {after.shard!r}, "
              f"rehashed={router.stats.rehashed}, shed={router.stats.shed}")

    snap = router.stats_snapshot()["router"]
    assert snap["completed"] == len(futures) + len(mid_flight) + 1
    assert snap["shed"] == 0
    print(f"completed {snap['completed']} requests, nothing lost")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tiny", action="store_true", help="IEEE-14 smoke run")
    main(**vars(ap.parse_args()))
