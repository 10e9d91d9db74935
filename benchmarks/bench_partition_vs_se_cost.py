"""E9 — section V-A claim: "partitioning is typically much faster than
running state estimation computations".

The mapping method re-runs the partitioner every time frame, which is only
viable if its cost is negligible next to the estimation it schedules.  We
time both on the IEEE 118 setup: the full (re)mapping (weight estimation +
k-way partition + Step-2 repartition) against the whole-system WLS.

A ``ClusterMapper`` memoizes both partitions on their integer weights, so a
session's steady frame usually partitions nothing.  The cycle is reported
three ways: cold (a fresh mapper per cycle — the partitioner's cost, the
one the claim is about), steady (a warm mapper — a memo hit), and the
share of a session's frames that hit, counted over 120 IEEE-118/9 frames
at nominal meter noise.
"""

import time

import numpy as np

import repro.core.mapper as mapper_mod
from repro.cluster import pnnl_testbed
from repro.core import ArchitecturePrototype, ClusterMapper, DseSession
from repro.dse import exchange_bus_sets
from repro.estimation import estimate_state

FRAMES = 120


def _mean_seconds(fn, reps: int = 5) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _session_hit_share(net118, mset118, monkeypatch) -> tuple[float, float]:
    """Share of a session's frames whose Step-1 / Step-2 partition came
    from the memo: one minus the partitioner calls per frame."""
    calls = {"partition_kway": 0, "repartition": 0}
    for name in calls:
        real = getattr(mapper_mod, name)

        def counted(*a, _real=real, _name=name, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(mapper_mod, name, counted)
    arch = ArchitecturePrototype.assemble(net118, m_subsystems=9, seed=0)
    session = DseSession(arch)
    rng = np.random.default_rng(1)
    for _ in range(FRAMES):
        z = mset118.z + mset118.sigma * rng.standard_normal(len(mset118))
        session.process_frame(mset118.with_values(z))
    return (1 - calls["partition_kway"] / FRAMES,
            1 - calls["repartition"] / FRAMES)


def test_partition_much_faster_than_se(
    benchmark, dec118, mset118, net118, monkeypatch
):
    topo = pnnl_testbed()
    sets = exchange_bus_sets(dec118)

    def mapping_cycle(mapper):
        m1 = mapper.map_step1(dec118, 1.0)
        m2, _ = mapper.remap_step2(dec118, 1.0, m1, sets)
        return m1, m2

    def cold_cycle():
        return mapping_cycle(ClusterMapper(topo, seed=0))

    benchmark(cold_cycle)

    # time each side once more for the reported ratio
    t_cold = _mean_seconds(cold_cycle)
    warm = ClusterMapper(topo, seed=0)
    mapping_cycle(warm)
    t_warm = _mean_seconds(lambda: mapping_cycle(warm), reps=50)

    t0 = time.perf_counter()
    estimate_state(net118, mset118)
    t_se = time.perf_counter() - t0

    hit1, hit2 = _session_hit_share(net118, mset118, monkeypatch)

    print(f"\nmapping cycle: cold {t_cold * 1e3:.2f} ms, "
          f"steady (memo hit) {t_warm * 1e3:.3f} ms; "
          f"whole-system WLS: {t_se * 1e3:.2f} ms; "
          f"ratio SE/cold mapping = {t_se / t_cold:.1f}x")
    print(f"session memo hits over {FRAMES} frames: Step 1 {hit1:.0%}, "
          f"Step 2 {hit2:.0%}")
    # the paper's claim: partitioning ≪ estimation
    assert t_cold < t_se
    assert t_warm < t_cold
