"""The sharded serving tier: hash ring, router, loadgen.

Contracts under test:

- the consistent-hash ring balances keys and moves only the removed
  node's arcs on membership changes;
- the router serves the same answers as a direct ``ScenarioService``,
  keeps scenario-key affinity, spills overload in ring order, and turns
  every replica failure into *re-hash or typed error* — never silence;
- the load generator's arrival schedule and request mix are functions
  of the seed alone.
"""

import threading
import time

import numpy as np
import pytest

from repro.contingency import enumerate_n1
from repro.dse import decompose, dse_pmu_placement
from repro.grid.delta import NetworkDelta
from repro.measurements import full_placement, generate_measurements
from repro.middleware import ConsistentHashRing, EmptyRing, MiddlewareFabric
from repro.middleware.errors import DeadlineExceeded
from repro.serving import (
    ContingencyRequest,
    EstimationRequest,
    LoadGenerator,
    ReplicaLost,
    ScenarioMix,
    ScenarioService,
    ServiceOverloaded,
    ServiceStats,
    ShardRouter,
    poisson_arrivals,
    request_key,
)


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------

class TestConsistentHashRing:
    def test_balance_and_determinism(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        split = ring.load_split(range(8000))
        assert set(split) == {"a", "b", "c", "d"}
        mean = 8000 / 4
        for count in split.values():
            assert 0.5 * mean < count < 1.6 * mean
        # same nodes, any insertion order: identical placement
        ring2 = ConsistentHashRing(["d", "b", "a", "c"])
        assert all(ring.route(k) == ring2.route(k) for k in range(500))

    def test_removal_moves_only_the_lost_arcs(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        before = {k: ring.route(k) for k in range(2000)}
        ring.remove("b")
        after = {k: ring.route(k) for k in range(2000)}
        moved = [k for k in before if before[k] != after[k]]
        # exactly the keys that lived on "b" moved, nothing else
        assert moved == [k for k in before if before[k] == "b"]
        assert all(after[k] in ("a", "c") for k in moved)

    def test_preference_is_the_handoff_order(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        pref = ring.preference("key-7")
        assert len(pref) == 3 and pref[0] == ring.route("key-7")
        ring.remove(pref[0])
        assert ring.route("key-7") == pref[1]
        ring.remove(pref[1])
        assert ring.route("key-7") == pref[2]

    def test_empty_ring_and_membership(self):
        ring = ConsistentHashRing(vnodes=8)
        with pytest.raises(EmptyRing):
            ring.route("x")
        with pytest.raises(EmptyRing):
            ring.preference("x")
        ring.add("a")
        ring.add("a")  # idempotent
        assert len(ring) == 1 and "a" in ring
        ring.remove("missing")  # idempotent
        assert ring.route("x") == "a"

    def test_rejects_bad_vnodes(self):
        with pytest.raises(ValueError, match="vnodes"):
            ConsistentHashRing(vnodes=0)


# ---------------------------------------------------------------------------
# Routing keys
# ---------------------------------------------------------------------------

class TestRequestKey:
    def test_scenario_keys_by_label_and_region(self):
        labelled = EstimationRequest(
            delta=NetworkDelta.branch_outage(3, label="out-3")
        )
        assert request_key(labelled, grid="g") == ("g", "scenario", "out-3")
        bare = EstimationRequest(delta=NetworkDelta.branch_outage(3))
        again = EstimationRequest(delta=NetworkDelta.branch_outage(3))
        assert request_key(bare) == request_key(again)
        other = EstimationRequest(delta=NetworkDelta.branch_outage(4))
        assert request_key(bare) != request_key(other)

    def test_contingency_and_frame_keys(self, net14):
        safe, _ = enumerate_n1(net14)
        con = ContingencyRequest(safe[0])
        assert request_key(con, grid="g") == ("g", "n-1", safe[0].branch)
        assert request_key(EstimationRequest()) is None


# ---------------------------------------------------------------------------
# Router behaviour over real replicas (IEEE-14, tiny batches)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serving14(net14, pf14):
    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(3)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    return dec, ms


def _replica(dec, ms, **kw):
    kw.setdefault("executor", "serial")
    kw.setdefault("max_batch", 8)
    kw.setdefault("flush_latency", 1e-3)
    kw.setdefault("batch_solve", True)
    return ScenarioService(dec, ms, **kw)


class TestShardRouter:
    def test_routed_results_match_direct_service(self, serving14):
        dec, ms = serving14
        with ScenarioService(dec, ms, batch_solve=True) as direct:
            ref = direct.submit_estimation().result(timeout=60).value
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            got = router.submit_estimation().result(timeout=60)
        assert got.shard in ("s0", "s1")
        assert np.allclose(got.value.Vm, ref.Vm, atol=1e-9)
        assert np.allclose(got.value.Va, ref.Va, atol=1e-9)

    def test_scenario_affinity_and_spread(self, serving14):
        dec, ms = serving14
        deltas = [
            NetworkDelta.load_override([b], Pd=[0.08], label=f"region-{b}")
            for b in range(6)
        ]
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            homes = {}
            for d in deltas:
                first = router.submit_estimation(delta=d).result(60).shard
                second = router.submit_estimation(delta=d).result(60).shard
                assert first == second  # affinity: same region, same shard
                homes[d.label] = first
            # keyless frames spread over both shards
            shards = {
                router.submit_estimation().result(60).shard
                for _ in range(12)
            }
            assert shards == {"s0", "s1"}
        assert router.stats.completed == 2 * len(deltas) + 12

    def test_overload_spills_then_fails_typed(self, serving14):
        dec, ms = serving14
        slow = _replica(dec, ms, max_queue=1, max_batch=1, flush_latency=0.0)
        with ShardRouter({"only": slow}, grid="g") as router:
            # wedge the single replica's dispatcher so its queue stays full
            slow._ensure_dispatcher()
            release = threading.Event()
            blocked = threading.Event()

            def _block(batch, _orig=slow._execute_batch):
                blocked.set()
                release.wait(timeout=10.0)
                _orig(batch)

            slow._execute_batch = _block
            first = router.submit_estimation()
            assert blocked.wait(timeout=5.0)
            queued = router.submit_estimation()  # backlog now at max_queue
            shed = router.submit_estimation()
            with pytest.raises(ServiceOverloaded):
                shed.result(timeout=10.0)
            release.set()
            first.result(timeout=60)
            queued.result(timeout=60)
        assert router.stats.shed == 1
        # per-cause counter rode along on the replica
        assert slow.stats.shed_causes == {"queue_full": 1}

    def test_graceful_drain_completes_queued_work(self, serving14):
        dec, ms = serving14
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            futures = [router.submit_estimation() for _ in range(6)]
            router.remove_shard("s0", drain=True)  # drains, never drops
            assert all(f.result(timeout=60) for f in futures)
            assert router.live_shards() == ["s1"]
            # traffic keeps flowing on the survivor
            assert router.submit_estimation().result(60).shard == "s1"

    def test_kill_shard_rehashes_not_loses(self, serving14):
        dec, ms = serving14
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            futures = [router.submit_estimation() for _ in range(10)]
            router.kill_shard("s0")
            results = [f.result(timeout=60) for f in futures]
            assert all(r.value is not None for r in results)
            more = router.submit_estimation().result(timeout=60)
            assert more.shard == "s1"

    def test_restore_shard_readmits_killed_replica(self, serving14):
        dec, ms = serving14
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            router.kill_shard("s0")
            assert router.live_shards() == ["s1"]
            # restart: same name, fresh service — takes back its slice
            router.restore_shard("s0", _replica(dec, ms))
            assert router.live_shards() == ["s0", "s1"]
            got = router.submit_estimation().result(timeout=60)
            assert got.shard in ("s0", "s1")
            assert router.stats.restored == 1
            assert router.stats.to_dict()["restored"] == 1

    def test_all_shards_lost_fails_typed(self, serving14):
        dec, ms = serving14
        with ShardRouter({"s0": _replica(dec, ms)}, grid="g") as router:
            warm = router.submit_estimation()
            warm.result(timeout=60)
            router.kill_shard("s0")
            with pytest.raises((ReplicaLost, ServiceOverloaded)):
                router.submit_estimation().result(timeout=10.0)

    def test_membership_and_validation(self, serving14):
        dec, ms = serving14
        router = ShardRouter({"s0": _replica(dec, ms)}, grid="g")
        with router:
            joiner = _replica(dec, ms)
            with pytest.raises(ValueError, match="already present"):
                router.add_shard("s0", joiner)
            router.add_shard("s1", joiner)
            assert router.shard_names == ["s0", "s1"]
            with pytest.raises(TypeError, match="EstimationRequest"):
                router.submit("nonsense")
        with pytest.raises(RuntimeError, match="closed"):
            router.submit_estimation()
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter({})

    def test_deadline_is_final_not_retried(self, serving14):
        dec, ms = serving14
        slow = _replica(dec, ms, request_timeout=0.05, max_batch=1,
                        flush_latency=0.0)
        with ShardRouter(
            {"slow": slow, "other": _replica(dec, ms)}, grid="g"
        ) as router:
            # pick a key the ring places on the wedged replica
            probe = EstimationRequest()
            key = next(
                ("force", i) for i in range(256)
                if router.shard_for(probe, key=("force", i)) == "slow"
            )
            slow._ensure_dispatcher()
            blocked = threading.Event()
            release = threading.Event()

            def _block(batch, _orig=slow._execute_batch):
                blocked.set()
                release.wait(timeout=10.0)
                _orig(batch)

            slow._execute_batch = _block
            fut = router.submit(EstimationRequest(), key=key)
            assert blocked.wait(timeout=5.0)
            time.sleep(0.2)  # well past the 0.05s deadline
            release.set()
            with pytest.raises(DeadlineExceeded):
                fut.result(timeout=10.0)
            # stale requests are never re-dispatched to a healthy shard
            assert router.stats.rehashed == 0
            assert slow.stats.shed_causes.get("deadline") == 1


# ---------------------------------------------------------------------------
# A burst handed to run() ends in a flush, not in the flush window
# ---------------------------------------------------------------------------

class TestBurstFlush:
    """``run()`` flushes every replica it fed after the last submit: a
    burst that fits one batch is one batch, drained without waiting out a
    flush window of a minute."""

    def test_service_run_is_one_batch(self, serving14):
        dec, ms = serving14
        t0 = time.perf_counter()
        with _replica(dec, ms, max_batch=32, flush_latency=60.0) as svc:
            out = svc.run([EstimationRequest() for _ in range(10)])
        assert time.perf_counter() - t0 < 30.0
        assert svc.stats.n_batches == 1
        assert [r.batch_size for r in out] == [10] * 10

    def test_router_run_is_one_batch_per_replica_fed(self, serving14):
        dec, ms = serving14
        replicas = {
            name: _replica(dec, ms, max_batch=32, flush_latency=60.0)
            for name in ("s0", "s1")
        }
        t0 = time.perf_counter()
        with ShardRouter(replicas, grid="g") as router:
            out = router.run([EstimationRequest() for _ in range(10)])
        assert time.perf_counter() - t0 < 30.0
        fed = {r.shard for r in out}
        assert fed == {"s0", "s1"}          # keyless frames spread
        for name, svc in replicas.items():
            assert svc.stats.n_batches == 1
            assert svc.stats.n_requests == router.stats.routed[name]
        assert sum(router.stats.routed.values()) == 10

    def test_a_flush_with_nothing_queued_is_skipped(self, serving14):
        dec, ms = serving14
        with _replica(dec, ms, max_batch=32, flush_latency=60.0) as svc:
            assert svc.run([]) == []
            out = svc.run([EstimationRequest() for _ in range(3)])
        assert svc.stats.n_batches == 1 and len(out) == 3


# ---------------------------------------------------------------------------
# ServiceStats: streaming quantiles + shed causes
# ---------------------------------------------------------------------------

class TestServiceStatsStreaming:
    def test_streaming_quantiles_track_exact_percentiles(self):
        stats = ServiceStats()
        rng = np.random.default_rng(0)
        samples = rng.uniform(1e-3, 0.5, size=4000)
        for s in samples:
            stats.record_request(float(s))
        exact50 = float(np.percentile(samples, 50))
        exact99 = float(np.percentile(samples, 99))
        # geometric factor-2 buckets: estimates land within the bucket
        assert 0.5 * exact50 <= stats.p50 <= 2.0 * exact50
        assert 0.5 * exact99 <= stats.p99 <= 2.0 * exact99
        assert stats.p50 <= stats.p99

    def test_to_dict_carries_shed_causes(self):
        stats = ServiceStats()
        stats.record_request(0.01)
        stats.record_batch(1)
        stats.record_shed("queue_full")
        stats.record_shed("queue_full")
        stats.record_shed("deadline")
        d = stats.to_dict()
        assert d["n_requests"] == 1 and d["n_shed"] == 3
        assert d["shed_causes"] == {"queue_full": 2, "deadline": 1}
        assert d["latency_p50_s"] > 0.0

    def test_service_records_per_cause_metrics(self, serving14):
        from repro import obs

        dec, ms = serving14
        obs.configure(enabled=True, reset=True)
        try:
            with ScenarioService(dec, ms, max_batch=1, max_queue=1) as svc:
                svc._ensure_dispatcher()
                release = threading.Event()
                blocked = threading.Event()

                def _block(batch, _orig=svc._execute_batch):
                    blocked.set()
                    release.wait(timeout=10.0)
                    _orig(batch)

                svc._execute_batch = _block
                first = svc.submit_estimation()
                assert blocked.wait(timeout=5.0)
                svc.submit_estimation()
                shed = svc.submit_estimation()
                with pytest.raises(ServiceOverloaded):
                    shed.result(timeout=5.0)
                release.set()
                first.result(timeout=60)
            counter = obs.metrics().get("serving.shed", cause="queue_full")
            assert counter is not None and counter.value == 1
        finally:
            obs.configure(enabled=False, reset=True)


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

class TestLoadgen:
    def test_arrivals_are_seed_deterministic(self):
        a = poisson_arrivals(100.0, 50, seed=9)
        b = poisson_arrivals(100.0, 50, seed=9)
        c = poisson_arrivals(100.0, 50, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) > 0)
        assert 50 / a[-1] == pytest.approx(100.0, rel=0.5)
        with pytest.raises(ValueError, match="rate"):
            poisson_arrivals(0.0, 5)

    def test_mix_draws_are_deterministic_and_weighted(self, serving14, net14):
        _dec, ms = serving14
        safe, _ = enumerate_n1(net14)
        deltas = (NetworkDelta.branch_outage(0, label="d0"),)
        mix = ScenarioMix(
            ms, deltas=deltas, contingencies=tuple(safe[:3]),
            frame_weight=1.0, scenario_weight=1.0, contingency_weight=1.0,
        )
        draws1 = [mix.make(np.random.default_rng(4)) for _ in range(8)]
        draws2 = [mix.make(np.random.default_rng(4)) for _ in range(8)]
        assert [type(r) for r in draws1] == [type(r) for r in draws2]
        kinds = {type(r).__name__ for r in
                 (mix.make(np.random.default_rng(s)) for s in range(40))}
        assert kinds == {"EstimationRequest", "ContingencyRequest"}
        with pytest.raises(ValueError, match="drawable"):
            ScenarioMix(ms, frame_weight=0.0).make(np.random.default_rng(0))

    def test_report_over_router_counts_everything(self, serving14, net14):
        dec, ms = serving14
        safe, _ = enumerate_n1(net14)
        mix = ScenarioMix(
            ms, contingencies=tuple(safe[:4]),
            frame_weight=1.0, contingency_weight=1.0,
        )
        with ShardRouter(
            {"s0": _replica(dec, ms), "s1": _replica(dec, ms)}, grid="g"
        ) as router:
            rep = LoadGenerator(router, mix, seed=5).run(
                rate=80.0, n_requests=24, wait_timeout=60.0
            )
        assert rep.n_offered == 24
        assert rep.n_completed + rep.n_shed_queue_full == 24
        assert rep.n_hung == 0 and rep.n_failed == 0
        assert rep.duration_s > 0 and rep.achieved_rate > 0
        d = rep.to_dict()
        assert d["latency_p99_s"] >= d["latency_p50_s"] > 0.0

    def test_run_sizing_validation(self, serving14):
        dec, ms = serving14
        gen = LoadGenerator(object(), ScenarioMix(ms))
        with pytest.raises(ValueError, match="XOR"):
            gen.run(rate=10.0)
        with pytest.raises(ValueError, match="XOR"):
            gen.run(rate=10.0, n_requests=5, duration=1.0)


# ---------------------------------------------------------------------------
# Shard-addressed routing over the mux fabric
# ---------------------------------------------------------------------------

class TestFabricSharding:
    def test_send_keyed_routes_by_ring(self):
        names = ["se0", "se1", "se2"]
        with MiddlewareFabric(names) as fabric:
            ring = fabric.enable_sharding(["se1", "se2"])
            assert ring.nodes == frozenset({"se1", "se2"})
            dst = fabric.send_keyed("se0", ("grid", 7), b"frame")
            assert dst == fabric.shard_for(("grid", 7))
            assert fabric.recv(dst, timeout=5.0) == b"frame"
            # a sender never routes to itself
            assert fabric.shard_for(("k",), exclude="se1") == "se2"

    def test_send_keyed_requires_enable(self):
        with MiddlewareFabric(["a", "b"]) as fabric:
            with pytest.raises(RuntimeError, match="enable_sharding"):
                fabric.send_keyed("a", "k", b"x")

    def test_enable_sharding_rejects_unknown_site(self):
        fabric = MiddlewareFabric(["a", "b"])
        with pytest.raises(ValueError, match="not a fabric site"):
            fabric.enable_sharding(["a", "zz"])
