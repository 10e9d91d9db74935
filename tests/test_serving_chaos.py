"""Chaos tests for the sharded serving tier.

The contract under load + injected faults: every **accepted** request
either completes or fails with a typed error (``ServiceOverloaded`` /
``DeadlineExceeded`` / ``ReplicaLost``) — no hangs, no silent loss — and
a seeded :class:`~repro.faults.plan.FaultPlan` replays bit-for-bit
(``FaultInjector.fired_summary`` is the witness).

The replicas here run AC analyzers on ``ProcessPoolBackend`` executors, so
contingency traffic fans out through the pool (a DC sweep is one batched
solve and never reaches it), where the ``("worker", "kill")`` fault layer
lives: the plan kills a
live worker mid-load, the crashed replica surfaces ``WorkerCrash``, and
the router re-hashes the stranded requests onto the survivors.
"""

import numpy as np
import pytest

from repro import faults
from repro.contingency import ContingencyAnalyzer, enumerate_n1
from repro.dse import decompose, dse_pmu_placement
from repro.faults import FaultPlan
from repro.measurements import full_placement, generate_measurements
from repro.parallel import ProcessPoolBackend
from repro.serving import (
    LoadGenerator,
    ScenarioMix,
    ScenarioService,
    ShardRouter,
)


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def chaos14(net14, pf14):
    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(11)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    safe, _ = enumerate_n1(net14)
    return dec, ms, tuple(safe[:6])


def _proc_replica(dec, ms, *, retries=0):
    # an AC analyzer: contingencies fan out through the process pool,
    # exposing them to the "worker" fault layer
    return ScenarioService(
        dec, ms,
        executor=ProcessPoolBackend(1, max_task_retries=retries),
        analyzer=ContingencyAnalyzer(dec.net, method="ac"),
        max_batch=4, flush_latency=1e-3,
    )


def _kill_plan(seed):
    """Kill the worker running the first pool task, exactly once."""
    return FaultPlan(seed=seed).add("worker", "kill", key=0, count=1)


def _offer_under_kill(dec, ms, cons, *, seed, n_shards, n_requests):
    mix = ScenarioMix(
        ms, contingencies=cons, frame_weight=0.0, contingency_weight=1.0
    )
    shards = {
        f"s{i}": _proc_replica(dec, ms) for i in range(n_shards)
    }
    with ShardRouter(shards, grid="chaos") as router:
        report = LoadGenerator(router, mix, seed=seed).run(
            rate=40.0, n_requests=n_requests,
            fault_plan=_kill_plan(seed), wait_timeout=120.0,
        )
    return router, report


def _fully_accounted(report):
    outcomes = (
        report.n_completed + report.n_shed_queue_full
        + report.n_shed_deadline + report.n_shed_lost + report.n_failed
    )
    return outcomes == report.n_offered and report.n_hung == 0


class TestReplicaKillMidLoad:
    def test_kill_rehashes_to_survivor_nothing_lost(self, chaos14):
        dec, ms, cons = chaos14
        router, report = _offer_under_kill(
            dec, ms, cons, seed=21, n_shards=2, n_requests=14
        )
        # the plan fired exactly one worker kill...
        assert sum(report.faults_fired.values()) == 1
        (fired_key,) = report.faults_fired
        assert "kill" in fired_key
        # ...which cost one replica; its requests re-hashed and completed
        assert router.stats.replicas_lost == 1
        assert router.stats.rehashed >= 1
        assert report.n_completed == report.n_offered
        assert report.n_hung == 0 and report.n_failed == 0

    def test_no_survivor_fails_typed_never_hangs(self, chaos14):
        dec, ms, cons = chaos14
        router, report = _offer_under_kill(
            dec, ms, cons, seed=22, n_shards=1, n_requests=10
        )
        assert router.stats.replicas_lost == 1
        # the crashed batch had nowhere to go: typed ReplicaLost, and
        # later arrivals were refused typed — nothing hung, nothing vanished
        assert report.n_shed_lost >= 1
        assert _fully_accounted(report)
        assert report.n_failed == 0

    def test_fault_plan_replays_bit_for_bit(self, chaos14):
        dec, ms, cons = chaos14
        _, first = _offer_under_kill(
            dec, ms, cons, seed=33, n_shards=2, n_requests=10
        )
        _, second = _offer_under_kill(
            dec, ms, cons, seed=33, n_shards=2, n_requests=10
        )
        assert first.faults_fired  # the plan really fired
        assert first.faults_fired == second.faults_fired
        assert _fully_accounted(first) and _fully_accounted(second)
        assert first.n_completed == second.n_completed


class TestSingleServiceDegradedReuse:
    def test_pool_respawn_absorbs_the_kill(self, chaos14):
        """Without a router, the PR-5 supervised pool is the last line:
        the killed worker respawns warm and the stranded task re-runs."""
        dec, ms, cons = chaos14
        mix = ScenarioMix(
            ms, contingencies=cons, frame_weight=0.0, contingency_weight=1.0
        )
        with _proc_replica(dec, ms, retries=2) as svc:
            report = LoadGenerator(svc, mix, seed=44).run(
                rate=30.0, n_requests=6,
                fault_plan=_kill_plan(44), wait_timeout=120.0,
            )
            assert svc.executor.respawns >= 1
        assert sum(report.faults_fired.values()) == 1
        assert report.n_completed == report.n_offered
        assert report.n_hung == 0
