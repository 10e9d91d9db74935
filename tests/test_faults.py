"""Unit tests for repro.faults and the resilience primitives it exercises.

Covers the plan/injector determinism contract, the retry policy, the
shutdown-aware data buffer, the typed error hierarchy, the mux-hop fault
hook, serving load shedding, and the simulated-cluster link failures.
"""

import threading
import time

import pytest

from repro import faults
from repro.cluster import ClusterSpec, ClusterTopology, LinkSpec, SimComm, SimEngine
from repro.cluster.simmpi import SimLinkDown
from repro.faults import Decision, FaultInjector, FaultPlan, FaultRule, NO_FAULT
from repro.middleware.client import DataBuffer, MWClient
from repro.middleware.errors import (
    ClientClosed,
    ConnectFailed,
    DeadlineExceeded,
    MiddlewareError,
    RecvTimeout,
    RetryPolicy,
    SendFailed,
)
from repro.middleware.fastpath import _forward_fault


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    """Every test starts and ends with no process-wide injector."""
    faults.uninstall()
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# plans and rules
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_add_builds_immutable_plans(self):
        p0 = FaultPlan(seed=3)
        p1 = p0.add("mux.forward", "drop", key=(1, 2), probability=0.5)
        assert len(p0) == 0 and len(p1) == 1
        assert p1.rules[0].match == {"key": (1, 2)}
        assert p1.layers == frozenset({"mux.forward"})

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown fault layer"):
            FaultRule(layer="nope", action="drop")

    def test_action_layer_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not valid for layer"):
            FaultRule(layer="mux.forward", action="kill")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"delay": -1.0},
            {"after": -1},
            {"count": 0},
        ],
    )
    def test_bad_windows_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule(layer="mux.forward", action="drop", **kwargs)

    def test_wildcard_tuple_match(self):
        rule = FaultRule(
            layer="mux.forward", action="drop", match={"key": (1, None)}
        )
        assert rule.matches((1, 2)) and rule.matches((1, 9))
        assert not rule.matches((2, 2))
        assert not rule.matches((1, 2, 3))  # arity mismatch

    def test_empty_match_matches_everything(self):
        rule = FaultRule(layer="mux.forward", action="drop")
        assert rule.matches("tcp://a:1") and rule.matches(("x", "y"))

    def test_random_plan_is_seed_determined(self):
        a = FaultPlan.random(1234, n_rules=5)
        b = FaultPlan.random(1234, n_rules=5)
        assert a == b
        assert a != FaultPlan.random(1235, n_rules=5)
        assert all(r.layer == "mux.forward" for r in a.rules)


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------
def _drive(inj, keys, events_per_key):
    """Replay a fixed synthetic workload against an injector."""
    out = []
    for key in keys:
        for _ in range(events_per_key):
            out.append(inj.decide("mux.forward", key).action)
    return out


class TestInjectorDeterminism:
    PLAN = (
        FaultPlan(seed=42)
        .add("mux.forward", "drop", probability=0.3)
        .add("mux.forward", "delay", probability=0.2, delay=0.0)
    )
    KEYS = [(s, d) for s in range(3) for d in range(3) if s != d]

    def test_same_seed_same_decisions(self):
        a = _drive(FaultInjector(self.PLAN), self.KEYS, 20)
        b = _drive(FaultInjector(self.PLAN), self.KEYS, 20)
        assert a == b
        assert any(x == "drop" for x in a)  # the plan actually fires

    def test_reset_replays_exactly(self):
        inj = FaultInjector(self.PLAN)
        _drive(inj, self.KEYS, 20)
        first = inj.fired_summary()
        inj.reset()
        assert inj.fired_summary() == {}
        _drive(inj, self.KEYS, 20)
        assert inj.fired_summary() == first

    def test_interleaving_across_keys_is_irrelevant(self):
        """Decisions depend only on each key's own event sequence."""
        seq = _drive(FaultInjector(self.PLAN), self.KEYS, 10)
        by_key = {
            k: [seq[i * 10 + j] for j in range(10)]
            for i, k in enumerate(self.KEYS)
        }
        # replay with reversed key order: per-key streams are unchanged
        inj = FaultInjector(self.PLAN)
        rev = _drive(inj, list(reversed(self.KEYS)), 10)
        by_key_rev = {
            k: [rev[i * 10 + j] for j in range(10)]
            for i, k in enumerate(reversed(self.KEYS))
        }
        assert by_key == by_key_rev

    def test_count_limits_fires_per_key(self):
        plan = FaultPlan(seed=0).add("worker", "kill", key=2, count=1)
        inj = FaultInjector(plan)
        decisions = [inj.decide("worker", i) for i in range(5)]
        assert decisions[2].action == "kill"
        assert all(not d for i, d in enumerate(decisions) if i != 2)
        # the same key again: the count budget is spent
        assert not inj.decide("worker", 2)

    def test_after_skips_leading_events(self):
        plan = FaultPlan(seed=0).add("mux.forward", "drop", after=2)
        inj = FaultInjector(plan)
        got = [bool(inj.decide("mux.forward", "u")) for _ in range(4)]
        assert got == [False, False, True, True]

    def test_no_rules_for_layer_is_no_fault(self):
        inj = FaultInjector(FaultPlan(seed=0).add("worker", "kill"))
        assert inj.decide("mux.forward", "u") is NO_FAULT

    def test_total_fired_filters_by_layer(self):
        plan = FaultPlan(seed=0).add("worker", "kill").add("mux.forward", "drop")
        inj = FaultInjector(plan)
        inj.decide("worker", 0)
        inj.decide("mux.forward", (0, 1))
        assert inj.total_fired() == 2
        assert inj.total_fired("worker") == 1

    def test_injection_context_installs_and_restores(self):
        assert faults.active() is None
        with faults.injection(FaultPlan(seed=1)) as inj:
            assert faults.active() is inj
            with faults.injection(FaultPlan(seed=2)) as inner:
                assert faults.active() is inner
            assert faults.active() is inj
        assert faults.active() is None

    def test_decision_truthiness(self):
        assert not NO_FAULT
        assert Decision(action="drop")


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_exponential_and_capped(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.04, jitter=0.0)
        assert p.backoff(1) == pytest.approx(0.01)
        assert p.backoff(2) == pytest.approx(0.02)
        assert p.backoff(3) == pytest.approx(0.04)
        assert p.backoff(4) == pytest.approx(0.04)  # capped

    def test_jitter_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=0.01, jitter=0.5, seed=7)
        q = RetryPolicy(base_delay=0.01, jitter=0.5, seed=7)
        for k in range(1, 4):
            raw = min(p.max_delay, p.base_delay * 2 ** (k - 1))
            assert p.backoff(k) == q.backoff(k)
            assert raw * 0.5 <= p.backoff(k) <= raw

    def test_sleep_raises_past_deadline(self):
        p = RetryPolicy(base_delay=0.05, jitter=0.0)
        with pytest.raises(DeadlineExceeded):
            p.sleep(1, deadline=time.monotonic() + 0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


# ---------------------------------------------------------------------------
# typed error hierarchy
# ---------------------------------------------------------------------------
class TestErrorHierarchy:
    def test_legacy_compatibility(self):
        # every typed error still satisfies the pre-hierarchy except clauses
        assert issubclass(MiddlewareError, RuntimeError)
        assert issubclass(ConnectFailed, ConnectionRefusedError)
        assert issubclass(RecvTimeout, TimeoutError)
        assert issubclass(DeadlineExceeded, TimeoutError)
        for cls in (ConnectFailed, SendFailed, RecvTimeout, ClientClosed,
                    DeadlineExceeded):
            assert issubclass(cls, MiddlewareError)

    def test_recv_timeout_is_not_client_closed(self):
        assert not issubclass(RecvTimeout, ClientClosed)
        assert not issubclass(ClientClosed, TimeoutError)


# ---------------------------------------------------------------------------
# data buffer shutdown semantics
# ---------------------------------------------------------------------------
class TestDataBufferClose:
    def test_empty_get_times_out_typed(self):
        buf = DataBuffer()
        with pytest.raises(RecvTimeout):
            buf.get(timeout=0.01)

    def test_close_wakes_blocked_reader(self):
        buf = DataBuffer()
        caught = []

        def reader():
            try:
                buf.get(timeout=30.0)
            except ClientClosed as exc:
                caught.append(exc)

        th = threading.Thread(target=reader, daemon=True)
        th.start()
        time.sleep(0.05)
        t0 = time.monotonic()
        buf.close()
        th.join(timeout=5.0)
        assert not th.is_alive()
        assert time.monotonic() - t0 < 5.0  # woke well before the 30s timeout
        assert len(caught) == 1

    def test_close_latches_for_multiple_readers(self):
        buf = DataBuffer()
        buf.close()
        for _ in range(3):
            with pytest.raises(ClientClosed):
                buf.get(timeout=0.5)
        assert buf.closed

    def test_pending_payloads_drain_before_close_raises(self):
        buf = DataBuffer()
        buf.put(b"a")
        buf.put(b"b")
        buf.close()
        assert buf.get(timeout=1.0) == b"a"
        assert buf.get(timeout=1.0) == b"b"
        with pytest.raises(ClientClosed):
            buf.get(timeout=1.0)

    def test_client_close_wakes_recv(self):
        client = MWClient("x")
        done = []

        def blocked():
            with pytest.raises(ClientClosed):
                client.recv(timeout=30.0)
            done.append(True)

        th = threading.Thread(target=blocked, daemon=True)
        th.start()
        time.sleep(0.05)
        client.close()
        th.join(timeout=5.0)
        assert done == [True]


# ---------------------------------------------------------------------------
# mux-hop fault hook
# ---------------------------------------------------------------------------
class TestFaultedPayloads:
    def test_no_injector_passthrough(self):
        assert _forward_fault(1, 2, b"abc") == ((b"abc",), False)

    def test_actions(self):
        plan = (
            FaultPlan(seed=0)
            .add("mux.forward", "drop", key=(1, 2))
            .add("mux.forward", "duplicate", key=(1, 3))
            .add("mux.forward", "corrupt", key=(1, 4))
            .add("mux.forward", "disconnect", key=(1, 5))
        )
        with faults.injection(plan):
            assert _forward_fault(1, 2, b"abcdef") == ((), False)
            assert _forward_fault(1, 3, b"ab") == ((b"ab", b"ab"), False)
            assert _forward_fault(1, 4, b"abcdef") == ((b"abc",), False)
            # the destination's connection dies; nothing is forwarded
            assert _forward_fault(1, 5, b"abcdef") == ((), True)
            # unmatched pairs proceed untouched
            assert _forward_fault(2, 1, b"xy") == ((b"xy",), False)


# ---------------------------------------------------------------------------
# simulated cluster links
# ---------------------------------------------------------------------------
def _two_rank_comm():
    eng = SimEngine()
    topo = ClusterTopology(
        clusters=[ClusterSpec(name="a"), ClusterSpec(name="b")],
        default_link=LinkSpec(latency=1e-4, bandwidth=1e8),
    )
    return eng, SimComm(eng, topo, ["a", "b"])


class TestSimLinkFaults:
    def _run_send(self, comm, eng):
        errors = []

        def sender():
            try:
                yield from comm.send(1, "m", nbytes=100.0, src=0)
            except SimLinkDown as exc:
                errors.append(exc)

        eng.process(sender())
        eng.run()
        return errors

    def test_failed_link_raises(self):
        eng, comm = _two_rank_comm()
        comm.fail_link("a", "b")
        assert len(self._run_send(comm, eng)) == 1

    def test_restore_link_recovers(self):
        eng, comm = _two_rank_comm()
        comm.fail_link("a", "b")
        comm.restore_link("b", "a")  # symmetric
        assert self._run_send(comm, eng) == []
        assert comm.stats_messages == 1

    def test_loopback_cannot_fail(self):
        _, comm = _two_rank_comm()
        with pytest.raises(ValueError):
            comm.fail_link("a", "a")

    def test_unknown_cluster_rejected(self):
        _, comm = _two_rank_comm()
        with pytest.raises(KeyError):
            comm.fail_link("a", "zz")

    def test_injected_link_fail(self):
        eng, comm = _two_rank_comm()
        plan = FaultPlan(seed=0).add("simmpi.link", "fail", key=("a", "b"))
        with faults.injection(plan):
            assert len(self._run_send(comm, eng)) == 1

    def test_injected_drop_counts_messages(self):
        eng, comm = _two_rank_comm()
        plan = FaultPlan(seed=0).add("simmpi.link", "drop")
        with faults.injection(plan):
            assert self._run_send(comm, eng) == []
        assert comm.dropped_messages == 1
        assert comm.stats_messages == 0


# ---------------------------------------------------------------------------
# serving load shedding
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dse14_faults(net14, pf14):
    import numpy as np

    from repro.dse import decompose, dse_pmu_placement
    from repro.measurements import full_placement, generate_measurements

    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(3)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    return dec, ms


class TestServingShedding:
    def test_validation(self, dse14_faults):
        from repro.serving import ScenarioService

        dec, ms = dse14_faults
        with pytest.raises(ValueError, match="request_timeout"):
            ScenarioService(dec, ms, request_timeout=0.0)
        with pytest.raises(ValueError, match="max_queue"):
            ScenarioService(dec, ms, max_queue=0)

    def test_deadline_sheds_stale_requests(self, dse14_faults):
        from repro.serving import ScenarioService

        dec, ms = dse14_faults
        with ScenarioService(
            dec, ms, max_batch=4, flush_latency=0.0, request_timeout=0.25
        ) as svc:
            # hold the dispatcher inside its first batch while the request
            # in it goes stale; later batches pass straight through
            svc._ensure_dispatcher()
            blocked = threading.Event()
            release = threading.Event()

            def _block(batch, _orig=svc._execute_batch):
                blocked.set()
                release.wait(timeout=10.0)
                _orig(batch)

            svc._execute_batch = _block
            stale = svc.submit_estimation()
            assert blocked.wait(timeout=5.0)
            time.sleep(0.4)  # well past the 0.25s deadline
            release.set()
            with pytest.raises(DeadlineExceeded):
                stale.result(timeout=60)
            # the dispatcher is live again: a fresh request is served
            fresh = svc.submit_estimation()
            fresh.result(timeout=60)
            assert svc.stats.n_shed == 1
            assert svc.stats.n_requests == 1

    def test_max_queue_sheds_at_admission(self, dse14_faults):
        from repro.serving import ScenarioService
        from repro.serving.requests import ServiceOverloaded

        dec, ms = dse14_faults
        with ScenarioService(dec, ms, max_batch=1, max_queue=1) as svc:
            svc._ensure_dispatcher()
            blocked = threading.Event()
            release = threading.Event()

            def _block(batch, _orig=svc._execute_batch):
                blocked.set()
                release.wait(timeout=10.0)
                _orig(batch)

            svc._execute_batch = _block
            first = svc.submit_estimation()
            assert blocked.wait(timeout=5.0)
            queued = svc.submit_estimation()  # backlog now at max_queue
            shed = svc.submit_estimation()
            with pytest.raises(ServiceOverloaded):
                shed.result(timeout=5.0)
            release.set()
            first.result(timeout=60)
            queued.result(timeout=60)
            assert svc.stats.n_shed == 1
            assert svc.stats.n_requests == 2  # shed requests never count served
