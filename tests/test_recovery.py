"""Self-healing DSE: checkpoints, leases, epoch fencing, failover.

Contracts under test:

- :class:`SubsystemCheckpoint` round-trips its compact wire form
  bit-exactly (float64 both ways), and rejects corrupt payloads typed;
- :class:`MembershipView` leases are monotonic, round-based and expire
  deterministically; loss bumps the cluster epoch exactly once;
- :class:`RecoveryCoordinator` promotes a lost site's subsystems onto
  the first live hash-ring successor holding a replica, hands each
  promotion out exactly once, and fences zombie frames;
- the mux hub diverts ``FLAG_CHECKPOINT`` frames into sinks and
  drops epoch-fenced frames at the hub (both transports);
- a TCP re-dial under the same site id atomically retires the stale
  registration; an inproc re-attach revives a fault-disconnected id;
- the live runtime under a seeded site-kill degrades for a bounded
  number of rounds, recovers the lost subsystem on a successor site,
  converges back to the uninterrupted run's state, and replays the
  fault plan bit-for-bit — and with recovery off nothing changes.
"""

import threading
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.cluster.recovery import (
    CKPT_VERSION,
    HEARTBEAT_SUBSYSTEM,
    MembershipView,
    RecoveryConfig,
    RecoveryCoordinator,
    SubsystemCheckpoint,
    heartbeat_payload,
)
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.core.runtime import DEGRADED_ROUNDS_RETAINED, LiveSiteStats
from repro.core.telemetry import FrameReport
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.dse.condensation import CondensedStep2
from repro.estimation import WlsEstimator
from repro.faults import FaultInjector, FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, synthetic_grid
from repro.measurements import MeasType, full_placement, generate_measurements
from repro.middleware import ConsistentHashRing, MiddlewareFabric
from repro.middleware.fastpath import InprocMuxRouter, MuxRouter
from repro.middleware.message import FLAG_EPOCH, FrameError


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


def _ckpt(sub=3, site=1, epoch=2, rnd=5, n_own=4, n_ext=7, warm=True, lin=True):
    rng = np.random.default_rng(abs(sub) + abs(rnd))
    return SubsystemCheckpoint(
        subsystem=sub,
        site=site,
        epoch=epoch,
        round=rnd,
        own_ids=np.arange(10, 10 + n_own, dtype=np.int64),
        own_vm=rng.uniform(0.9, 1.1, n_own),
        own_va=rng.uniform(-0.5, 0.5, n_own),
        warm_vm=rng.uniform(0.9, 1.1, n_ext) if warm else None,
        warm_va=rng.uniform(-0.5, 0.5, n_ext) if warm else None,
        lin_vm=rng.uniform(0.9, 1.1, n_ext) if lin else None,
        lin_va=rng.uniform(-0.5, 0.5, n_ext) if lin else None,
    )


# ---------------------------------------------------------------------------
# Checkpoint wire form
# ---------------------------------------------------------------------------

class TestCheckpointCodec:
    @pytest.mark.parametrize("warm,lin", [(True, True), (True, False),
                                          (False, True), (False, False)])
    def test_roundtrip_bit_exact(self, warm, lin):
        ck = _ckpt(warm=warm, lin=lin)
        pay = ck.to_payload()
        assert len(pay) == ck.nbytes
        back = SubsystemCheckpoint.from_payload(pay)
        assert (back.subsystem, back.site, back.epoch, back.round) == (
            ck.subsystem, ck.site, ck.epoch, ck.round
        )
        assert back.own_ids.tolist() == ck.own_ids.tolist()
        # bit-exact float64: the restored lin_point must hit the donor's
        # factorisation cache, so approx equality is not good enough
        assert np.array_equal(back.own_vm, ck.own_vm)
        assert np.array_equal(back.own_va, ck.own_va)
        for a, b in ((back.warm_vm, ck.warm_vm), (back.warm_va, ck.warm_va),
                     (back.lin_vm, ck.lin_vm), (back.lin_va, ck.lin_va)):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a, b)

    def test_bootstrap_seed_round_survives(self):
        back = SubsystemCheckpoint.from_payload(_ckpt(rnd=-1).to_payload())
        assert back.round == -1

    def test_truncated_payload_rejected(self):
        pay = _ckpt().to_payload()
        with pytest.raises(FrameError, match="length mismatch"):
            SubsystemCheckpoint.from_payload(pay[:-8])
        with pytest.raises(FrameError, match="short checkpoint"):
            SubsystemCheckpoint.from_payload(pay[:4])

    def test_wrong_version_rejected(self):
        pay = bytearray(_ckpt().to_payload())
        pay[0] = CKPT_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            SubsystemCheckpoint.from_payload(bytes(pay))

    def test_heartbeat_is_header_only(self):
        pay = heartbeat_payload(4, 7, 12)
        hb = SubsystemCheckpoint.from_payload(pay)
        assert hb.subsystem == HEARTBEAT_SUBSYSTEM
        assert (hb.site, hb.epoch, hb.round) == (4, 7, 12)
        assert len(hb.own_ids) == 0 and hb.warm_vm is None


# ---------------------------------------------------------------------------
# Membership / leases
# ---------------------------------------------------------------------------

class TestMembershipView:
    def test_beat_is_monotonic(self):
        mv = MembershipView(["a", "b"])
        mv.beat("a", 5)
        mv.beat("a", 3)  # a stale replica must never rewind a lease
        assert mv.last_seen("a") == 5
        mv.beat("zz", 9)  # unknown sites are ignored
        assert mv.last_seen("zz") == -1

    def test_expiry_is_round_arithmetic(self):
        mv = MembershipView(["a", "b", "c"])
        mv.beat("a", 4)
        mv.beat("b", 2)
        assert mv.expired(5, 2) == ["b", "c"]
        assert mv.expired(5, 10) == []

    def test_loss_bumps_epoch_exactly_once(self):
        mv = MembershipView(["a", "b"])
        assert mv.epoch == 0
        assert mv.declare_lost("a") == 1
        assert mv.declare_lost("a") == 1  # idempotent
        assert mv.declare_lost("b") == 2
        assert mv.is_lost("a") and mv.live() == []

    def test_lost_site_never_reexpires(self):
        mv = MembershipView(["a", "b"])
        mv.declare_lost("a")
        assert mv.expired(100, 1) == ["b"]


# ---------------------------------------------------------------------------
# Coordinator: scan, promotion, fencing
# ---------------------------------------------------------------------------

def _coord(**cfg):
    sites = {"se0": 0, "se1": 1, "se2": 2}
    hosted = {"se0": [0], "se1": [1], "se2": [2]}
    return RecoveryCoordinator(
        sites, hosted, config=RecoveryConfig(**cfg) if cfg else None
    )


class TestRecoveryCoordinator:
    def test_promotion_from_replica(self):
        coord = _coord(lease_rounds=2)
        # everyone seeds (round -1) and beats through round 1 — except se1
        for s in range(3):
            succ = coord.successor(s)
            coord.ingest(succ, _ckpt(sub=s, site=s, rnd=-1).to_payload())
        for r in (0, 1, 2):
            for name, i in (("se0", 0), ("se2", 2)):
                coord.ingest("se0", heartbeat_payload(i, 0, r))
        promos = {}
        for name in ("se0", "se1", "se2"):
            promos[name] = coord.begin_round(name, 3)
        assert coord.lost_sites == ["se1"]
        assert coord.epoch == 1
        assert list(coord.recovered) == [1]
        promoted_to = [n for n, p in promos.items() if p]
        assert promoted_to == [coord.site_of(1)]
        (ck,) = promos[promoted_to[0]]
        assert ck.subsystem == 1 and ck.round == -1
        # the promotion is handed out exactly once
        assert coord.begin_round(promoted_to[0], 3) == []

    def test_unrecoverable_without_replica(self):
        coord = _coord(lease_rounds=1)
        for r in (0, 1):
            coord.ingest("se2", heartbeat_payload(0, 0, r))
            coord.ingest("se2", heartbeat_payload(2, 0, r))
        coord.begin_round("se0", 2)
        assert coord.lost_sites == ["se1"]
        assert coord.unrecoverable == [1]
        assert coord.recovered == {}
        # ownership does not move: the zombie keeps solving as before
        assert coord.site_of(1) == "se1"

    def test_scan_runs_once_per_round(self):
        coord = _coord(lease_rounds=1)
        coord.begin_round("se0", 5)
        epoch_after = coord.epoch
        coord.begin_round("se1", 5)
        coord.begin_round("se2", 5)
        assert coord.epoch == epoch_after  # no double-declare

    def test_fence_verdicts(self):
        coord = _coord(lease_rounds=1)
        coord.ingest("se1", heartbeat_payload(0, 0, 1))
        coord.begin_round("se0", 2)  # se1, se2 silent -> lost
        assert coord.fence(0, coord.epoch) is True
        assert coord.fence(1, coord.epoch) is False  # zombie, even w/ epoch
        assert coord.fence(99, 0) is True  # unknown ids are not our business

    def test_ingest_tolerates_garbage_and_lost_senders(self):
        coord = _coord()
        coord.ingest("se0", b"not a checkpoint")  # silently ignored
        coord.begin_round("se0", 99)  # everyone lost
        before = coord.snapshot()
        coord.ingest("se0", _ckpt(sub=1, site=1, rnd=100).to_payload())
        assert coord.snapshot() == before  # zombie replicas are dropped

    def test_frames_of_an_earlier_run_are_stale(self):
        """A coordinator started above epoch 0 (the fabric outlived the
        previous run) fences and ignores whatever that run stamped."""
        sites = {"se0": 0, "se1": 1, "se2": 2}
        coord = RecoveryCoordinator(
            sites, {n: [i] for n, i in sites.items()},
            config=RecoveryConfig(lease_rounds=1), epoch0=5,
        )
        assert coord.epoch == 5
        assert coord.fence(0, 4) is False
        assert coord.fence(0, 5) is True
        coord.ingest("se0", heartbeat_payload(1, 4, 7))
        coord.ingest("se0", _ckpt(sub=1, site=1, epoch=4, rnd=7).to_payload())
        assert coord.membership.last_seen("se1") == -1
        assert coord._replicas["se0"] == {}
        coord.ingest("se0", _ckpt(sub=1, site=1, epoch=5, rnd=0).to_payload())
        assert coord.membership.last_seen("se1") == 0
        assert list(coord._replicas["se0"]) == [1]
        # a loss still bumps the epoch from where the run started
        coord.begin_round("se0", 9)
        assert coord.epoch > 5

    def test_heartbeat_renews_lease_without_storing_replica(self):
        coord = _coord(lease_rounds=1)
        for r in range(4):
            for i in (0, 1, 2):
                coord.ingest("se0", heartbeat_payload(i, 0, r))
        coord.begin_round("se0", 4)
        assert coord.lost_sites == []
        assert coord._replicas["se0"] == {}


# ---------------------------------------------------------------------------
# Mux recovery plane: checkpoint sinks + epoch fence, both transports
# ---------------------------------------------------------------------------

class TestCheckpointPlane:
    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_checkpoint_diverted_to_sink(self, use_tcp):
        got = []
        with MiddlewareFabric(
            ["a", "b"], pairs=[("a", "b")], use_tcp=use_tcp
        ) as fab:
            fab.set_checkpoint_sink("b", got.append)
            fab.send_checkpoint("a", "b", b"replica-bytes", epoch=3)
            deadline = time.time() + 2
            while not got:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("checkpoint never reached the sink")
                time.sleep(0.01)
            # epoch prefix is stripped; the ordinary queue stays empty
            assert bytes(got[0]) == b"replica-bytes"
            with pytest.raises(TimeoutError):
                fab.recv("b", timeout=0.1)

    def test_sink_exception_does_not_kill_plane(self):
        with MiddlewareFabric(
            ["a", "b"], pairs=[("a", "b"), ("b", "a")]
        ) as fab:
            fab.set_checkpoint_sink("b", lambda p: 1 / 0)
            fab.send_checkpoint("a", "b", b"boom")
            fab.send("a", "b", b"data still flows")
            assert bytes(fab.recv("b", timeout=2)) == b"data still flows"


class TestEpochFence:
    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_fenced_frames_dropped_at_hub(self, use_tcp):
        with MiddlewareFabric(
            ["a", "b"], pairs=[("a", "b")], use_tcp=use_tcp
        ) as fab:
            a_id = fab.site_id("a")
            fab.set_epoch_fence(lambda src, epoch: not (
                src == a_id and epoch < 5
            ))
            fab.send_many("a", [("b", b"stale")], epoch=4)
            fab.send_many("a", [("b", b"fresh")], epoch=5)
            assert bytes(fab.recv("b", timeout=2)) == b"fresh"
            deadline = time.time() + 2
            while fab._hub.frames_fenced < 1:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("fence drop never recorded")
                time.sleep(0.01)

    def test_unstamped_frames_pass_unfenced(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            fab.set_epoch_fence(lambda src, epoch: False)  # rejects all
            fab.send("a", "b", b"legacy frame")  # no FLAG_EPOCH
            assert bytes(fab.recv("b", timeout=2)) == b"legacy frame"

    def test_fence_exception_fails_open(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            def broken(src, epoch):
                raise RuntimeError("fence bug")
            fab.set_epoch_fence(broken)
            fab.send_many("a", [("b", b"survives")], epoch=1)
            assert bytes(fab.recv("b", timeout=2)) == b"survives"

    def test_unreadable_epoch_prefix_is_fenced(self):
        hub = InprocMuxRouter()
        hub.start()
        got = []
        try:
            hub.set_epoch_fence(lambda src, epoch: True)
            la = hub.attach(1, lambda p: None)
            hub.attach(2, got.append)
            la.send(2, b"xx", flags=FLAG_EPOCH)  # shorter than the prefix
            deadline = time.time() + 2
            while hub.frames_fenced < 1:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("truncated epoch frame not fenced")
                time.sleep(0.01)
            assert got == []
        finally:
            hub.stop()


# ---------------------------------------------------------------------------
# Registration staleness: TCP re-dial, inproc re-attach
# ---------------------------------------------------------------------------

class TestRegistrationStaleness:
    def test_tcp_redial_retires_stale_registration(self):
        router = MuxRouter()
        router.start()
        old, new, sent = [], [], []
        try:
            l1 = router.attach(1, old.append)
            l2 = router.attach(2, sent.append)
            l2.send(1, b"first")
            deadline = time.time() + 2
            while not old:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("pre-redial frame never arrived")
                time.sleep(0.01)
            # the site restarts: same id, fresh socket.  The HELLO must
            # atomically retire the stale route, not race with it.
            l1b = router.attach(1, new.append)
            l2.send(1, b"second")
            deadline = time.time() + 2
            while not new:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("post-redial frame never arrived")
                time.sleep(0.01)
            assert bytes(new[0]) == b"second"
            assert [bytes(p) for p in old] == [b"first"]
            l1b.close()
        finally:
            l1.close()
            l2.close()
            router.stop()

    def test_inproc_reattach_revives_disconnected_id(self):
        plan = FaultPlan(seed=1).add(
            "mux.forward", "disconnect", key=(1, 2), count=1
        )
        hub = InprocMuxRouter()
        hub.start()
        got = []
        try:
            l1 = hub.attach(1, lambda p: None)
            hub.attach(2, got.append)
            with faults.injection(plan):
                l1.send(2, b"killer")  # disconnects id 2
                l1.send(2, b"into the void")
                deadline = time.time() + 2
                while hub.frames_dropped < 2:
                    if time.time() > deadline:  # pragma: no cover
                        pytest.fail("disconnect never took effect")
                    time.sleep(0.01)
            assert got == []
            hub.attach(2, got.append)  # restart: same id, fresh deliver
            l1.send(2, b"alive again")
            deadline = time.time() + 2
            while not got:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("revived id never received")
                time.sleep(0.01)
            assert bytes(got[0]) == b"alive again"
        finally:
            hub.stop()


# ---------------------------------------------------------------------------
# Hash ring: membership churn under concurrent routing
# ---------------------------------------------------------------------------

    def test_hub_survives_dropping_a_connection_twice(self):
        # a fault-injected disconnect closes the destination's connection
        # while another one is being serviced; the victim's own queued
        # readiness event then drops it a second time — which used to
        # raise out of the hub loop and take every route down with it
        router = MuxRouter()
        router.start()
        try:
            got = []
            l1 = router.attach(1, lambda p: None)
            l2 = router.attach(2, got.append)
            victim = router._routes[1]
            router._drop_conn(victim)
            router._drop_conn(victim)
            l3 = router.attach(3, lambda p: None)
            l3.send(2, b"still routing")
            deadline = time.time() + 2
            while not got:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("hub stopped routing")
                time.sleep(0.01)
            assert bytes(got[0]) == b"still routing"
        finally:
            for link in (l1, l2, l3):
                link.close()
            router.stop()


class TestHashRingChurn:
    def test_concurrent_routing_during_churn(self):
        core = [f"n{i}" for i in range(4)]
        churners = [f"x{i}" for i in range(4)]
        ring = ConsistentHashRing(core)
        stop = threading.Event()
        errors = []

        def route_loop():
            try:
                universe = set(core) | set(churners)
                while not stop.is_set():
                    for k in range(64):
                        # membership may change between these two calls;
                        # each must stay internally consistent and total
                        assert ring.route(k) in universe
                        pref = ring.preference(k, 3)
                        assert pref and set(pref) <= universe
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=route_loop) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                for n in churners:
                    ring.add(n)
                for n in churners:
                    ring.remove(n)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors
        # churn is fully unwound: layout is a function of the member set
        assert ring.nodes == frozenset(core)
        fresh = ConsistentHashRing(core)
        assert [ring.route(k) for k in range(256)] == [
            fresh.route(k) for k in range(256)
        ]


# ---------------------------------------------------------------------------
# Runtime plumbing units
# ---------------------------------------------------------------------------

class TestDegradedRoundsBounded:
    def test_retained_window_and_total(self):
        st = LiveSiteStats(s=0)
        n = DEGRADED_ROUNDS_RETAINED + 25
        for r in range(n):
            st.record_degraded(r)
        assert st.degraded_total == n
        assert len(st.degraded_rounds) == DEGRADED_ROUNDS_RETAINED
        assert st.degraded_rounds[0] == n - DEGRADED_ROUNDS_RETAINED
        assert st.degraded_rounds[-1] == n - 1

    def test_short_runs_keep_exact_list(self):
        st = LiveSiteStats(s=0)
        st.record_degraded(0)
        assert st.degraded_rounds == [0] and st.degraded_total == 1


class TestLinPointCache:
    def test_checkpointed_lin_point_hits_cache(self, net14, pf14):
        rng = np.random.default_rng(7)
        ms = generate_measurements(
            net14, full_placement(net14), pf14, rng=rng
        )
        est = WlsEstimator(net14, ms)
        cs = CondensedStep2(est, np.array([0, 1, 2]))
        lp = (pf14.Vm.copy(), pf14.Va.copy())
        assert not cs.lin_point_cached(lp)
        cs.estimate(x0=lp, lin_point=lp)
        assert cs.lin_point_cached(lp)
        # a wire round trip preserves the point bit-exactly, so a
        # failover successor reuses the donor's factorisation
        ck = SubsystemCheckpoint(
            subsystem=0, site=0, epoch=0, round=0,
            own_ids=np.arange(net14.n_bus, dtype=np.int64),
            own_vm=pf14.Vm, own_va=pf14.Va,
            lin_vm=lp[0], lin_va=lp[1],
        )
        back = SubsystemCheckpoint.from_payload(ck.to_payload())
        assert cs.lin_point_cached((back.lin_vm, back.lin_va))
        assert not cs.lin_point_cached((lp[0] + 1e-12, lp[1]))


# ---------------------------------------------------------------------------
# Live runtime: chaos acceptance on the synthetic grid
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def live_setup():
    net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
    pf = run_ac_power_flow(net)
    dec = decompose(net, 3, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    return dec, ms


KILL_SE1 = FaultPlan(seed=2026).add(
    "mux.forward", "disconnect", key=(2, 1), count=1
)


def _live(dec, ms, *, recovery=None, condense=False, rounds=8):
    return LiveDseRuntime(
        dec, ms, recv_timeout=0.5, round_deadline=2.0,
        condense=condense, recovery=recovery,
    ).run(rounds=rounds)


class TestLiveRecovery:
    def test_clean_run_is_bitwise_inert(self, live_setup):
        dec, ms = live_setup
        on = _live(dec, ms, recovery=RecoveryConfig(lease_rounds=2))
        off = _live(dec, ms)
        assert on.recovered_subsystems == [] and on.lost_sites == []
        assert on.degraded == {}
        # recovery only adds planes (checkpoints, heartbeats, the fence);
        # the Step-2 numerics are untouched, so the state is identical
        assert np.array_equal(on.Vm, off.Vm)
        assert np.array_equal(on.Va, off.Va)

    def test_site_kill_recovers_bounded_and_converges(self, live_setup):
        dec, ms = live_setup
        rounds = max(1, dec.diameter()) + 20
        clean = _live(
            dec, ms, recovery=RecoveryConfig(lease_rounds=2), rounds=rounds
        )
        inj = FaultInjector(KILL_SE1)
        with faults.injection(inj):
            res = _live(
                dec, ms, recovery=RecoveryConfig(lease_rounds=2),
                rounds=rounds,
            )
        assert res.lost_sites == [1]
        assert res.recovered_subsystems == [1]
        # promotion lands within lease_rounds + 1 of the kill at round 0:
        # every degraded round predates it
        promoted_on = [
            s for s, st in res.sites.items() if st.promoted_subsystems
        ]
        assert len(promoted_on) == 1
        assert res.sites[promoted_on[0]].promoted_subsystems == [1]
        for site, rs in res.degraded.items():
            assert max(rs) <= 3, (site, rs)
        # the re-seeded subsystem contracts back onto the uninterrupted
        # run's fixed point
        assert float(np.max(np.abs(res.Vm - clean.Vm))) <= 1e-8
        assert float(np.max(np.abs(res.Va - clean.Va))) <= 1e-8
        # checkpoints were replicated by every surviving site
        for s in promoted_on:
            assert res.sites[s].checkpoints_sent > 0

    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_kill_frame_then_clean_frames_on_one_runtime(
        self, live_setup, use_tcp
    ):
        """The kill frame retires its deployment (dead link, bumped epoch,
        promoted subsystem); the frames after it run on a fresh one, lose
        nobody and are bit-identical to the in-process DSE — and, being
        clean, stay on that one deployment."""
        dec, ms = live_setup
        ref = DistributedStateEstimator(dec, ms).run(rounds=8)
        with LiveDseRuntime(
            dec, ms, use_tcp=use_tcp, recv_timeout=0.5, round_deadline=2.0,
            recovery=RecoveryConfig(lease_rounds=2),
        ) as live:
            with faults.injection(FaultInjector(KILL_SE1)):
                hit = live.run(rounds=8)
            assert hit.lost_sites == [1]
            assert hit.recovered_subsystems == [1]
            assert live._deployment is None
            deployment = None
            for _ in range(3):
                res = live.run(rounds=8)
                assert res.errors == [] and res.degraded == {}
                assert res.lost_sites == [] and res.recovered_subsystems == []
                assert np.array_equal(res.Vm, ref.Vm)
                assert np.array_equal(res.Va, ref.Va)
                # per frame: 8 rounds of one replica per site
                assert [
                    st.checkpoints_sent for st in res.sites.values()
                ] == [8] * dec.m
                deployment = deployment or live._deployment
                assert live._deployment is deployment
            # every frame started above the epochs of the one before it
            assert deployment.epoch0 == 3

    def test_fault_plan_replays_bit_for_bit(self, live_setup):
        dec, ms = live_setup
        inj = FaultInjector(KILL_SE1)
        with faults.injection(inj):
            first = _live(dec, ms, recovery=RecoveryConfig(lease_rounds=2))
        inj2 = FaultInjector(KILL_SE1)
        with faults.injection(inj2):
            second = _live(dec, ms, recovery=RecoveryConfig(lease_rounds=2))
        assert inj.fired_summary() == inj2.fired_summary()
        assert inj.fired_summary() == {
            ("mux.forward", (2, 1), "disconnect"): 1
        }
        assert first.lost_sites == second.lost_sites == [1]
        assert first.recovered_subsystems == second.recovered_subsystems

    def test_condensed_recovery(self, live_setup):
        dec, ms = live_setup
        rounds = max(1, dec.diameter()) + 20
        clean = _live(
            dec, ms, recovery=RecoveryConfig(lease_rounds=2),
            condense=True, rounds=rounds,
        )
        inj = FaultInjector(KILL_SE1)
        with faults.injection(inj):
            res = _live(
                dec, ms, recovery=RecoveryConfig(lease_rounds=2),
                condense=True, rounds=rounds,
            )
        assert res.lost_sites == [1]
        assert res.recovered_subsystems == [1]
        assert float(np.max(np.abs(res.Vm - clean.Vm))) <= 1e-7
        assert float(np.max(np.abs(res.Va - clean.Va))) <= 1e-7

    def test_session_reports_recovered_frames(self, live_setup):
        # session-level counterpart: a frame whose solve fails in one
        # subsystem (a NaN meter) degrades under degrade_on_failure, the
        # next clean frame recovers it, and the report says so
        net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
        _dec, ms = live_setup
        arch = ArchitecturePrototype.assemble(net, m_subsystems=3, seed=0)
        session = DseSession(arch, degrade_on_failure=True)
        internal = set(arch.dec.buses(0)) - set(arch.dec.boundary_buses(0))
        row = next(
            r for r, m in enumerate(ms)
            if m.mtype == MeasType.V_MAG and m.element in internal
        )
        z = ms.z.copy()
        z[row] = np.nan
        rep1 = session.process_frame(ms.with_values(z))
        rep2 = session.process_frame(ms)
        assert rep1.degraded_subsystems == [0]
        assert rep1.recovered_subsystems == []
        assert rep2.degraded_subsystems == []
        assert rep2.recovered_subsystems == rep1.degraded_subsystems
        d = rep2.to_dict()
        assert d["recovered_subsystems"] == rep2.recovered_subsystems
        back = FrameReport.from_dict(d)
        assert back.recovered_subsystems == rep2.recovered_subsystems

    def test_recovery_counters_emitted(self, live_setup):
        dec, ms = live_setup
        obs.configure(enabled=True, reset=True)
        try:
            inj = FaultInjector(KILL_SE1)
            with faults.injection(inj):
                res = _live(dec, ms, recovery=RecoveryConfig(lease_rounds=2))
            assert res.recovered_subsystems == [1]
            names = {m["name"] for m in obs.metrics().collect()}
            assert "recovery.promotions_total" in names
            assert "recovery.checkpoints_sent_total" in names
            assert "recovery.replicas_stored_total" in names
            assert "membership.leases_expired_total" in names
            assert "membership.epoch" in names
            assert "mw.checkpoint_frames_sent_total" in names
        finally:
            obs.configure(enabled=False, reset=True)


# ---------------------------------------------------------------------------
# IEEE-118 chaos acceptance (the PR gate scenario)
# ---------------------------------------------------------------------------

class TestIeee118ChaosAcceptance:
    def test_site_kill_recovers_on_ieee118(self, net118, pf118):
        dec = decompose(net118, 9, seed=0)
        rng = np.random.default_rng(0)
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net118, plac, pf118, rng=rng)
        rounds = max(1, dec.diameter()) + 28
        kill = FaultPlan(seed=2026).add(
            "mux.forward", "disconnect", key=(0, 8), count=1
        )

        def run(plan=None):
            live = LiveDseRuntime(
                dec, ms, recv_timeout=0.5, round_deadline=2.0,
                recovery=RecoveryConfig(lease_rounds=2),
            )
            if plan is None:
                return live.run(rounds=rounds), None
            inj = FaultInjector(plan)
            with faults.injection(inj):
                return live.run(rounds=rounds), inj.fired_summary()

        clean, _ = run()
        assert clean.lost_sites == [] and clean.degraded == {}

        res, fired = run(kill)
        assert res.lost_sites == [8]
        assert res.recovered_subsystems == [8]
        # degraded ≤ N frames: every degraded round predates the
        # promotion landing (kill at round 0, lease_rounds=2)
        for site, rs in res.degraded.items():
            assert max(rs) <= 3, (site, rs)
        # state parity with the uninterrupted run after recovery
        assert float(np.max(np.abs(res.Vm - clean.Vm))) <= 1e-8
        assert float(np.max(np.abs(res.Va - clean.Va))) <= 1e-8
        # bit-for-bit replay from the same plan
        _, fired2 = run(kill)
        assert fired2 == fired == {
            ("mux.forward", (0, 8), "disconnect"): 1
        }
