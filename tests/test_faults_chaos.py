"""Seeded chaos tests over the live middleware fabric and the full stack.

One contract throughout: under a seeded fault plan the stack must
*converge or degrade* — complete within a bounded wall time, mark the
affected subsystems degraded, never hang — and the same seed must replay
exactly the same faults (``FaultInjector.fired_summary`` is the witness).
"""

import time

import numpy as np
import pytest

from repro import faults
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.faults import FaultInjector, FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements
from repro.middleware import ClientClosed, MiddlewareError
from repro.middleware.router import MiddlewareFabric
from repro.parallel import ProcessPoolBackend


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# Chaos fuzz: random seeded plans over an all-pairs fast-plane fabric
# ---------------------------------------------------------------------------

N_SITES = 4
SITES = [f"se{i}" for i in range(N_SITES)]
ROUNDS = 6
RECV_TIMEOUT = 0.25


def _fuzz_fabric(plan: FaultPlan):
    """Drive ``ROUNDS`` of all-pairs traffic through a fast-plane fabric
    under ``plan``; every send/recv outcome is accounted, nothing may
    hang.  Returns ``(delivered, missed, fired_summary)``."""
    delivered = missed = 0
    inj = FaultInjector(plan)
    with faults.injection(inj):
        with MiddlewareFabric(list(SITES)) as fabric:
            for rnd in range(ROUNDS):
                payload = bytes([rnd]) * 64
                for src in SITES:
                    for dst in SITES:
                        if dst == src:
                            continue
                        try:
                            fabric.send(src, dst, payload)
                        except (MiddlewareError, ConnectionError, OSError):
                            missed += 1
                for name in SITES:
                    for _ in range(N_SITES - 1):
                        try:
                            fabric.recv(name, timeout=RECV_TIMEOUT)
                            delivered += 1
                        except (ClientClosed, MiddlewareError):
                            missed += 1
                            break
                        except TimeoutError:
                            missed += 1
    return delivered, missed, inj.fired_summary()


class TestChaosFuzzFabric:
    def test_empty_plan_full_delivery(self):
        delivered, missed, fired = _fuzz_fabric(FaultPlan(seed=5))
        assert fired == {}
        assert missed == 0
        assert delivered == ROUNDS * N_SITES * (N_SITES - 1)

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_bounded_and_replayable(self, seed):
        plan = FaultPlan.random(
            seed,
            layers=("mux.forward",),
            n_rules=4,
            max_probability=0.25,
            max_delay=0.002,
        )
        t0 = time.monotonic()
        delivered, missed, fired = _fuzz_fabric(plan)
        elapsed = time.monotonic() - t0
        # worst case (every site dead) is ~ROUNDS * sites * recvs * timeout
        assert elapsed < 60.0
        total = ROUNDS * N_SITES * (N_SITES - 1)
        dupes = sum(
            n for (_l, _k, act), n in fired.items() if act == "duplicate"
        )
        assert 0 < delivered + missed
        assert delivered <= total + dupes
        # exact replay: fresh fabric, fresh injector, same plan
        _, _, fired2 = _fuzz_fabric(plan)
        assert fired2 == fired


# ---------------------------------------------------------------------------
# Live runtime under a drop plan: degrades, never hangs, replays
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def live_chaos_setup():
    net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
    pf = run_ac_power_flow(net, flat_start=True)
    dec = decompose(net, 3, seed=0)
    rng = np.random.default_rng(5)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    return dec, ms


class TestLiveRuntimeChaos:
    @pytest.mark.parametrize("seed", [3, 9])
    def test_drop_plan_degrades_never_hangs(self, live_chaos_setup, seed):
        dec, ms = live_chaos_setup
        plan = FaultPlan(seed=seed).add("mux.forward", "drop", probability=0.5)
        t0 = time.monotonic()
        with faults.injection(plan) as inj:
            res = LiveDseRuntime(
                dec, ms, recv_timeout=1.0, round_deadline=5.0
            ).run(rounds=2)
        assert time.monotonic() - t0 < 120.0
        fired = inj.fired_summary()
        # a dropped frame starves exactly its destination for that round
        starved = {dst for (_l, (_src, dst), _a) in fired}
        assert starved <= set(res.degraded)
        if fired:
            assert res.errors
        # the per-key event streams are fixed (every site sends every
        # round), so a fresh run under the same plan fires identically
        with faults.injection(plan) as inj2:
            LiveDseRuntime(
                dec, ms, recv_timeout=1.0, round_deadline=5.0
            ).run(rounds=2)
        assert inj2.fired_summary() == fired


    @pytest.mark.parametrize("use_tcp", [False, True])
    @pytest.mark.parametrize(
        "fault",
        [
            {"action": "drop", "key": (None, 0), "count": 1},
            # arrives after the receiver gave up on it: were the fabric
            # kept, the next frame would take it for a fresh update
            {"action": "delay", "key": (None, 0), "count": 1, "delay": 0.6},
            # the extra copy outlives the frame unread and unreported
            {"action": "duplicate", "key": (None, 0), "count": 1},
        ],
        ids=lambda f: f["action"],
    )
    def test_unclean_frame_retires_the_deployment(
        self, live_chaos_setup, use_tcp, fault
    ):
        """A frame that ran under a fired fault gives up its deployment:
        the next frame on the same runtime starts on a fresh fabric and is
        bit-identical to the in-process DSE — no stale update absorbed."""
        dec, ms = live_chaos_setup
        inproc = DistributedStateEstimator(dec, ms)
        rng = np.random.default_rng(3)
        z1, z2, z3 = (
            ms.z + ms.sigma * rng.standard_normal(len(ms)) for _ in range(3)
        )
        plan = FaultPlan(seed=1).add("mux.forward", **fault)
        with LiveDseRuntime(
            dec, ms, use_tcp=use_tcp, recv_timeout=0.3, round_deadline=2.0
        ) as live:
            assert live.run(z=z1).errors == []
            first = live._deployment
            with faults.injection(plan) as inj:
                bad = live.run(z=z2)
            assert inj.total_fired() >= 1
            if fault["action"] != "duplicate":
                assert 0 in bad.degraded_subsystems and bad.errors
            assert live._deployment is None  # retired
            if fault["action"] == "delay":
                time.sleep(0.5)  # let the straggler land on the old fabric
            for z in (z3, z2):
                ref = inproc.run(z=z)
                res = live.run(z=z)
                assert res.errors == [] and res.degraded == {}
                assert np.array_equal(res.Vm, ref.Vm)
                assert np.array_equal(res.Va, ref.Va)
            assert live._deployment is not first
            assert live._deployment is not None  # and resident again


# ---------------------------------------------------------------------------
# Acceptance scenario: IEEE-118, 9 subsystems; kill one pool worker under a
# session frame and hard-disconnect one site at the live hub — complete,
# degrade exactly, reproduce exactly.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ms118_9(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    return generate_measurements(net118, plac, pf118, rng=rng)


def _run_acceptance(net, ms, plan):
    """One fresh run of both halves under ``plan``: a session frame on a
    supervised process pool, then a live frame on the mux hub.  Returns
    ``(session state, report, live result, fired_summary, pool_respawns)``."""
    arch = ArchitecturePrototype.assemble(net, m_subsystems=9, seed=0)
    with faults.injection(plan) as inj:
        with ProcessPoolBackend(2) as pool:
            session = DseSession(arch, executor=pool, degrade_on_failure=True)
            report = session.process_frame(ms)
            respawns = pool.respawns
        with LiveDseRuntime(arch.dec, ms, recv_timeout=0.3) as live:
            res = live.run()
    state = (session._prev_vm, session._prev_va)
    return state, report, res, inj.fired_summary(), respawns


class TestAcceptanceScenario:
    # an exact (src, dst) key: which neighbour's frame reaches the hub
    # first is a race between site threads, so a (None, 8) wildcard would
    # fire on another key from run to run
    PLAN = (
        FaultPlan(seed=2026)
        .add("mux.forward", "disconnect", key=(3, 8), count=1)
        .add("worker", "kill", key=3, count=1)
    )

    def test_disconnect_plus_worker_kill_degrades_exactly_and_replays(
        self, net118, ms118_9
    ):
        dec = decompose(net118, 9, seed=0)
        # the disconnected site misses everything; each of its neighbours
        # misses the updates it would have sent them
        expected = sorted({8} | {int(b) for b in dec.neighbors(8)})

        t0 = time.monotonic()
        state, report, live, fired, respawns = _run_acceptance(
            net118, ms118_9, self.PLAN
        )
        assert time.monotonic() - t0 < 300.0  # bounded by deadlines, not hangs

        # pool half: the killed worker broke the pool once; the supervisor
        # respawned it warm and the re-run gives the serial estimate
        assert respawns >= 1
        assert report.degraded_subsystems == []
        ref = DistributedStateEstimator(dec, ms118_9).run()
        assert np.array_equal(state[0], ref.Vm)
        assert np.array_equal(state[1], ref.Va)
        kills = [
            (k, n) for (layer, k, act), n in fired.items()
            if layer == "worker" and act == "kill"
        ]
        assert kills == [(3, 1)]

        # hub half: exactly the cut-off site and its neighbours degrade
        assert live.degraded_subsystems == expected
        disconnects = [
            (k, n) for (layer, k, act), n in fired.items()
            if layer == "mux.forward" and act == "disconnect"
        ]
        assert len(disconnects) == 1
        assert disconnects[0][0][1] == 8 and disconnects[0][1] == 1

        # identical seed, fresh stack: identical faults, identical outcome
        state2, report2, live2, fired2, _ = _run_acceptance(
            net118, ms118_9, self.PLAN
        )
        assert fired2 == fired
        assert np.array_equal(state2[0], state[0])
        assert np.array_equal(state2[1], state[1])
        assert report2.rounds == report.rounds
        assert report2.bytes_exchanged == report.bytes_exchanged
        assert live2.degraded_subsystems == live.degraded_subsystems
