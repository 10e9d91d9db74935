"""Tests for the live distributed DSE runtime."""

import gc
import os
import socket
import sys
import threading

import numpy as np
import pytest

from repro import faults, obs
from repro.core import LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.estimation.wls import WlsEstimator
from repro.faults import FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.measurements import full_placement, generate_measurements
from repro.middleware import parse_endpoint, recv_mux_frame, send_mux_frame
from repro.middleware.message import FLAG_CONTROL, MUX_HEADER, MUX_VERSION


@pytest.fixture(scope="module")
def live_setup(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    ref = DistributedStateEstimator(dec, ms).run()
    return dec, ms, ref


class TestLiveRuntime:
    def test_bitwise_match_inproc(self, live_setup):
        """The live sites, fed only by wire bytes, reproduce the in-process
        DSE exactly (same Jacobi schedule, same solver, same data)."""
        dec, ms, ref = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.errors == []
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)

    def test_bitwise_match_tcp(self, live_setup):
        dec, ms, ref = live_setup
        live = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert live.errors == []
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)

    def test_site_stats_recorded(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert set(live.sites) == set(range(dec.m))
        for s, st in live.sites.items():
            assert st.step1_time > 0
            assert len(st.step2_times) == live.rounds
            expected_msgs = live.rounds * len(dec.neighbors(s))
            assert st.messages_received == expected_msgs
            assert st.bytes_sent > 0

    def test_conservation_of_bytes(self, live_setup):
        """Every byte sent is received by exactly one site."""
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        sent = sum(st.bytes_sent for st in live.sites.values())
        received = sum(st.bytes_received for st in live.sites.values())
        assert sent == received

    def test_rounds_default_diameter(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.rounds == max(1, dec.diameter())

    def test_explicit_rounds(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run(rounds=1)
        assert live.rounds == 1
        for st in live.sites.values():
            assert len(st.step2_times) == 1

    def test_wall_time_positive(self, live_setup):
        dec, ms, _ = live_setup
        live = LiveDseRuntime(dec, ms).run()
        assert live.wall_time > 0

    def test_empty_fault_plan_keeps_bitwise_parity(self, live_setup):
        """An installed injector with no rules leaves the data plane
        bit-identical — the hook is consulted but never fires."""
        from repro import faults
        from repro.faults import FaultPlan

        dec, ms, ref = live_setup
        with faults.injection(FaultPlan(seed=7)) as inj:
            live = LiveDseRuntime(dec, ms).run()
        assert inj.total_fired() == 0
        assert live.errors == []
        assert live.degraded == {}
        assert live.degraded_subsystems == []
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)

    def test_starved_site_runs_degraded_round(self, live_setup):
        """Dropping every update bound for one site starves it for the
        round; it keeps solving on last-known values and flags the round."""
        from repro import faults
        from repro.faults import FaultPlan

        dec, ms, _ = live_setup
        plan = FaultPlan(seed=0).add("mux.forward", "drop", key=(None, 0))
        live = LiveDseRuntime(dec, ms, recv_timeout=0.3)
        with faults.injection(plan):
            res = live.run(rounds=1)
        assert res.degraded == {0: [0]}
        assert res.sites[0].degraded_rounds == [0]
        assert res.errors

    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_screened_frame_matches_inproc(self, live_setup, use_tcp):
        """A frame whose bad rows are screened out by zero weights: every
        site takes its slice of ``weights=``, and the result is the
        in-process ``run(z=, weights=)`` bit for bit."""
        dec, ms, _ = live_setup
        rng = np.random.default_rng(5)
        (z,) = _frames(ms, 1)
        bad = rng.choice(len(ms), 4, replace=False)
        z[bad] += 40 * ms.sigma[bad]
        w = ms.weights.copy()
        w[bad] = 0.0
        ref = DistributedStateEstimator(dec, ms).run(z=z, weights=w)
        with LiveDseRuntime(dec, ms, use_tcp=use_tcp) as live:
            res = live.run(z=z, weights=w)
            clean = live.run(z=z)
        assert res.errors == [] and clean.errors == []
        assert np.array_equal(res.Vm, ref.Vm)
        assert np.array_equal(res.Va, ref.Va)
        assert not np.array_equal(clean.Va, ref.Va)
        with pytest.raises(ValueError, match="weights"):
            LiveDseRuntime(dec, ms).run(weights=w[:-1])

    def test_failed_block_is_its_sites_error(self, live_setup):
        """A block that fails inside the combined solve is the error of the
        site that owns it, not of the thread that ran the barrier: the
        barrier breaks, the deployment retires, and the next frame is
        clean and bit-identical to the in-process DSE."""
        dec, ms, ref = live_setup
        dse = DistributedStateEstimator(dec, ms)
        w = ms.weights.copy()
        w[dse.assignment.step1[4]] = 0.0   # subsystem 4's Step 1 is empty
        with LiveDseRuntime(dec, ms) as live:
            live.run()
            hit = live.run(weights=w)
            assert len(hit.errors) == 1
            assert hit.errors[0].startswith("site 4 failed: EstimationError(")
            assert "underdetermined" in hit.errors[0]
            assert live._deployment is None
            res = live.run()
        assert res.errors == []
        assert np.array_equal(res.Vm, ref.Vm)
        assert np.array_equal(res.Va, ref.Va)

    @pytest.mark.parametrize("cut_rounds", [1, 2])
    def test_condensed_site_cut_off(self, live_setup, monkeypatch, cut_rounds):
        """Every update bound for site 0 is dropped for the first
        ``cut_rounds`` rounds of a condensed frame.  The frame completes
        with those rounds degraded; a round in which site 0 still has not
        heard a neighbour runs exact while the others run frozen, so it is
        solved job by job instead of stacked.  The next frame runs on a
        fresh deployment and is the in-process DSE bit for bit."""
        import repro.dse.stepper as stepper

        dec, ms, _ = live_setup
        stacked = []
        real = stepper._stacked_stage

        def spy(*args, **kwargs):
            stacked.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(stepper, "_stacked_stage", spy)
        plan = FaultPlan(seed=0).add(
            "mux.forward", "drop", key=(None, 0), count=cut_rounds
        )
        frames = _frames(ms, 2)
        inproc = DistributedStateEstimator(dec, ms, condense=True)
        with LiveDseRuntime(dec, ms, condense=True, recv_timeout=0.3) as live:
            with faults.injection(plan):
                hit = live.run(z=frames[0])
            assert hit.degraded == {0: list(range(cut_rounds))}
            assert all(e.startswith("site 0 round ") for e in hit.errors)
            assert len(stacked) == 1 + hit.rounds - (cut_rounds - 1)
            assert live._deployment is None
            stacked.clear()
            res = live.run(z=frames[1])
            assert res.errors == [] and len(stacked) == 1 + res.rounds
        ref = inproc.run(z=frames[1])
        assert np.array_equal(res.Vm, ref.Vm)
        assert np.array_equal(res.Va, ref.Va)

    def test_member_factors_stay_unbuilt(self, live_setup):
        """Clean frames solve on the stacked estimators' own block
        factors: no subsystem estimator ever factors its own gain."""
        dec, ms, _ = live_setup
        with LiveDseRuntime(dec, ms) as live:
            for z in [None, *_frames(ms, 2)]:
                assert live.run(z=z).errors == []
            dse = live._dse
            members = [dse._est1[s] for s in range(dec.m)] + [
                dse._step2_cache[s][0] for s in range(dec.m)
            ]
        for est in members:
            spd = est._gain_solver.kernel.spd
            assert spd._chol is None and spd.lu is None

    def test_small_synthetic_grid(self):
        net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
        pf = run_ac_power_flow(net, flat_start=True)
        dec = decompose(net, 3, seed=0)
        rng = np.random.default_rng(5)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        live = LiveDseRuntime(dec, ms).run()
        assert live.errors == []
        err = live.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3


# ---------------------------------------------------------------------------
# Resident deployment: fabric and site threads outlive the frame
# ---------------------------------------------------------------------------

def _open_sockets() -> set[str]:
    out = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor
            continue
        if target.startswith("socket:"):
            out.add(target)
    return out


class _Footprint:
    """Threads and sockets this process has gained since construction
    (other tests' leftovers winding down in the background don't count)."""

    def __init__(self):
        gc.collect()
        self._threads = set(threading.enumerate())
        self._sockets = _open_sockets()

    def gained(self) -> tuple[frozenset, frozenset]:
        gc.collect()
        return (
            frozenset(set(threading.enumerate()) - self._threads),
            frozenset(_open_sockets() - self._sockets),
        )


_NOTHING = (frozenset(), frozenset())


def _frames(ms, n, seed=11):
    rng = np.random.default_rng(seed)
    return [ms.z + ms.sigma * rng.standard_normal(len(ms)) for _ in range(n)]


class TestResidentDeployment:
    @pytest.mark.parametrize("condense", [False, True])
    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_twenty_frames_one_deployment(self, live_setup, use_tcp, condense):
        """Twenty values-only frames on one runtime: each bit-identical to
        the in-process DSE, all on the deployment the first one started,
        which ``close()`` takes down to the last thread and socket."""
        dec, ms, _ = live_setup
        inproc = DistributedStateEstimator(dec, ms, condense=condense)
        baseline = _Footprint()
        live = LiveDseRuntime(dec, ms, use_tcp=use_tcp, condense=condense)
        assert baseline.gained() == _NOTHING  # nothing starts before a run
        after_first = deployment = None
        for z in _frames(ms, 20):
            res = live.run(z=z)
            ref = inproc.run(z=z)
            assert res.errors == []
            assert np.array_equal(res.Vm, ref.Vm)
            assert np.array_equal(res.Va, ref.Va)
            if after_first is None:
                after_first, deployment = baseline.gained(), live._deployment
        assert live._deployment is deployment
        assert baseline.gained() == after_first
        assert len(after_first[0]) >= dec.m  # the site threads, at least
        assert bool(after_first[1]) == use_tcp
        live.close()
        live.close()  # idempotent
        assert baseline.gained() == _NOTHING
        with pytest.raises(RuntimeError, match="closed"):
            live.run()

    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_dropped_runtime_is_reclaimed(self, live_setup, use_tcp):
        """No ``close()``: dropping the last reference stops the hub, the
        links and the site threads (they hold no reference back)."""
        dec, ms, ref = live_setup
        baseline = _Footprint()
        live = LiveDseRuntime(dec, ms, use_tcp=use_tcp)
        assert np.array_equal(live.run().Vm, ref.Vm)
        assert baseline.gained() != _NOTHING
        del live
        assert baseline.gained() == _NOTHING

    def test_context_manager_closes(self, live_setup):
        dec, ms, ref = live_setup
        baseline = _Footprint()
        with LiveDseRuntime(dec, ms, use_tcp=True) as live:
            assert np.array_equal(live.run().Vm, ref.Vm)
        assert baseline.gained() == _NOTHING
        with pytest.raises(RuntimeError, match="closed"):
            live.run()

    def test_resident_threads_are_daemons(self, live_setup):
        dec, ms, _ = live_setup
        before = set(threading.enumerate())
        with LiveDseRuntime(dec, ms, use_tcp=True) as live:
            live.run()
            started = set(threading.enumerate()) - before
            assert len(started) >= dec.m
            assert all(t.daemon for t in started)

    def test_undefined_flag_frame_is_refused_at_the_hub(self, live_setup):
        """A frame carrying the retired 0x04 flag, addressed to a resident
        site, closes its sender's link at the hub and never reaches the
        site: the next frame still matches the in-process DSE bit for bit
        and the hub relayed only the sites' own exchange."""
        dec, ms, ref = live_setup
        with LiveDseRuntime(dec, ms, use_tcp=True) as live:
            assert np.array_equal(live.run().Vm, ref.Vm)
            fabric = live._deployment.fabric
            ep = parse_endpoint(fabric._hub.endpoint)
            with socket.create_connection((ep.host, ep.port), timeout=5.0) as raw:
                send_mux_frame(raw, dec.m, 0, b"", flags=FLAG_CONTROL)
                assert recv_mux_frame(raw)[0] == FLAG_CONTROL
                raw.sendall(MUX_HEADER.pack(MUX_VERSION, 0x04, dec.m, 0, 3) + b"bad")
                try:
                    assert raw.recv(1) == b""  # the hub closed the link
                except ConnectionResetError:
                    pass
            res = live.run()
            assert res.errors == []
            assert np.array_equal(res.Vm, ref.Vm)
            assert np.array_equal(res.Va, ref.Va)
            relayed = fabric.relay_stats().values()
            assert sum(n for n, _ in relayed) == 2 * 84

    def test_site_stats_are_per_frame(self, live_setup):
        """``LiveDseResult.sites`` counts this frame only; the fabric's
        relay statistics keep counting across frames."""
        dec, ms, _ = live_setup
        with LiveDseRuntime(dec, ms, use_tcp=True) as live:
            for k, z in enumerate(_frames(ms, 3), start=1):
                res = live.run(z=z)
                sites = res.sites.values()
                assert sum(st.messages_received for st in sites) == 84
                assert sum(st.bytes_sent for st in sites) == 26448
                assert sum(st.bytes_received for st in sites) == 26448
                assert all(st.checkpoints_sent == 0 for st in sites)
                relayed = live._deployment.fabric.relay_stats().values()
                assert sum(n for n, _ in relayed) == 84 * k
                assert sum(b for _, b in relayed) == 26448 * k

    def test_each_barrier_is_one_stacked_solve(self, live_setup, monkeypatch):
        """A clean frame solves each stage once, at its barrier: 1 + rounds
        stacked Gauss-Newton loops and no single-subsystem ``estimate``.
        A site's times are its ``Nb × Ni`` shares of those loops, so per
        stage they add up to the loop's wall time (the apportioned
        ``dse.<stage>.subsystem`` spans under its ``live.solve`` span), and
        over the frame to at most the frame's wall."""
        dec, ms, _ = live_setup
        loops, singles = [], []
        blocks, single = WlsEstimator.estimate_blocks, WlsEstimator.estimate

        def estimate_blocks(est, **kw):
            if len(est._blocks) > 1:
                loops.append(est)
            return blocks(est, **kw)

        def estimate(est, **kw):
            singles.append(est)
            return single(est, **kw)

        monkeypatch.setattr(WlsEstimator, "estimate_blocks", estimate_blocks)
        monkeypatch.setattr(WlsEstimator, "estimate", estimate)
        try:
            with LiveDseRuntime(dec, ms) as live:
                for z in [None, *_frames(ms, 2)]:
                    obs.configure(enabled=True, sample_every=1, reset=True)
                    loops.clear()
                    singles.clear()
                    res = live.run(z=z)
                    assert res.errors == []
                    assert len(loops) == 1 + res.rounds and singles == []
                    spans = obs.tracer().finished()
                    solves = {
                        d["span"]: d for d in spans if d["name"] == "live.solve"
                    }
                    assert [d["attrs"]["stage"] for d in solves.values()] == [
                        "step1", *["step2"] * res.rounds
                    ]
                    stacked = {k: [] for k in solves}
                    for d in spans:
                        if d["name"].endswith(".subsystem"):
                            assert d["attrs"]["apportioned"] is True
                            stacked[d["parent"]].append(d["dur"])
                    sites = res.sites.values()
                    shares = [
                        [st.step1_time for st in sites],
                        *([st.step2_times[r] for st in sites] for r in range(res.rounds)),
                    ]
                    for (k, solve), share in zip(solves.items(), shares):
                        assert len(stacked[k]) == dec.m
                        assert sum(share) == pytest.approx(sum(stacked[k]), rel=1e-12)
                        assert sum(stacked[k]) <= solve["dur"]
                    assert sum(d["dur"] for d in solves.values()) <= res.wall_time
        finally:
            obs.configure(enabled=False, sample_every=1, reset=True)

    def test_concurrent_runs_take_turns(self, live_setup):
        """More callers than cores on one runtime, switching eagerly: the
        run lock serialises them, so no frame sees another's barrier,
        stats or updates and every result is the in-process DSE's."""
        dec, ms, _ = live_setup
        inproc = DistributedStateEstimator(dec, ms)
        frames = _frames(ms, 8)
        refs = [inproc.run(z=z) for z in frames]
        out: dict[int, object] = {}

        def caller(k: int, live: LiveDseRuntime) -> None:
            out[k] = live.run(z=frames[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with LiveDseRuntime(dec, ms) as live:
                threads = [
                    threading.Thread(target=caller, args=(k, live))
                    for k in range(len(frames))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120.0)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for k, ref in enumerate(refs):
            assert out[k].errors == []
            assert np.array_equal(out[k].Vm, ref.Vm)
            assert np.array_equal(out[k].Va, ref.Va)
            assert sum(
                st.messages_received for st in out[k].sites.values()
            ) == 84
