"""Tests for the runtime health plane (repro.obs.health).

Unit coverage runs the watchdog, SLO burn-rate engine and flight
recorder against injected clocks, so every staleness and hysteresis
decision is deterministic.  The chaos acceptance test at
the bottom drives the full stack: a seeded PR-5 ``FaultPlan`` kills a
shard replica mid-load, the health plane must emit a blackbox JSONL
whose meta (trigger + ``fired_summary``) replays bit-for-bit, the
``shard.lost`` event must fire before the router's rehash completes its
drain, and the SLO engine must report the availability burn.  Finally,
health disabled must leave estimator outputs bitwise identical.
"""

import json

import numpy as np
import pytest

from repro import faults, obs
from repro.contingency import enumerate_n1
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.faults import FaultPlan
from repro.measurements import full_placement, generate_measurements
from repro.obs.export import (
    build_trace_trees,
    load_jsonl,
    render_prometheus,
    render_prometheus_snapshots,
)
from repro.obs.health import (
    FlightRecorder,
    HealthMonitor,
    SloEngine,
    SloSpec,
    Watchdog,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ProcessPoolBackend
from repro.serving import LoadGenerator, ScenarioMix, ScenarioService, ShardRouter
from repro.serving.requests import ServiceStats
from repro.serving.shard import RouterStats


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture
def health_on(tmp_path):
    """Full obs + health plane for one test, restored after."""
    obs.configure(
        enabled=True, health=True, reset=True,
        health_dump_dir=tmp_path / "blackboxes",
        slo=["avail:availability:0.999"],
    )
    yield obs.health()
    obs.configure(
        enabled=False, health=False, reset=True,
        health_dump_dir=None, slo=[],
    )


@pytest.fixture(scope="module")
def chaos14(net14, pf14):
    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(11)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    safe, _ = enumerate_n1(net14)
    return dec, ms, tuple(safe[:6])


# -- watchdog ---------------------------------------------------------------
class TestWatchdog:
    def test_beat_keeps_watch_alive(self):
        clk = FakeClock()
        wd = Watchdog(clock=clk)
        tok = wd.arm("loop", timeout=1.0)
        for _ in range(5):
            clk.advance(0.8)
            wd.beat(tok)
            assert wd.check() == []
        assert tok.beats == 5 and wd.trips == 0

    def test_stall_trips_once_per_episode(self):
        clk = FakeClock()
        wd = Watchdog(clock=clk)
        tok = wd.arm("loop", timeout=1.0, source="se0")
        clk.advance(1.5)
        assert wd.check() == [tok] and tok.tripped
        # still stalled: no re-fire until the next beat clears the episode
        clk.advance(10.0)
        assert wd.check() == []
        wd.beat(tok)
        assert not tok.tripped
        clk.advance(1.5)
        assert wd.check() == [tok]
        assert wd.trips == 2

    def test_gate_idle_suppresses_and_refreshes(self):
        clk = FakeClock()
        wd = Watchdog(clock=clk)
        busy = [False]
        tok = wd.arm("dispatch", timeout=1.0, gate=lambda: busy[0])
        # idle far past the timeout: never a stall, deadline keeps moving
        clk.advance(50.0)
        assert wd.check() == []
        # work arrives: the full timeout applies from *now*
        busy[0] = True
        clk.advance(0.5)
        assert wd.check() == []
        clk.advance(0.6)
        assert wd.check() == [tok]

    def test_gate_exception_counts_as_idle(self):
        clk = FakeClock()
        wd = Watchdog(clock=clk)

        def bad_gate():
            raise RuntimeError("gone")

        wd.arm("dying", timeout=1.0, gate=bad_gate)
        clk.advance(5.0)
        assert wd.check() == []

    def test_disarm_and_validation(self):
        clk = FakeClock()
        wd = Watchdog(clock=clk)
        tok = wd.arm("once", timeout=1.0)
        wd.disarm(tok)
        clk.advance(9.0)
        assert wd.check() == [] and wd.active() == []
        with pytest.raises(ValueError):
            wd.arm("bad", timeout=0.0)


# -- SLO specs + engine -----------------------------------------------------
class TestSloSpec:
    def test_parse_full_grammar(self):
        s = SloSpec.parse("lat:latency:0.95:0.2:1/10:2")
        assert s.name == "lat" and s.kind == "latency"
        assert s.objective == 0.95 and s.threshold == 0.2
        assert s.windows == (1.0, 10.0) and s.burn_threshold == 2.0

    def test_parse_empty_positions_keep_defaults(self):
        s = SloSpec.parse("shed:shed_budget:0.99::2/20")
        assert s.threshold == 0.0 and s.windows == (2.0, 20.0)
        assert s.burn_threshold == 1.0

    @pytest.mark.parametrize("bad", [
        "lat:latency",                 # too few positions
        "x:bogus:0.9",                 # unknown kind
        "x:availability:1.5",          # objective out of (0,1)
        "x:latency:0.9",               # latency without threshold
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SloSpec.parse(bad)

    def test_latency_slo_rejects_router_source(self):
        eng = SloEngine()
        spec = SloSpec("lat", "latency", objective=0.9, threshold=0.1)
        with pytest.raises(ValueError):
            eng.track(spec, RouterStats())


class TestSloEngine:
    def _engine(self, reg=None):
        clk = FakeClock()
        return clk, SloEngine(registry=reg, clock=clk)

    def test_latency_burn_with_hysteresis(self):
        reg = MetricsRegistry()
        clk, eng = self._engine(reg)
        stats = ServiceStats()
        spec = SloSpec("lat", "latency", objective=0.9, threshold=0.01,
                       windows=(1.0, 5.0), hysteresis=2)
        eng.track(spec, stats, source_name="svc")
        # healthy traffic: everything under the threshold
        for _ in range(20):
            stats.record_request(0.001)
        assert eng.evaluate(clk.advance(1.0)) == []
        # sustained slow burst: 50% of new requests over threshold each
        # second -> burn 5.0 in both windows
        for _ in range(10):
            stats.record_request(0.5)
            stats.record_request(0.001)
        assert eng.evaluate(clk.advance(1.0)) == []   # streak 1 of 2
        for _ in range(10):
            stats.record_request(0.5)
            stats.record_request(0.001)
        fired = eng.evaluate(clk.advance(1.0))        # streak 2: alert
        assert len(fired) == 1 and fired[0]["slo"] == "lat"
        assert eng.status()[0]["burning"] is True
        assert eng.status()[0]["kind"] == "latency"
        burn = reg.gauge("health.slo.burn_rate",
                         slo="lat", source="svc", window="1.0").value
        assert burn >= 1.0
        assert reg.gauge("health.slo.burning", slo="lat", source="svc").value == 1.0
        # recovery needs the same number of clean evaluations
        for _ in range(400):
            stats.record_request(0.001)
        eng.evaluate(clk.advance(10.0))
        assert eng.status()[0]["burning"] is True     # streak 1 of 2 clean
        eng.evaluate(clk.advance(10.0))
        assert eng.status()[0]["burning"] is False

    def test_availability_burn_counts_lost_replicas_no_hint(self):
        clk, eng = self._engine()
        stats = RouterStats()
        spec = SloSpec("avail", "availability", objective=0.999,
                       windows=(1.0, 5.0), hysteresis=1)
        eng.track(spec, stats, source_name="router")
        stats._bump("completed", 50)
        eng.evaluate(clk.advance(1.0))
        stats._bump("completed", 50)
        stats._bump("replicas_lost")
        fired = eng.evaluate(clk.advance(1.0))
        assert len(fired) == 1 and fired[0]["kind"] == "availability"
        assert eng.status()[0]["burning"] is True
        assert eng.status()[0]["kind"] == "availability"
        # a clean evaluation with no further loss clears it (hysteresis 1)
        stats._bump("completed", 500)
        assert eng.evaluate(clk.advance(10.0)) == []
        assert eng.status()[0]["burning"] is False

    def test_no_traffic_is_not_a_burn(self):
        clk, eng = self._engine()
        stats = ServiceStats()
        eng.track(SloSpec("shed", "shed_budget", objective=0.99,
                          hysteresis=1), stats)
        for _ in range(5):
            assert eng.evaluate(clk.advance(1.0)) == []

    def test_untrack_source_detaches(self):
        clk, eng = self._engine()
        stats = ServiceStats()
        eng.track(SloSpec("shed", "shed_budget", objective=0.99), stats)
        eng.untrack_source(stats)
        assert eng.status() == []


# -- flight recorder --------------------------------------------------------
class TestFlightRecorder:
    def test_dump_round_trips_through_load_jsonl(self, tmp_path):
        clk = FakeClock()
        mon = HealthMonitor(clock=clk)
        mon.recorder.record_span(
            {"kind": "span", "name": "s2.round", "trace": 9, "span": 1,
             "parent": None, "start": 0.0, "dur": 0.1, "status": "ok",
             "attrs": {}}
        )
        mon.emit("frame.degraded", "se0", round=3)
        mon.registry.counter("live.degraded_rounds_total").inc()
        path = tmp_path / "bb.jsonl"
        assert mon.dump(path, reason="test") == str(path)
        data = load_jsonl(path)
        assert data["meta"]["blackbox"] is True
        assert data["meta"]["trigger"] == "test"
        assert [s["name"] for s in data["spans"]] == ["s2.round"]
        events = [e["event"] for e in data["events"]]
        assert events == ["frame.degraded", "manual"]
        assert build_trace_trees(data["spans"])  # replayable span tree
        names = {m["name"] for m in data["metrics"]}
        assert "live.degraded_rounds_total" in names
        assert "health.events_total" in names

    def test_trigger_rate_limited_and_ring_bounded(self, tmp_path):
        clk = FakeClock()
        rec = FlightRecorder(dump_dir=tmp_path, min_dump_interval=1.0,
                             clock=clk, event_capacity=4)
        assert rec.trigger("shard.lost") is not None
        assert rec.trigger("shard.lost") is None        # storm suppressed
        clk.advance(1.5)
        p = rec.trigger("watchdog.stall")
        assert p is not None and "watchdog-stall" in p
        assert len(rec.dumps) == 2
        for i in range(10):
            rec.record_event(obs.HealthEvent(kind="manual", source=str(i)))
        assert len(rec.events()) == 4                    # ring bound holds

    def test_no_dump_dir_means_no_auto_dump(self):
        rec = FlightRecorder()
        assert rec.trigger("shard.lost") is None


class TestHealthMonitor:
    def test_shed_burst_detection_with_rearm(self):
        clk = FakeClock()
        mon = HealthMonitor(clock=clk, shed_burst=5, shed_burst_window=1.0)
        seen = []
        mon.add_listener(lambda ev: seen.append(ev.kind))
        for _ in range(4):                       # under the burst size
            mon.note_shed("serving", "queue_full")
        assert seen == []
        mon.note_shed("serving", "queue_full")   # 5th inside the window
        assert seen == ["shed.burst"]
        for _ in range(5):                       # same episode: re-armed
            mon.note_shed("serving", "deadline")
        assert seen == ["shed.burst"]
        clk.advance(5.0)
        for _ in range(5):
            mon.note_shed("serving", "deadline")
        assert seen == ["shed.burst", "shed.burst"]

    def test_tick_emits_watchdog_and_slo_events(self):
        clk = FakeClock()
        mon = HealthMonitor(clock=clk)
        tok = mon.watch("live.site:0", timeout=1.0, source="se0")
        stats = RouterStats()
        mon.default_slos = [SloSpec("avail", "availability", objective=0.99,
                                    windows=(0.5, 1.0), hysteresis=1)]
        assert mon.watch_router("router", stats) == 1
        mon.tick(clk.advance(0.1))               # baseline SLO sample
        stats._bump("completed", 10)
        stats._bump("replicas_lost")
        out = mon.tick(clk.advance(2.0))
        kinds = sorted(ev.kind for ev in out)
        assert kinds == ["slo.burn", "watchdog.stall"]
        assert mon.registry.counter(
            "health.watchdog.trips_total", watch="live.site:0").value == 1
        assert mon.registry.counter(
            "health.slo.trips_total", slo="avail").value == 1
        assert len(mon.recorder.snapshots()) == 2
        mon.disarm(tok)

    def test_listener_exception_does_not_break_emit(self):
        mon = HealthMonitor()

        def boom(ev):
            raise RuntimeError("listener bug")

        mon.add_listener(boom)
        ev = mon.emit("manual", "test")
        assert ev.seq == 1
        assert mon.registry.counter("health.events_total", kind="manual").value == 1


# -- obs hub wiring ---------------------------------------------------------
class TestObsWiring:
    def test_disabled_by_default_and_lazy_monitor(self):
        assert not obs.health_enabled()
        mon = obs.health()                       # accessible, still off
        assert isinstance(mon, HealthMonitor)
        assert not obs.health_enabled()

    def test_configure_health_wires_tracer_mirror(self, health_on):
        assert obs.health_enabled()
        assert obs.tracer().mirror is not None
        with obs.span("demo.step"):
            pass
        names = [s["name"] for s in health_on.recorder.spans()]
        assert "demo.step" in names
        obs.configure(health=False)
        assert obs.tracer().mirror is None

    def test_configure_slo_strings_coerced(self, health_on):
        obs.configure(slo=["lat:latency:0.9:0.25", "avail:availability:0.99"])
        kinds = [s.kind for s in obs.health().default_slos]
        assert kinds == ["latency", "availability"]


# -- satellite 2: exception-safe span context restoration -------------------
class TestSpanContextRestoration:
    def test_raise_mid_span_restores_context(self, health_on):
        def boom(span_dict):
            raise RuntimeError("mirror bug")

        obs.tracer().mirror = boom
        with pytest.raises(RuntimeError, match="mirror bug"):
            with obs.span("outer"):
                pass
        # the context var must be restored even though end() raised;
        # without the try/finally in Span.__exit__ the dead span leaks
        # and every later span in this thread is parented under it
        assert obs.current_context() is None
        obs.tracer().mirror = health_on.recorder.record_span
        with obs.span("after"):
            ctx = obs.current_context()
            assert ctx is not None
        after = [s for s in obs.tracer().finished() if s["name"] == "after"]
        assert after and after[0]["parent"] is None   # a fresh root

    def test_leak_free_across_thread_pool_reactivation(self, health_on):
        from repro.parallel import ThreadPoolBackend

        def boom(span_dict):
            if span_dict["name"] == "task":
                raise RuntimeError("sink died")

        obs.tracer().mirror = boom

        def work(i):
            try:
                with obs.span("task", i=i):
                    pass
            except RuntimeError:
                pass
            ctx = obs.current_context()
            return ctx.span_id if ctx is not None else None

        with ThreadPoolBackend(2) as ex:
            leaked = [r for r in ex.map(work, list(range(8))) if r is not None]
        # pool threads are reused: one leaked token would parent every
        # subsequent task on that thread under a finished span
        assert leaked == []


# -- satellite 1: prometheus escaping + histogram series --------------------
class TestPrometheusEscaping:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("errs_total", path='C:\\tmp\\"x"', msg="line1\nline2").inc(2)
        h = reg.histogram("lat.seconds", op="solve")
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        return reg

    def test_label_values_escaped(self):
        text = render_prometheus(self._registry())
        assert r'path="C:\\tmp\\\"x\""' in text
        assert r'msg="line1\nline2"' in text
        assert "\nline2" not in text.replace(r"\nline2", "")  # no raw newline

    def test_histogram_count_and_sum_series(self):
        text = render_prometheus(self._registry())
        assert 'lat_seconds_count{op="solve"} 3' in text
        assert 'lat_seconds_sum{op="solve"} 0.555' in text
        assert 'lat_seconds{op="solve",quantile="0.5"}' in text

    def test_snapshot_render_matches_live_render(self, tmp_path):
        reg = self._registry()
        path = tmp_path / "dump.jsonl"
        obs.export_jsonl(path, registry=reg)
        rendered = render_prometheus_snapshots(load_jsonl(path)["metrics"])
        assert rendered == render_prometheus(reg)


# -- chaos acceptance -------------------------------------------------------
def _run_chaos(dec, ms, cons, dump_dir, *, seed, n_requests=14):
    """One seeded shard-kill run with the health plane armed; returns
    (router, report, monitor, events_seen, rehashed_at_loss)."""
    obs.configure(
        enabled=True, health=True, reset=True, health_dump_dir=dump_dir,
        slo=["avail:availability:0.999:::1"],
    )
    mon = obs.health()
    events = []
    rehashed_at_loss = []
    mix = ScenarioMix(ms, contingencies=cons,
                      frame_weight=0.0, contingency_weight=1.0)
    shards = {
        f"s{i}": ScenarioService(
            dec, ms, executor=ProcessPoolBackend(1, max_task_retries=0),
            max_batch=4, flush_latency=1e-3, batch_solve=False,
        )
        for i in range(2)
    }
    try:
        with ShardRouter(shards, grid="chaos") as router:
            def on_event(ev, _router=router):
                events.append(ev)
                if ev.kind == "shard.lost":
                    rehashed_at_loss.append(_router.stats.rehashed)

            mon.add_listener(on_event)
            mon.tick()                        # SLO baseline before traffic
            plan = FaultPlan(seed=seed).add("worker", "kill", key=0, count=1)
            report = LoadGenerator(router, mix, seed=seed).run(
                rate=40.0, n_requests=n_requests,
                fault_plan=plan, wait_timeout=120.0,
            )
            mon.tick()                        # burn sample after the loss
            burn_events = mon.tick()          # hysteresis (2): alert fires
            slo_trips = mon.registry.counter(
                "health.slo.trips_total", slo="avail").value
        return router, report, mon, events, rehashed_at_loss, burn_events, slo_trips
    finally:
        # the services do not own the pools passed to them; without this the
        # surviving workers live until a cyclic GC pass happens to run
        for svc in shards.values():
            svc.executor.shutdown()
        obs.configure(enabled=False, health=False, reset=True,
                      health_dump_dir=None, slo=[])


class TestChaosBlackbox:
    def test_shard_kill_dumps_replayable_blackbox(self, chaos14, tmp_path):
        dec, ms, cons = chaos14
        router, report, mon, events, rehashed_at_loss, burn_events, slo_trips = (
            _run_chaos(dec, ms, cons, tmp_path / "run", seed=21)
        )
        # the seeded plan fired exactly one worker kill -> one lost replica
        assert sum(report.faults_fired.values()) == 1
        assert router.stats.replicas_lost == 1
        assert report.n_completed == report.n_offered

        # the shard.lost event fired from the loss path, before the
        # router's rehash drained the stranded requests onto survivors
        assert rehashed_at_loss == [0]
        assert router.stats.rehashed >= 1
        kinds = [ev.kind for ev in events]
        assert "shard.lost" in kinds

        # the trigger dumped a self-contained blackbox with the fault
        # plan's fired_summary in the meta header
        dumps = mon.recorder.dumps
        assert dumps, "shard.lost must trigger a blackbox dump"
        data = load_jsonl(dumps[0])
        assert data["meta"]["blackbox"] is True
        assert data["meta"]["trigger"] == "shard.lost"
        fired = data["meta"]["fired_summary"]
        assert fired and any("kill" in k for k in fired)
        assert sum(fired.values()) == 1
        # span tree replays from the artifact alone
        assert build_trace_trees(data["spans"]) is not None
        ev_kinds = [e["event"] for e in data["events"]]
        assert "shard.lost" in ev_kinds
        names = {m["name"] for m in data["metrics"]}
        assert "health.events_total" in names

        # the SLO engine reported the availability burn
        assert any(ev.kind == "slo.burn" for ev in burn_events)
        assert slo_trips >= 1

    def test_blackbox_meta_replays_deterministically(self, chaos14, tmp_path):
        dec, ms, cons = chaos14
        runs = []
        for i in range(2):
            _, report, mon, events, _, _, _ = _run_chaos(
                dec, ms, cons, tmp_path / f"run{i}", seed=33
            )
            data = load_jsonl(mon.recorder.dumps[0])
            runs.append((data["meta"]["fired_summary"], report.faults_fired,
                         [e["event"] for e in data["events"]
                          if e["event"] == "shard.lost"]))
        assert runs[0][0] == runs[1][0]          # byte-identical meta summary
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2] == ["shard.lost"]
        # and the meta summary is exactly the injector's view, re-keyed
        assert {str(k) for k in runs[0][1]} == set(runs[0][0])


# -- health disabled: bitwise parity ----------------------------------------
class TestDisabledParity:
    def test_estimates_bitwise_identical_health_on_off(self, chaos14):
        dec, ms, _ = chaos14
        base = DistributedStateEstimator(dec, ms).run()
        obs.configure(enabled=True, health=True, reset=True)
        try:
            mon = obs.health()
            mon.tick()
            on = DistributedStateEstimator(dec, ms).run()
            mon.tick()
        finally:
            obs.configure(enabled=False, health=False, reset=True)
        off = DistributedStateEstimator(dec, ms).run()
        assert np.array_equal(base.Vm, on.Vm) and np.array_equal(base.Va, on.Va)
        assert np.array_equal(base.Vm, off.Vm) and np.array_equal(base.Va, off.Va)
        assert base.rounds == on.rounds == off.rounds
