"""Tests for the unified observability layer (repro.obs).

Covers the metrics registry (including the exact-sum concurrent-increment
regression the registry replaces ad-hoc counters for), span trees and
context propagation across threads / process-pool workers / the TCP mux
wire, the exporters and the obsreport CLI, the telemetry serialization
round-trip, and the bit-identical estimator-output guarantee with
observability on vs off.
"""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import LiveDseRuntime
from repro.core.telemetry import FrameReport, PhaseBreakdown
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.measurements import full_placement, generate_measurements
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import (
    SpanContext,
    Tracer,
    pack_span_context,
    unpack_span_context,
)
from repro.serving.requests import ServiceStats


@pytest.fixture
def obs_on():
    """Enable observability for one test, restoring the default after."""
    obs.configure(enabled=True, sample_every=1, reset=True)
    yield obs
    obs.configure(enabled=False, sample_every=1, reset=True)


@pytest.fixture(scope="module")
def dse14(net14, pf14):
    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(3)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    return dec, ms


# -- metrics ----------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_basics(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2)
        assert reg.counter("a").value == 3.0
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)
        reg.gauge("g").set(7)
        reg.gauge("g").inc(0.5)
        assert reg.gauge("g").value == 7.5

    def test_labels_partition_series(self):
        reg = MetricsRegistry()
        reg.counter("it", solver="lu").inc(4)
        reg.counter("it", solver="pcg").inc(9)
        assert reg.counter("it", solver="lu").value == 4.0
        assert reg.counter("it", solver="pcg").value == 9.0
        assert reg.get("it", solver="qr") is None

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_quantiles_and_snapshot(self):
        h = Histogram("lat")
        for v in [0.001 * i for i in range(1, 101)]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.1)
        assert snap["sum"] == pytest.approx(sum(0.001 * i for i in range(1, 101)))
        # streaming quantiles are bucket estimates: generous tolerance, but
        # they must be ordered and clamped inside the observed range
        assert snap["min"] <= snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]
        assert h.quantile(0.5) == pytest.approx(0.05, rel=0.5)

    def test_counter_concurrent_increments_sum_exactly(self):
        """S1 regression: the registry counter that replaced the ad-hoc
        unsynchronized stats must sum exactly under thread contention."""
        c = Counter("hits")
        n_threads, per_thread = 8, 5000

        def worker():
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * per_thread

    def test_service_stats_concurrent_records_sum_exactly(self):
        """S1 regression for ServiceStats (dispatcher thread vs readers)."""
        stats = ServiceStats()
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                stats.record_request(0.001)
                stats.record_batch(2)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.n_requests == n_threads * per_thread
        assert len(stats.latencies) == n_threads * per_thread
        assert stats.n_batches == n_threads * per_thread
        assert stats.mean_batch_size == 2.0


# -- tracing ----------------------------------------------------------------
class TestTracing:
    def test_nesting_parents_and_context_restore(self):
        tr = Tracer()
        with tr.start_span("outer") as outer:
            with tr.start_span("inner") as inner:
                assert inner.context.trace_id == outer.context.trace_id
                assert inner.parent_id == outer.context.span_id
        spans = {d["name"]: d for d in tr.finished()}
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["outer"]["parent"] is None
        from repro.obs.trace import current_context

        assert current_context() is None  # fully restored

    def test_exception_marks_error_and_still_records(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.start_span("boom"):
                raise RuntimeError("kaput")
        (d,) = tr.finished()
        assert d["status"] == "error"
        assert "kaput" in d["attrs"]["error"]

    def test_head_sampling_is_per_root_trace(self):
        tr = Tracer(sample_every=2)
        for _ in range(4):
            with tr.start_span("root", parent=None):
                with tr.start_span("child"):
                    pass
        # roots 0 and 2 sampled, children inherit: 2 traces x 2 spans
        assert len(tr.finished()) == 4
        assert len({d["trace"] for d in tr.finished()}) == 2
        none = Tracer(sample_every=0)
        with none.start_span("root", parent=None):
            pass
        assert none.finished() == []

    def test_disabled_hub_returns_noop_span(self):
        assert not obs.enabled()
        sp = obs.span("anything", x=1)
        assert sp is obs.NOOP_SPAN
        with sp:
            sp.set_attr("ignored", True)
        assert obs.current_context() is None

    def test_pack_unpack_roundtrip(self):
        ctx = SpanContext(trace_id=123456789, span_id=987654321, sampled=True)
        buf = pack_span_context(ctx)
        assert len(buf) == obs.TRACE_CTX_SIZE == 17
        assert unpack_span_context(buf) == ctx
        # offset form (wire prefix parsing)
        assert unpack_span_context(b"\x00" * 3 + buf, 3) == ctx

    def test_max_spans_drops_and_counts(self):
        tr = Tracer(max_spans=2)
        for _ in range(4):
            with tr.start_span("s", parent=None):
                pass
        assert len(tr.finished()) == 2
        assert tr.spans_dropped == 2


# -- DSE trace trees --------------------------------------------------------
def _frame_tree(tracer):
    spans = tracer.finished()
    by_name = {}
    for d in spans:
        by_name.setdefault(d["name"], []).append(d)
    return spans, by_name


class TestDseTraces:
    def test_frame_trace_complete(self, dse14, obs_on):
        dec, ms = dse14
        res = DistributedStateEstimator(dec, ms).run()
        spans, by_name = _frame_tree(obs.tracer())
        assert len({d["trace"] for d in spans}) == 1  # one frame, one trace
        (frame,) = by_name["dse.frame"]
        assert frame["parent"] is None
        assert frame["attrs"]["rounds"] == res.rounds
        (step1,) = by_name["dse.step1"]
        assert step1["parent"] == frame["span"]
        assert len(by_name["dse.step1.subsystem"]) == dec.m
        assert all(
            d["parent"] == step1["span"] for d in by_name["dse.step1.subsystem"]
        )
        assert len(by_name["dse.exchange"]) == res.rounds
        assert len(by_name["dse.step2"]) == res.rounds
        assert len(by_name["dse.step2.subsystem"]) == dec.m * res.rounds
        step2_ids = {d["span"] for d in by_name["dse.step2"]}
        assert all(
            d["parent"] in step2_ids for d in by_name["dse.step2.subsystem"]
        )

    def test_metrics_recorded_per_frame(self, dse14, obs_on):
        dec, ms = dse14
        res = DistributedStateEstimator(dec, ms).run()
        reg = obs.metrics()
        assert reg.counter("dse.frames_total").value == 1.0
        assert reg.counter("dse.bytes_exchanged_total").value == float(
            res.total_bytes_exchanged
        )
        assert reg.histogram("dse.frame.seconds").count == 1
        assert reg.get("wls.iterations_total", solver="lu").value > 0

    def test_bit_identical_with_obs_on_and_off(self, dse14):
        dec, ms = dse14
        obs.configure(enabled=False, reset=True)
        off = DistributedStateEstimator(dec, ms).run()
        obs.configure(enabled=True, reset=True)
        try:
            on = DistributedStateEstimator(dec, ms).run()
        finally:
            obs.configure(enabled=False, reset=True)
        assert np.array_equal(on.Vm, off.Vm)
        assert np.array_equal(on.Va, off.Va)


# -- wire propagation (TCP mux fast path) -----------------------------------
class TestWirePropagation:
    def test_mux_forward_spans_join_live_trace(self, dse14, obs_on):
        dec, ms = dse14
        live = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert live.errors == []
        spans, by_name = _frame_tree(obs.tracer())
        (root,) = by_name["live.run"]
        assert len({d["trace"] for d in spans}) == 1
        assert len(by_name["live.site"]) == dec.m
        forwards = by_name["mux.forward"]
        assert forwards, "router hop recorded no mux.forward spans"
        span_ids = {d["span"] for d in spans}
        # every router-hop span is parented to a span of this same trace
        assert all(
            d["trace"] == root["trace"] and d["parent"] in span_ids
            for d in forwards
        )

    def test_live_trace_has_one_solve_per_barrier(self, dse14, obs_on):
        """Each barrier of a live frame is one ``live.solve {stage, round}``
        span under the root, holding every subsystem's apportioned
        ``dse.<stage>.subsystem`` span; the sites' own subtrees keep their
        exchanges and the inputs they built."""
        dec, ms = dse14
        live = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert live.errors == []
        spans, by_name = _frame_tree(obs.tracer())
        (root,) = by_name["live.run"]
        solves = by_name["live.solve"]
        assert [(d["attrs"]["stage"], d["attrs"]["round"]) for d in solves] == [
            ("step1", None), *(("step2", r) for r in range(live.rounds))
        ]
        assert all(d["parent"] == root["span"] for d in solves)
        for stage, solve in [("step1", solves[0])] + [
            ("step2", d) for d in solves[1:]
        ]:
            subs = [
                d for d in by_name[f"dse.{stage}.subsystem"]
                if d["parent"] == solve["span"]
            ]
            assert sorted(d["attrs"]["s"] for d in subs) == list(range(dec.m))
            assert all(d["attrs"]["apportioned"] for d in subs)
        sites = {d["span"] for d in by_name["live.site"]}
        assert len(by_name["dse.exchange"]) == dec.m * live.rounds
        assert all(d["parent"] in sites for d in by_name["dse.exchange"])
        assert "live.step1" not in by_name and "live.step2" not in by_name

    def test_live_results_unchanged_by_tracing(self, dse14, obs_on):
        dec, ms = dse14
        ref = DistributedStateEstimator(dec, ms).run()
        live = LiveDseRuntime(dec, ms, use_tcp=True).run()
        assert np.array_equal(live.Vm, ref.Vm)
        assert np.array_equal(live.Va, ref.Va)


# -- exporters / CLI --------------------------------------------------------
class TestExport:
    def test_jsonl_roundtrip(self, tmp_path, obs_on):
        with obs.span("root", case="t"):
            with obs.span("leaf"):
                pass
        obs.metrics().counter("c", k="v").inc(3)
        obs.metrics().histogram("h").observe(0.25)
        path = tmp_path / "dump.jsonl"
        n = obs.export_jsonl(
            path, tracer=obs.tracer(), registry=obs.metrics(),
            meta={"case": "t"},
        )
        dump = obs.load_jsonl(path)
        assert dump["meta"]["format"] == "repro-obs-v1"
        assert dump["meta"]["case"] == "t"
        assert len(dump["spans"]) == 2
        assert n == 1 + len(dump["spans"]) + len(dump["metrics"])
        (c,) = [m for m in dump["metrics"] if m["name"] == "c"]
        assert c["metric_kind"] == "counter" and c["value"] == 3.0
        (h,) = [m for m in dump["metrics"] if m["name"] == "h"]
        assert h["count"] == 1 and h["p50"] == pytest.approx(0.25, rel=0.5)

    def test_prometheus_rendering(self, obs_on):
        obs.metrics().counter("dse.frames_total").inc(2)
        obs.metrics().histogram("dse.frame.seconds").observe(0.1)
        text = obs.render_prometheus(obs.metrics())
        assert "# TYPE dse_frames_total counter" in text
        assert "dse_frames_total 2" in text
        assert 'dse_frame_seconds{quantile="0.5"}' in text
        assert "dse_frame_seconds_count 1" in text

    def test_flame_render_shows_tree(self, obs_on):
        with obs.span("session.frame"):
            with obs.span("dse.frame"):
                pass
        out = obs.render_flame(obs.tracer().finished())
        assert "session.frame" in out
        assert "dse.frame" in out
        # child indented under parent
        parent_line = next(l for l in out.splitlines() if "session.frame" in l)
        child_line = next(l for l in out.splitlines() if "dse.frame" in l)
        assert len(child_line) - len(child_line.lstrip()) > (
            len(parent_line) - len(parent_line.lstrip())
        )

    def test_obsreport_cli_smoke(self, tmp_path, capsys, obs_on):
        from repro.core.telemetry import FrameReport, PhaseBreakdown
        from repro.tools import obsreport

        with obs.span("root"):
            pass
        obs.metrics().counter("c").inc()
        rep = FrameReport(
            t=0.0, noise_level=0.1, expected_iterations=3.0,
            mapping_step1={"c0": [0]}, imbalance_step1=1.0,
            mapping_step2={"c0": [0]}, imbalance_step2=1.0,
            edge_cut_step2=0, migrated_weight=0, rounds=2,
            bytes_exchanged=128, timings=PhaseBreakdown(step1=0.01),
            wall_time=0.02,
        )
        path = tmp_path / "s.jsonl"
        obs.export_jsonl(path, tracer=obs.tracer(), registry=obs.metrics(),
                         frames=[rep])
        assert obsreport.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 spans" in out and "root" in out and "== frames ==" in out
        assert obsreport.main([str(path), "--prometheus"]) == 0
        assert "# TYPE c counter" in capsys.readouterr().out


# -- telemetry (satellites 2 + 3) -------------------------------------------
class TestTelemetry:
    def test_phase_breakdown_roundtrip(self):
        pb = PhaseBreakdown(
            step1=0.1, redistribution=0.02,
            exchange_per_round=[0.01, 0.02], step2_per_round=[0.3, 0.4],
        )
        d = json.loads(json.dumps(pb.to_dict()))
        assert d["total"] == pytest.approx(pb.total)
        back = PhaseBreakdown.from_dict(d)
        assert back == pb

    def test_frame_report_roundtrip(self):
        rep = FrameReport(
            t=4.0, noise_level=0.3, expected_iterations=3.5,
            mapping_step1={"c0": [0, 1], "c1": [2]}, imbalance_step1=1.1,
            mapping_step2={"c0": [0], "c1": [1, 2]}, imbalance_step2=1.2,
            edge_cut_step2=3, migrated_weight=17, rounds=2,
            bytes_exchanged=4096,
            timings=PhaseBreakdown(step1=0.1, step2_per_round=[0.2]),
            wall_time=0.5, vm_rmse_vs_truth=1e-4,
            bad_data={"suspect_subsystems": [1], "removed_global_rows": [9],
                      "clean_after_identification": True},
        )
        d = json.loads(json.dumps(rep.to_dict()))
        back = FrameReport.from_dict(d)
        assert back.to_dict() == rep.to_dict()
        assert back.timings == rep.timings
        assert back.mapping_step2 == rep.mapping_step2
