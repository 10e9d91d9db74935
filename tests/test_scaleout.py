"""Scale-out execution: process pool, executor specs, scenario serving.

The process backend is an optimisation with a hard contract: results must
be *bit-identical* to serial execution (the parent computes every task's
inputs, workers only evaluate), workers must not leak past shutdown, and
worker-side failures must surface in the parent with the original
traceback text.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.contingency import ContingencyAnalyzer, enumerate_n1, run_parallel
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.measurements import full_placement, generate_measurements
from repro.parallel import (
    ProcessPoolBackend,
    SerialExecutor,
    ThreadPoolBackend,
    WorkerError,
    make_executor,
    worker_context,
)
from repro.serving import (
    ContingencyRequest,
    EstimationRequest,
    ScenarioService,
)


@pytest.fixture(scope="module")
def dse118(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    return dec, ms


@pytest.fixture(scope="module")
def dse14(net14, pf14):
    dec = decompose(net14, 2, seed=0)
    rng = np.random.default_rng(3)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    return dec, ms


def _no_leaked_workers(timeout: float = 5.0) -> bool:
    """Wait for worker processes to exit (shutdown joins, but be safe)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _square(i):
    return i * i


def _boom(i):
    if i == 2:
        raise ValueError("worker task exploded")
    return i


def _identity_builder(payload):
    return payload


def _context_reader(args):
    key, i = args
    return worker_context(key) + i


class TestProcessBackendParity:
    def test_dse118_bit_equal_serial(self, dse118):
        dec, ms = dse118
        serial = DistributedStateEstimator(
            dec, ms, executor=SerialExecutor()
        ).run()
        with ProcessPoolBackend(2) as pool:
            dist = DistributedStateEstimator(dec, ms, executor=pool).run()
        assert np.array_equal(serial.Vm, dist.Vm)
        assert np.array_equal(serial.Va, dist.Va)
        assert dist.rounds == serial.rounds

    def test_contingency14_bit_equal_serial(self, net14):
        analyzer = ContingencyAnalyzer(net14, method="dc", rating_margin=1.1)
        cons, _ = enumerate_n1(net14)
        ref = [analyzer.analyze(c) for c in cons]
        with ProcessPoolBackend(2) as pool:
            report = run_parallel(
                analyzer, cons, executor=pool, scheme="dynamic"
            )
        assert len(report.results) == len(ref)
        for got, exp in zip(report.results, ref):
            assert got.contingency == exp.contingency
            assert got.converged == exp.converged
            assert got.max_loading == exp.max_loading
            assert [
                (v.branch, v.flow, v.rating) for v in got.violations
            ] == [(v.branch, v.flow, v.rating) for v in exp.violations]

    def test_values_only_frames_match_rebuild(self, dse14):
        """run(z=...) over warm caches == rebuilding the estimator."""
        dec, ms = dse14
        rng = np.random.default_rng(5)
        z = ms.z + 0.01 * ms.sigma * rng.standard_normal(len(ms))
        dse = DistributedStateEstimator(dec, ms, warm_start=False)
        dse.run()  # warm the caches with the template frame
        framed = dse.run(z=z)
        rebuilt = DistributedStateEstimator(
            dec, ms.with_values(z), warm_start=False
        ).run()
        assert np.array_equal(framed.Vm, rebuilt.Vm)
        assert np.array_equal(framed.Va, rebuilt.Va)


class TestProcessBackendLifecycle:
    def test_map_basic_and_order(self):
        with ProcessPoolBackend(2) as pool:
            assert pool.map(_square, range(10)) == [i * i for i in range(10)]

    def test_worker_context_roundtrip(self):
        with ProcessPoolBackend(2) as pool:
            pool.initialize("t:base", _identity_builder, 100)
            out = pool.map(_context_reader, [("t:base", i) for i in range(4)])
            assert out == [100, 101, 102, 103]
            # re-registering the same key is a no-op (workers stay warm)
            pool.initialize("t:base", _identity_builder, 999)
            assert pool.map(_context_reader, [("t:base", 0)]) == [100]

    def test_missing_context_raises(self):
        with pytest.raises(RuntimeError, match="not initialised"):
            worker_context("never-registered")

    def test_shutdown_idempotent(self):
        pool = ProcessPoolBackend(2)
        pool.map(_square, range(4))
        pool.shutdown()
        pool.shutdown()  # second call must be a no-op
        assert _no_leaked_workers()
        # the backend is reusable after shutdown (fresh pool)
        assert pool.map(_square, [3]) == [9]
        pool.shutdown()

    def test_context_manager_releases_workers(self):
        with ProcessPoolBackend(2) as pool:
            pool.map(_square, range(4))
        assert _no_leaked_workers()

    def test_worker_exception_propagates_traceback(self):
        with ProcessPoolBackend(2) as pool:
            with pytest.raises(ValueError, match="worker task exploded") as ei:
                pool.map(_boom, range(5))
        cause = ei.value.__cause__
        assert isinstance(cause, WorkerError)
        # the worker-side traceback text survives the process boundary
        assert "ValueError: worker task exploded" in str(cause)
        assert "_boom" in str(cause)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)


class TestExecutorSpecs:
    def test_process_specs(self):
        pool = make_executor("processes:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.n_workers == 3
        assert pool.distributed
        pool.shutdown()
        default = make_executor("processes")
        assert isinstance(default, ProcessPoolBackend)
        default.shutdown()

    def test_thread_specs(self):
        pool = make_executor("threads:5")
        assert isinstance(pool, ThreadPoolBackend)
        assert pool.n_workers == 5
        assert not pool.distributed
        pool.shutdown()

    def test_error_enumerates_accepted_specs(self):
        with pytest.raises(ValueError) as ei:
            make_executor("gpu:4")
        msg = str(ei.value)
        for frag in ("'serial'", "'threads:N'", "'processes:N'", "int"):
            assert frag in msg
        with pytest.raises(ValueError):
            make_executor("threads:0")
        with pytest.raises(ValueError):
            make_executor("threads:x")
        with pytest.raises(ValueError):
            make_executor(True)

    def test_thread_pool_is_lazy(self):
        pool = ThreadPoolBackend(2)
        assert pool._pool is None  # constructing must not spawn threads
        assert pool.map(_square, [2]) == [4]
        assert pool._pool is not None
        pool.shutdown()
        assert pool._pool is None
        assert pool.map(_square, [5]) == [25]  # transparently re-created
        pool.shutdown()


class TestAnalyzeAllExecutor:
    def test_matches_serial(self, net14):
        analyzer = ContingencyAnalyzer(net14, method="dc", rating_margin=1.1)
        cons, _ = enumerate_n1(net14)
        ref = analyzer.analyze_all(cons)
        out = analyzer.analyze_all(cons, executor="threads:2")
        assert len(out) == len(ref)
        for got, exp in zip(out, ref):
            assert got.contingency == exp.contingency
            assert got.max_loading == exp.max_loading


class TestScenarioService:
    def test_mixed_batch_round_trip(self, dse14, net14):
        dec, ms = dse14
        cons, _ = enumerate_n1(net14)
        ref = DistributedStateEstimator(dec, ms, executor=None).run()
        with ScenarioService(
            dec, ms, executor="threads:2", max_batch=8, flush_latency=0.02
        ) as svc:
            futs = svc.submit_contingencies(cons[:5])
            fe = svc.submit_estimation()
            con_results = [f.result(timeout=60) for f in futs]
            est = fe.result(timeout=60)
        assert len(con_results) == 5
        assert all(r.batch_size >= 1 for r in con_results)
        assert np.array_equal(est.value.Vm, ref.Vm)
        assert np.array_equal(est.value.Va, ref.Va)

    def test_values_only_frame(self, dse14):
        dec, ms = dse14
        rng = np.random.default_rng(9)
        z = ms.z + 0.01 * ms.sigma * rng.standard_normal(len(ms))
        ref = DistributedStateEstimator(
            dec, ms.with_values(z), warm_start=False
        ).run()
        with ScenarioService(dec, ms, max_batch=4) as svc:
            got = svc.submit_estimation(z=z).result(timeout=60)
        assert np.allclose(got.value.Vm, ref.Vm, atol=1e-10)
        assert np.allclose(got.value.Va, ref.Va, atol=1e-10)

    def test_run_preserves_request_order(self, dse14, net14):
        dec, ms = dse14
        cons, _ = enumerate_n1(net14)
        reqs = [
            ContingencyRequest(cons[0]),
            EstimationRequest(),
            ContingencyRequest(cons[1]),
        ]
        with ScenarioService(dec, ms, max_batch=8) as svc:
            out = svc.run(reqs)
        assert [r.request for r in out] == reqs

    def test_stream_and_stats(self, dse14, net14):
        dec, ms = dse14
        cons, _ = enumerate_n1(net14)
        with ScenarioService(
            dec, ms, max_batch=4, flush_latency=0.02
        ) as svc:
            got = list(svc.stream([ContingencyRequest(c) for c in cons[:6]]))
            assert len(got) == 6
            assert svc.stats.n_requests == 6
            assert svc.stats.n_batches >= 2  # 6 requests, batches capped at 4
            assert 1.0 <= svc.stats.mean_batch_size <= 4.0
            assert svc.stats.latency_percentile(50) >= 0.0

    def test_close_idempotent_and_rejects_submits(self, dse14):
        dec, ms = dse14
        svc = ScenarioService(dec, ms, max_batch=2)
        svc.submit_estimation().result(timeout=60)
        svc.close()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit_estimation()
        assert _no_leaked_workers()

    def test_rejects_bad_options(self, dse14):
        dec, ms = dse14
        with pytest.raises(ValueError, match="max_batch"):
            ScenarioService(dec, ms, max_batch=0)
        with pytest.raises(ValueError, match="flush_latency"):
            ScenarioService(dec, ms, flush_latency=-1.0)
        with ScenarioService(dec, ms) as svc:
            with pytest.raises(TypeError, match="EstimationRequest"):
                svc.submit("not a request")

    def test_shared_executor_not_shut_down(self, dse14):
        dec, ms = dse14
        pool = ThreadPoolBackend(2)
        with ScenarioService(dec, ms, executor=pool) as svc:
            svc.submit_estimation().result(timeout=60)
        # service close must not tear down a caller-owned pool
        assert pool.map(_square, [4]) == [16]
        pool.shutdown()

    def test_session_wiring(self, net14, pf14):
        """DseSession.scenario_service shares the session's executor."""
        from repro.core import ArchitecturePrototype, DseSession
        from repro.measurements import full_placement as fp

        arch = ArchitecturePrototype.assemble(net14, m_subsystems=2, seed=0)
        session = DseSession(arch, executor="threads:2")
        rng = np.random.default_rng(1)
        plac = fp(net14).merged_with(dse_pmu_placement(arch.dec))
        ms = generate_measurements(net14, plac, pf14, rng=rng)
        with session.scenario_service(ms, max_batch=4) as svc:
            assert svc.executor is session.executor
            res = svc.submit_estimation().result(timeout=60)
            assert res.value.Vm.shape == (net14.n_bus,)
        # the session keeps its pool after the service closes
        assert session.executor.map(_square, [3]) == [9]
        session.executor.shutdown()
