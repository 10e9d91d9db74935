"""Parity tests for the hot-path caches.

The cached fast paths (precomputed Jacobian structure, stateful gain
solver, reused DSE subproblems, warm starts) are
optimisations only: every one of them must reproduce the uncached
reference computation, bitwise where the schedule is identical and to
well below 1e-10 where only the iteration trajectory changes.
"""

import numpy as np
import pytest

from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.estimation import GainSolver, WlsEstimator, solve_normal_equations
from repro.measurements import (
    MeasurementModel,
    full_placement,
    generate_measurements,
    pmu_placement,
)
from repro.parallel import ProcessPoolBackend, SerialExecutor, make_executor


@pytest.fixture(scope="module")
def ms14(net14, pf14):
    rng = np.random.default_rng(7)
    plac = full_placement(net14).merged_with(pmu_placement(net14))
    return generate_measurements(net14, plac, pf14, rng=rng)


@pytest.fixture(scope="module")
def ms118(net118, pf118):
    rng = np.random.default_rng(7)
    return generate_measurements(net118, full_placement(net118), pf118, rng=rng)


@pytest.fixture(scope="module")
def dse118(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    return dec, ms


class TestJacobianStructureParity:
    """Cached (pattern-reusing) Jacobian vs the from-scratch build."""

    @pytest.mark.parametrize("case", ["net14", "net118"])
    def test_full_jacobian_identical(self, case, request):
        net = request.getfixturevalue(case)
        pf = request.getfixturevalue("pf" + case[3:])
        rng = np.random.default_rng(11)
        plac = full_placement(net).merged_with(pmu_placement(net))
        ms = generate_measurements(net, plac, pf, rng=rng)
        model = MeasurementModel(net, ms)
        keep = np.ones(2 * net.n_bus, dtype=bool)

        for Vm, Va in [
            (np.ones(net.n_bus), np.zeros(net.n_bus)),
            (pf.Vm, pf.Va),
        ]:
            ref = model.jacobian(Vm, Va).tocsc()[:, keep]
            fast = model.jacobian_reduced(Vm, Va, keep)
            assert fast.shape == ref.shape
            d = (fast - ref).tocoo()
            assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-13

    def test_reduced_columns_identical(self, net14, pf14, ms14):
        model = MeasurementModel(net14, ms14)
        keep = np.ones(2 * net14.n_bus, dtype=bool)
        keep[net14.slack_buses[0]] = False  # drop the slack angle column
        ref = model.jacobian(pf14.Vm, pf14.Va).tocsc()[:, keep]
        fast = model.jacobian_reduced(pf14.Vm, pf14.Va, keep)
        assert fast.shape == ref.shape
        d = (fast - ref).tocoo()
        assert d.nnz == 0 or float(np.abs(d.data).max()) < 1e-13

    def test_structure_is_cached(self, net14, pf14, ms14):
        model = MeasurementModel(net14, ms14)
        keep = np.ones(2 * net14.n_bus, dtype=bool)
        s1 = model.jacobian_structure(keep)
        s2 = model.jacobian_structure(keep.copy())
        assert s1 is s2


class TestGainSolverParity:
    """Stateful solver (reused ordering) vs one-shot solves, per iteration."""

    def test_lu_refactor_matches_oneshot(self, net14, pf14, ms14):
        model = MeasurementModel(net14, ms14)
        w = ms14.weights
        keep = np.ones(2 * net14.n_bus, dtype=bool)
        solver = GainSolver()
        Vm, Va = np.ones(net14.n_bus), np.zeros(net14.n_bus)
        for _ in range(3):
            H = model.jacobian_reduced(Vm, Va, keep)
            r = ms14.z - model.h(Vm, Va)
            dx = solver.solve(H, w, r)
            ref = solve_normal_equations(H, w, r)
            assert float(np.abs(dx - ref).max()) < 1e-10
            Va = Va + dx[: net14.n_bus]
            Vm = Vm + dx[net14.n_bus :]

    def test_estimator_cache_toggle(self, net118, ms118):
        """The estimator (cached pattern, fill plan, kernel) against the
        uncached reference: Gauss-Newton spelled out with the model's
        one-shot sparse Jacobian and a one-shot normal-equation solve."""
        hot = WlsEstimator(net118, ms118).estimate()
        model = MeasurementModel(net118, ms118)
        n = net118.n_bus
        keep = np.delete(np.arange(2 * n), int(net118.slack_buses[0]))
        Vm, Va = np.ones(n), np.zeros(n)
        for iterations in range(1, 26):
            H = model.jacobian(Vm, Va).tocsc()[:, keep]
            dx = np.zeros(2 * n)
            dx[keep] = solve_normal_equations(
                H, ms118.weights, ms118.z - model.h(Vm, Va)
            )
            Va, Vm = Va + dx[:n], Vm + dx[n:]
            if np.abs(dx).max() < 1e-8:
                break
        assert hot.iterations == iterations
        assert float(np.abs(hot.Vm - Vm).max()) < 1e-10
        assert float(np.abs(hot.Va - Va).max()) < 1e-10
        # the estimator's tail ran on a held factor; the reference's did not
        assert hot.factorizations < hot.iterations

    def test_repeated_estimates_identical(self, net118, ms118):
        est = WlsEstimator(net118, ms118)
        a = est.estimate()
        b = est.estimate()  # second call reuses pattern + ordering caches
        assert np.array_equal(a.Vm, b.Vm)
        assert np.array_equal(a.Va, b.Va)


class TestDseParity:
    def test_cached_matches_seed_semantics(self, dse118):
        """Caches + warm starts vs the uncached cold-start reference."""
        dec, ms = dse118
        hot = DistributedStateEstimator(dec, ms).run()
        ref = DistributedStateEstimator(
            dec, ms, reuse_structures=False, warm_start=False
        ).run()
        assert float(np.abs(hot.Vm - ref.Vm).max()) < 1e-10
        assert float(np.abs(hot.Va - ref.Va).max()) < 1e-10

    def test_no_warm_start_tight_parity(self, dse118):
        """With warm starts off, the caches only change round-off.

        The cached fill sums duplicate entries in a different order than
        the from-scratch Jacobian build, so bit-equality is not attainable
        — but the drift must stay at machine precision.
        """
        dec, ms = dse118
        hot = DistributedStateEstimator(dec, ms, warm_start=False).run()
        ref = DistributedStateEstimator(
            dec, ms, reuse_structures=False, warm_start=False
        ).run()
        assert float(np.abs(hot.Vm - ref.Vm).max()) < 1e-12
        assert float(np.abs(hot.Va - ref.Va).max()) < 1e-12

    def test_empty_fault_plan_keeps_bitwise_parity(self, dse118):
        """With an injector installed but no rules firing, the DSE stays
        bit-identical — the off-by-default guarantee."""
        from repro import faults
        from repro.faults import FaultPlan

        dec, ms = dse118
        ref = DistributedStateEstimator(dec, ms).run()
        with faults.injection(FaultPlan(seed=99)) as inj:
            got = DistributedStateEstimator(dec, ms).run()
        assert inj.total_fired() == 0
        assert got.degraded_subsystems == []
        assert np.array_equal(got.Vm, ref.Vm)
        assert np.array_equal(got.Va, ref.Va)

    def test_live_fastpath_values_only_frames_bitwise(self, dse118):
        """Repeated values-only frames over the live fast-path fabric stay
        bit-identical to the in-process DSE's warm ``run(z=)`` path."""
        from repro.core import LiveDseRuntime

        dec, ms = dse118
        rng = np.random.default_rng(42)
        dse = DistributedStateEstimator(dec, ms)
        live = LiveDseRuntime(dec, ms)
        for _ in range(2):
            z = ms.z + rng.normal(0.0, 1e-4, size=len(ms.z))
            ref = dse.run(z=z)
            got = live.run(z=z)
            assert got.errors == []
            assert np.array_equal(got.Vm, ref.Vm)
            assert np.array_equal(got.Va, ref.Va)


class TestExecutor:
    def test_make_executor_specs(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("processes:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.n_workers == 3
        assert make_executor(pool) is pool
        pool.shutdown()
        for bad in ("gpu", 3, "threads:3"):
            with pytest.raises(ValueError):
                make_executor(bad)

    def test_map_order_and_workers(self):
        with ProcessPoolBackend(2) as pool:
            out, pids = pool.map_with_pids(abs, range(-10, 10))
        assert out == [abs(i) for i in range(-10, 10)]
        assert 1 <= len(set(pids)) <= 2

    def test_map_propagates_exceptions(self):
        def boom(i):
            if i == 3:
                raise RuntimeError("task failed")
            return i

        with SerialExecutor() as pool:
            with pytest.raises(RuntimeError, match="task failed"):
                pool.map(boom, range(5))
