"""Tests for the WLS estimator core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import EstimationError, WlsEstimator, estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, synthetic_grid
from repro.measurements import (
    MeasType,
    Measurement,
    MeasurementSet,
    full_placement,
    generate_measurements,
    pmu_placement,
    scada_placement,
    true_values,
)


class TestExactRecovery:
    def test_zero_noise_recovers_state(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        res = estimate_state(net14, ms)
        assert res.converged
        assert np.allclose(res.Vm, pf14.Vm, atol=1e-10)
        assert np.allclose(res.Va, pf14.Va, atol=1e-10)

    def test_zero_noise_objective_zero(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        res = estimate_state(net14, ms)
        assert res.objective == pytest.approx(0.0, abs=1e-15)

    def test_reference_angle_respected(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        est = WlsEstimator(net14, ms)
        res = est.estimate(reference_angle=pf14.Va[net14.slack_buses[0]])
        assert np.allclose(res.Va, pf14.Va, atol=1e-10)


class TestNoisyEstimation:
    def test_error_scales_with_noise(self, net118, pf118):
        errs = []
        for lvl in (0.5, 2.0):
            rng = np.random.default_rng(11)
            ms = generate_measurements(
                net118, full_placement(net118), pf118, noise_level=lvl, rng=rng
            )
            res = estimate_state(net118, ms)
            errs.append(res.state_error(pf118.Vm, pf118.Va)["vm_rmse"])
        assert errs[1] > errs[0]
        assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.4)

    def test_estimate_beats_raw_measurements(self, net118, pf118):
        """Redundancy pays: the estimate is closer to truth than raw V meters."""
        rng = np.random.default_rng(5)
        plac = full_placement(net118)
        ms = generate_measurements(net118, plac, pf118, rng=rng)
        res = estimate_state(net118, ms)
        raw_vm = ms.z[ms.rows(MeasType.V_MAG)]
        raw_rmse = np.sqrt(np.mean((raw_vm - pf118.Vm) ** 2))
        assert res.state_error(pf118.Vm, pf118.Va)["vm_rmse"] < raw_rmse

    def test_scada_only_estimation(self, net118, pf118):
        rng = np.random.default_rng(2)
        ms = generate_measurements(
            net118, scada_placement(net118), pf118, rng=rng
        )
        res = estimate_state(net118, ms)
        assert res.converged
        err = res.state_error(pf118.Vm, pf118.Va)
        assert err["vm_rmse"] < 5e-3
        assert err["va_rmse"] < 5e-3

    def test_pmu_angles_fix_absolute_reference(self, net14, pf14):
        """With PMU angles, the estimate recovers absolute angles."""
        rng = np.random.default_rng(1)
        plac = full_placement(net14).merged_with(pmu_placement(net14))
        ms = generate_measurements(net14, plac, pf14, noise_level=0.0, rng=rng)
        est = WlsEstimator(net14, ms)
        assert est.has_pmu_angles
        assert est.n_states == 2 * 14  # no column dropped
        res = est.estimate()
        assert np.allclose(res.Va, pf14.Va, atol=1e-9)


class TestSolverEquivalence:
    @pytest.mark.parametrize("solver", ["lu", "pcg", "lsqr"])
    def test_all_solvers_agree(self, net14, pf14, solver):
        rng = np.random.default_rng(3)
        ms = generate_measurements(net14, full_placement(net14), pf14, rng=rng)
        res = estimate_state(net14, ms, solver=solver)
        ref = estimate_state(net14, ms, solver="lu")
        assert np.allclose(res.Vm, ref.Vm, atol=1e-7)
        assert np.allclose(res.Va, ref.Va, atol=1e-7)

    @pytest.mark.parametrize("prec", ["jacobi", "ichol"])
    def test_pcg_preconditioners(self, net118, pf118, prec):
        rng = np.random.default_rng(4)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        est = WlsEstimator(net118, ms, solver="pcg", pcg_preconditioner=prec)
        res = est.estimate()
        assert res.converged


class TestFailureModes:
    def test_underdetermined_raises(self, net14):
        ms = MeasurementSet([Measurement(MeasType.V_MAG, 0, 1.0, 0.01)])
        with pytest.raises(EstimationError, match="underdetermined"):
            estimate_state(net14, ms)

    def test_unobservable_raises(self, net14, pf14):
        # Plenty of measurements but only voltage magnitudes: angles
        # unobservable -> singular gain.
        ms = MeasurementSet(
            [Measurement(MeasType.V_MAG, b, 1.0, 0.01) for b in range(14)] * 2
        )
        with pytest.raises(EstimationError):
            estimate_state(net14, ms)

    def test_unknown_solver(self, net14, pf14, rng):
        ms = generate_measurements(net14, full_placement(net14), pf14, rng=rng)
        with pytest.raises(EstimationError, match="unknown method"):
            estimate_state(net14, ms, solver="qr-magic")


class TestConvergenceBehaviour:
    def test_step_norms_decrease(self, net118, pf118):
        rng = np.random.default_rng(6)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        res = estimate_state(net118, ms)
        # Gauss-Newton is locally quadratic: last step far smaller than first.
        assert res.step_norms[-1] < 1e-6 * res.step_norms[0]

    def test_dof_accounting(self, net14, pf14, rng):
        plac = full_placement(net14)
        ms = generate_measurements(net14, plac, pf14, rng=rng)
        res = estimate_state(net14, ms)
        assert res.dof == len(plac) - (2 * 14 - 1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_estimation_on_random_grids(self, seed):
        """Property: estimation on any synthetic grid converges and lands
        within measurement accuracy of the truth."""
        net = synthetic_grid(n_areas=3, buses_per_area=8, seed=seed)
        pf = run_ac_power_flow(net, flat_start=True)
        rng = np.random.default_rng(seed)
        ms = generate_measurements(net, full_placement(net), pf, rng=rng)
        res = estimate_state(net, ms)
        assert res.converged
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3


class TestStateError:
    def test_every_result_type_reports_the_same_four_numbers(self):
        """One ``state_error`` behind ``EstimationResult``, ``DseResult``,
        ``HierarchicalResult`` and ``LiveDseResult`` (which used to lack the
        two max-error keys)."""
        from repro.core.runtime import LiveDseResult
        from repro.dse import DseResult, HierarchicalResult
        from repro.estimation.results import EstimationResult, state_error

        rng = np.random.default_rng(4)
        Vm_true, Va_true = 1 + 0.05 * rng.standard_normal(9), rng.standard_normal(9)
        Vm, Va = Vm_true + 1e-3 * rng.standard_normal(9), Va_true + 1e-3 * rng.standard_normal(9)
        want = state_error(Vm, Va, Vm_true, Va_true)
        assert set(want) == {"vm_rmse", "va_rmse", "vm_max", "va_max"}
        assert want["vm_max"] == np.abs(Vm - Vm_true).max() >= want["vm_rmse"] > 0
        for res in (
            EstimationResult(True, 1, Vm, Va, np.zeros(0), 0.0, 0),
            DseResult(Vm, Va, 1, {}, []),
            HierarchicalResult(Vm, Va, np.zeros(1), {}, 0),
            LiveDseResult(Vm, Va, 1, 0.0, {}),
        ):
            assert res.state_error(Vm_true, Va_true) == want
        # a common reference shift is not an angle error
        assert state_error(Vm, Va_true + 0.3, Vm, Va_true)["va_max"] < 1e-12
