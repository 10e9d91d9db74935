"""Tests for bad-data detection and observability analysis."""

import numpy as np

from repro.estimation import (
    WlsEstimator,
    chi_square_test,
    estimate_state,
    identify_bad_data,
    is_observable,
    normalized_residuals,
    observable_islands,
)
from repro.measurements import (
    MeasType,
    Measurement,
    MeasurementSet,
    full_placement,
    generate_measurements,
    inject_bad_data,
    scada_placement,
)


class TestChiSquare:
    def test_clean_data_passes(self, net118, pf118):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        res = estimate_state(net118, ms)
        assert chi_square_test(res)

    def test_gross_error_detected(self, net118, pf118):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        bad = inject_bad_data(ms, np.array([50]), magnitude_sigmas=30, rng=rng)
        res = estimate_state(net118, bad)
        assert not chi_square_test(res)

    def test_zero_dof_always_passes(self, net14, pf14):
        # Build a barely-determined set (m == n_states) -> dof == 0.
        rng = np.random.default_rng(1)
        plac = full_placement(net14)
        ms = generate_measurements(net14, plac, pf14, rng=rng)
        est = WlsEstimator(net14, ms)
        res = est.estimate()
        res.dof = 0
        assert chi_square_test(res)


class TestNormalizedResiduals:
    def test_bad_row_has_largest_nr(self, net118, pf118):
        rng = np.random.default_rng(3)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        bad_row = 123
        bad = inject_bad_data(ms, np.array([bad_row]), magnitude_sigmas=30, rng=rng)
        est = WlsEstimator(net118, bad)
        res = est.estimate()
        rn = normalized_residuals(est, res)
        assert int(np.argmax(rn)) == bad_row

    def test_clean_nrs_mostly_below_3(self, net118, pf118):
        rng = np.random.default_rng(4)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        est = WlsEstimator(net118, ms)
        res = est.estimate()
        rn = normalized_residuals(est, res)
        assert np.mean(rn < 3.0) > 0.99


class TestIdentification:
    def test_removes_injected_rows(self, net118, pf118):
        rng = np.random.default_rng(5)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        rows = np.array([10, 200])
        bad = inject_bad_data(ms, rows, magnitude_sigmas=25, rng=rng)
        report = identify_bad_data(net118, bad)
        assert report.passes_chi_square
        assert set(report.removed_rows) == set(rows.tolist())

    def test_clean_data_removes_nothing(self, net14, pf14):
        rng = np.random.default_rng(6)
        ms = generate_measurements(net14, full_placement(net14), pf14, rng=rng)
        report = identify_bad_data(net14, ms)
        assert report.removed_rows == []
        assert report.passes_chi_square

    def test_estimate_improves_after_removal(self, net118, pf118):
        rng = np.random.default_rng(7)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        bad = inject_bad_data(ms, np.array([77]), magnitude_sigmas=30, rng=rng)
        before = estimate_state(net118, bad).state_error(pf118.Vm, pf118.Va)
        report = identify_bad_data(net118, bad)
        after = report.result.state_error(pf118.Vm, pf118.Va)
        assert after["vm_rmse"] <= before["vm_rmse"]


class TestObservability:
    def test_full_placement_observable(self, net118):
        assert is_observable(net118, full_placement(net118))

    def test_scada_placement_observable(self, net118):
        assert is_observable(net118, scada_placement(net118))

    def test_vmag_only_unobservable(self, net14):
        ms = MeasurementSet(
            [Measurement(MeasType.V_MAG, b, 1.0, 0.01) for b in range(14)]
        )
        assert not is_observable(net14, ms)

    def test_single_island_when_observable(self, net14):
        islands = observable_islands(net14, full_placement(net14))
        assert len(islands) == 1

    def test_islands_split_without_boundary_flows(self, net4):
        # Measure flows only on branch 0 (buses 1-2): buses {0,1} form one
        # island, buses 2 and 3 are separate.
        ms = MeasurementSet(
            [
                Measurement(MeasType.P_FLOW_F, 0, 0.0, 0.01),
                Measurement(MeasType.Q_FLOW_F, 0, 0.0, 0.01),
                Measurement(MeasType.V_MAG, 0, 1.0, 0.01),
            ]
        )
        islands = observable_islands(net4, ms)
        assert sorted(len(i) for i in islands) == [1, 1, 2]

    def test_islands_cover_all_buses(self, net14):
        ms = MeasurementSet(
            [
                Measurement(MeasType.P_FLOW_F, 0, 0.0, 0.01),
                Measurement(MeasType.P_FLOW_F, 5, 0.0, 0.01),
            ]
        )
        islands = observable_islands(net14, ms)
        assert sorted(np.concatenate(islands).tolist()) == list(range(14))
