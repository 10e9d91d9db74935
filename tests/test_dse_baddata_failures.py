"""Tests for distributed bad-data detection and telemetry failure injection."""

import numpy as np
import pytest

from repro.dse import (
    DistributedStateEstimator,
    decompose,
    distributed_bad_data,
    dse_pmu_placement,
)
from repro.estimation import EstimationError, estimate_state, is_observable
from repro.grid import run_ac_power_flow
from repro.measurements import (
    MeasType,
    drop_region,
    drop_rtu,
    full_placement,
    generate_measurements,
    inject_bad_data,
    random_rtu_dropout,
)


@pytest.fixture(scope="module")
def bd_setup(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    return dec, ms


def _internal_vmag_row(dec, ms, s):
    """A V_MAG row metered strictly inside subsystem ``s``."""
    own = set(dec.buses(s).tolist()) - set(dec.boundary_buses(s).tolist())
    for row, m in enumerate(ms):
        if m.mtype == MeasType.V_MAG and m.element in own:
            return row
    raise AssertionError("no internal V_MAG found")


class TestDistributedBadData:
    def test_clean_telemetry_all_pass(self, bd_setup):
        dec, ms = bd_setup
        report = distributed_bad_data(DistributedStateEstimator(dec, ms))
        assert report.suspect_subsystems == []
        assert report.removed_global_rows == []
        assert report.clean_after_identification

    def test_locality_of_detection(self, bd_setup):
        """A gross error inside one subsystem flags only that subsystem."""
        dec, ms = bd_setup
        rng = np.random.default_rng(1)
        row = _internal_vmag_row(dec, ms, 4)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        report = distributed_bad_data(DistributedStateEstimator(dec, bad))
        assert report.suspect_subsystems == [4]

    def test_identified_row_is_the_injected_one(self, bd_setup):
        dec, ms = bd_setup
        rng = np.random.default_rng(2)
        row = _internal_vmag_row(dec, ms, 2)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        report = distributed_bad_data(DistributedStateEstimator(dec, bad))
        assert report.removed_global_rows == [row]
        assert report.clean_after_identification

    def test_cleaned_set_estimates_well(self, bd_setup, pf118, net118):
        dec, ms = bd_setup
        rng = np.random.default_rng(3)
        rows = [_internal_vmag_row(dec, ms, s) for s in (1, 6)]
        bad = inject_bad_data(ms, np.array(rows), magnitude_sigmas=30, rng=rng)
        report = distributed_bad_data(DistributedStateEstimator(dec, bad))
        keep = np.ones(len(bad), dtype=bool)
        keep[report.removed_global_rows] = False
        clean = bad.subset(keep)
        res = estimate_state(net118, clean)
        assert res.state_error(pf118.Vm, pf118.Va)["vm_rmse"] < 1e-3

    def test_multiple_subsystems_flagged(self, bd_setup):
        dec, ms = bd_setup
        rng = np.random.default_rng(4)
        rows = [_internal_vmag_row(dec, ms, s) for s in (1, 6)]
        bad = inject_bad_data(ms, np.array(rows), magnitude_sigmas=30, rng=rng)
        report = distributed_bad_data(DistributedStateEstimator(dec, bad))
        assert report.suspect_subsystems == [1, 6]

    def test_detect_only_mode(self, bd_setup):
        dec, ms = bd_setup
        rng = np.random.default_rng(5)
        row = _internal_vmag_row(dec, ms, 3)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        report = distributed_bad_data(
            DistributedStateEstimator(dec, bad), identify=False
        )
        assert report.suspect_subsystems == [3]
        assert report.removed_global_rows == []


    def test_values_only_frame_and_degraded_step1(self, bd_setup):
        """The screen takes a values-only frame over the estimator's set —
        same report as an estimator built on that frame — and a subsystem
        whose Step 1 failed (degraded) has no estimate to test: typed."""
        dec, ms = bd_setup
        rng = np.random.default_rng(6)
        row = _internal_vmag_row(dec, ms, 5)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        dse = DistributedStateEstimator(dec, ms, degrade_on_failure=True)
        report = distributed_bad_data(dse, bad.z)
        fresh = distributed_bad_data(DistributedStateEstimator(dec, bad))
        assert report.removed_global_rows == fresh.removed_global_rows == [row]
        assert report.subsystems[5].removed_local_rows == (
            fresh.subsystems[5].removed_local_rows
        )
        with pytest.raises(ValueError, match="length"):
            distributed_bad_data(dse, bad.z[:-1])
        nan_z = ms.z.copy()
        nan_z[row] = np.nan
        with pytest.raises(EstimationError):
            distributed_bad_data(dse, nan_z)


class TestFailureInjection:
    def test_drop_rtu_removes_all_bus_channels(self, net118, pf118):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        sub, rows = drop_rtu(net118, ms, [7])
        for m in sub:
            if m.mtype.is_bus:
                assert m.element != 7
            elif m.mtype in (MeasType.P_FLOW_F, MeasType.Q_FLOW_F, MeasType.I_MAG_F):
                assert net118.f[m.element] != 7
            else:
                assert net118.t[m.element] != 7
        assert len(sub) + len(rows) == len(ms)

    def test_estimation_survives_single_rtu_loss(self, net118, pf118):
        """Redundancy covers one lost RTU: estimate stays within accuracy."""
        rng = np.random.default_rng(1)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        sub, _ = drop_rtu(net118, ms, [42])
        assert is_observable(net118, sub)
        res = estimate_state(net118, sub)
        assert res.state_error(pf118.Vm, pf118.Va)["vm_rmse"] < 2e-3

    def test_drop_region_whole_subsystem(self, net118, pf118, bd_setup):
        """Losing a whole region's telemetry leaves it unobservable —
        exactly why DSE exchanges boundary data."""
        dec, _ = bd_setup
        rng = np.random.default_rng(2)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        sub, rows = drop_region(net118, ms, dec.buses(0))
        assert len(rows) > 0
        assert not is_observable(net118, sub)

    def test_drop_region_dse_degrades_instead_of_crashing(
        self, bd_setup, net118
    ):
        """Losing the telemetry of subsystem 0's internal buses makes its
        local Step-1 problem unobservable; with ``degrade_on_failure`` the
        distributed run completes with that subsystem flagged instead of
        aborting the whole frame."""
        dec, ms = bd_setup
        internal = np.setdiff1d(dec.buses(0), dec.boundary_buses(0))
        sub, rows = drop_region(net118, ms, internal)
        assert len(rows) > 0
        dse = DistributedStateEstimator(
            dec, sub, auto_anchor=False, degrade_on_failure=True
        )
        res = dse.run()
        assert 0 in res.degraded_subsystems
        assert res.records[0].failures
        # degraded sites fall back to prior state: everything stays finite
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))

    def test_drop_region_dse_raises_without_degrade_flag(
        self, bd_setup, net118
    ):
        dec, ms = bd_setup
        internal = np.setdiff1d(dec.buses(0), dec.boundary_buses(0))
        sub, _ = drop_region(net118, ms, internal)
        dse = DistributedStateEstimator(dec, sub, auto_anchor=False)
        with pytest.raises(Exception):
            dse.run()

    def test_random_dropout_protect_list(self, net118, pf118):
        rng = np.random.default_rng(3)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        protect = np.arange(20)
        _, lost = random_rtu_dropout(
            net118, ms, probability=0.5, rng=rng, protect=protect
        )
        assert set(lost.tolist()).isdisjoint(set(protect.tolist()))

    def test_dropout_probability_zero(self, net118, pf118):
        rng = np.random.default_rng(4)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        surv, lost = random_rtu_dropout(net118, ms, probability=0.0, rng=rng)
        assert len(lost) == 0
        assert len(surv) == len(ms)

    def test_validation(self, net118, pf118):
        rng = np.random.default_rng(5)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        with pytest.raises(ValueError):
            drop_rtu(net118, ms, [9999])
        with pytest.raises(ValueError):
            random_rtu_dropout(net118, ms, probability=1.5)
