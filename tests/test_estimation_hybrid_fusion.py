"""Tests for hybrid SCADA+PMU estimation."""

import numpy as np
import pytest

from repro.estimation import EstimationError, estimate_state, hybrid_estimate
from repro.measurements import (
    MeasurementSet,
    Measurement,
    MeasType,
    generate_measurements,
    greedy_pmu_sites,
    pmu_placement,
    scada_placement,
)


@pytest.fixture(scope="module")
def hybrid_setup(net118, pf118):
    rng = np.random.default_rng(0)
    scada = generate_measurements(net118, scada_placement(net118), pf118, rng=rng)
    sites = greedy_pmu_sites(net118)
    pmu = generate_measurements(net118, pmu_placement(net118, sites), pf118, rng=rng)
    return scada, pmu, sites


class TestHybridEstimate:
    def test_absolute_angles_recovered(self, hybrid_setup, net118, pf118):
        """SCADA-only angles have an arbitrary reference; the hybrid fuses
        synchronized phasors and recovers the absolute angles."""
        scada, pmu, _ = hybrid_setup
        hyb = hybrid_estimate(net118, scada, pmu)
        assert np.abs(hyb.Va - pf118.Va).max() < 0.01  # rad, no ref shift

    def test_pmu_buses_tightened(self, hybrid_setup, net118, pf118):
        scada, pmu, sites = hybrid_setup
        base = estimate_state(net118, scada)
        hyb = hybrid_estimate(net118, scada, pmu)
        err_base = np.abs(base.Vm[sites] - pf118.Vm[sites]).mean()
        err_hyb = np.abs(hyb.Vm[sites] - pf118.Vm[sites]).mean()
        assert err_hyb < err_base

    def test_overall_not_worse(self, hybrid_setup, net118, pf118):
        scada, pmu, _ = hybrid_setup
        base = estimate_state(net118, scada).state_error(pf118.Vm, pf118.Va)
        hyb = hybrid_estimate(net118, scada, pmu).state_error(pf118.Vm, pf118.Va)
        assert hyb["vm_rmse"] <= base["vm_rmse"] * 1.02

    def test_requires_phasor_channels(self, hybrid_setup, net118):
        scada, _, _ = hybrid_setup
        flows_only = MeasurementSet(
            [Measurement(MeasType.I_MAG_F, 0, 1.0, 0.01)]
        )
        with pytest.raises(EstimationError, match="PMU_VA"):
            hybrid_estimate(net118, scada, flows_only)
