"""Tests for the tracking (forecasting-aided) estimator."""

import numpy as np
import pytest

from repro.estimation import TrackingEstimator, WlsEstimator, estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, case118
from repro.measurements import (
    ScadaSystem,
    full_placement,
    generate_measurements,
    scada_placement,
)


class TestTrackingEstimator:
    def test_warm_start_cuts_iterations(self, net118):
        scada = ScadaSystem(net118, full_placement(net118), seed=0)
        tracker = TrackingEstimator(net118)
        frames = scada.frames(4)
        warm = []
        cold = []
        for f in frames:
            warm.append(tracker.step(f.mset).result.iterations)
            cold.append(estimate_state(net118, f.mset).iterations)
        # after the cold first scan, tracking needs fewer iterations
        assert all(w <= c for w, c in zip(warm[1:], cold[1:]))
        assert sum(warm[1:]) < sum(cold[1:])

    def test_innovation_tracks_noise_level(self, net14, pf14):
        tracker = TrackingEstimator(net14)
        plac = full_placement(net14)
        rng = np.random.default_rng(0)
        # warm up at the true state
        tracker.step(generate_measurements(net14, plac, pf14, rng=rng))
        lo = tracker.step(
            generate_measurements(net14, plac, pf14, noise_level=0.5, rng=rng)
        )
        hi = tracker.step(
            generate_measurements(net14, plac, pf14, noise_level=4.0, rng=rng)
        )
        assert hi.innovation_rms > lo.innovation_rms

    def test_anomaly_on_sudden_load_jump(self, net118):
        """A big operating-point change flags an anomaly; noise does not."""
        plac = full_placement(net118)
        rng = np.random.default_rng(1)
        pf0 = run_ac_power_flow(net118)
        tracker = TrackingEstimator(net118, anomaly_threshold=5.0)
        for _ in range(3):
            f = tracker.step(generate_measurements(net118, plac, pf0, rng=rng))
            assert not f.anomaly

        jumped = net118.copy()
        jumped.Pd = net118.Pd * 1.4
        jumped.Qd = net118.Qd * 1.4
        pf1 = run_ac_power_flow(jumped)
        f = tracker.step(generate_measurements(jumped, plac, pf1, rng=rng))
        assert f.anomaly

    def test_recovers_after_anomaly(self, net118):
        """The tracker re-anchors after an event and resumes clean tracking."""
        plac = full_placement(net118)
        rng = np.random.default_rng(2)
        pf0 = run_ac_power_flow(net118)
        jumped = net118.copy()
        jumped.Pd = net118.Pd * 1.4
        jumped.Qd = net118.Qd * 1.4
        pf1 = run_ac_power_flow(jumped)

        tracker = TrackingEstimator(net118)
        tracker.step(generate_measurements(net118, plac, pf0, rng=rng))
        tracker.step(generate_measurements(net118, plac, pf0, rng=rng))
        tracker.step(generate_measurements(jumped, plac, pf1, rng=rng))  # event
        after = tracker.step(generate_measurements(jumped, plac, pf1, rng=rng))
        assert not after.anomaly

    def test_prediction_close_on_steady_state(self, net14, pf14):
        plac = full_placement(net14)
        rng = np.random.default_rng(3)
        tracker = TrackingEstimator(net14)
        for _ in range(4):
            tracker.step(generate_measurements(net14, plac, pf14, rng=rng))
        vm_pred, va_pred = tracker.predict()
        assert np.abs(vm_pred - pf14.Vm).max() < 5e-3

    def test_reset_forgets(self, net14, pf14):
        plac = full_placement(net14)
        rng = np.random.default_rng(4)
        tracker = TrackingEstimator(net14)
        tracker.step(generate_measurements(net14, plac, pf14, rng=rng))
        tracker.reset()
        vm_pred, _ = tracker.predict()
        assert np.all(vm_pred == 1.0)
        assert tracker.frames == []

    def test_one_estimator_per_placement(self, net14, pf14, monkeypatch):
        """Same-placement scans are served values-only by one kept
        estimator, bit for bit what a rebuild per scan gives; a placement
        change rebuilds and ``reset()`` forgets."""
        built = []
        init = WlsEstimator.__init__
        monkeypatch.setattr(
            WlsEstimator, "__init__",
            lambda self, *a, **kw: (built.append(self), init(self, *a, **kw))[1],
        )
        rng = np.random.default_rng(9)
        scans = [
            generate_measurements(net14, full_placement(net14), pf14, rng=rng)
            for _ in range(4)
        ]
        kept, rebuilt = TrackingEstimator(net14), TrackingEstimator(net14)
        for ms in scans:
            a = kept.step(ms)
            rebuilt._est = None
            b = rebuilt.step(ms)
            assert np.array_equal(a.result.Vm, b.result.Vm)
            assert np.array_equal(a.result.Va, b.result.Va)
            assert a.result.iterations == b.result.iterations
            assert a.innovation_rms == b.innovation_rms
        assert len(built) == 1 + len(scans)
        other = generate_measurements(net14, scada_placement(net14), pf14, rng=rng)
        first = kept._est
        kept.step(other)
        assert kept._est is not first and kept._est.mset.same_structure(other)
        kept.reset()
        assert kept._est is None

    def test_parameter_validation(self, net14):
        with pytest.raises(ValueError):
            TrackingEstimator(net14, alpha=0.0)
        with pytest.raises(ValueError):
            TrackingEstimator(net14, beta=1.5)
