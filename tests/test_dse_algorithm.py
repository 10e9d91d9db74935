"""Tests for the DSE algorithm, pseudo measurements and hierarchical baseline."""

from functools import partial

import numpy as np
import pytest

from repro.dse import (
    DistributedStateEstimator,
    HierarchicalStateEstimator,
    assign_measurements,
    decompose,
    dse_pmu_placement,
    exchange_bus_sets,
    localize_measurements,
    pseudo_measurements,
    sensitive_internal_buses,
)
from repro.estimation import EstimationError, estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.measurements import (
    MeasType,
    MeasurementModel,
    full_placement,
    generate_measurements,
)


@pytest.fixture(scope="module")
def dse118():
    """Shared 118-bus DSE setup: decomposition + measurements + truth."""
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    return net, pf, dec, ms


class TestSensitivity:
    def test_sensitive_buses_are_internal(self, dse118):
        _, _, dec, _ = dse118
        for s in range(dec.m):
            sens = sensitive_internal_buses(dec, s)
            boundary = set(dec.boundary_buses(s).tolist())
            assert set(sens.tolist()).isdisjoint(boundary)
            assert np.all(dec.part[sens] == s)

    def test_threshold_monotone(self, dse118):
        _, _, dec, _ = dse118
        lo = sum(len(sensitive_internal_buses(dec, s, threshold=0.2)) for s in range(9))
        hi = sum(len(sensitive_internal_buses(dec, s, threshold=0.9)) for s in range(9))
        assert hi <= lo

    def test_exchange_sets_include_boundary(self, dse118):
        _, _, dec, _ = dse118
        sets = exchange_bus_sets(dec)
        for s in range(dec.m):
            assert set(dec.boundary_buses(s).tolist()) <= set(sets[s].tolist())


class TestAssignment:
    def test_every_row_assigned_at_most_once(self, dse118):
        _, _, dec, ms = dse118
        asg = assign_measurements(dec, ms)
        seen: set[int] = set()
        for s in range(dec.m):
            rows = set(asg.step1[s].tolist()) | set(asg.step2_extra[s].tolist())
            assert seen.isdisjoint(rows)
            seen |= rows
        assert seen == set(range(len(ms)))

    def test_step1_rows_are_internal(self, dse118):
        net, _, dec, ms = dse118
        asg = assign_measurements(dec, ms)
        ties = set(dec.tie_lines.tolist())
        for s in range(dec.m):
            boundary = set(dec.boundary_buses(s).tolist())
            for row in asg.step1[s]:
                m = ms[int(row)]
                if m.mtype in (MeasType.P_INJ, MeasType.Q_INJ):
                    assert m.element not in boundary
                if m.mtype.is_branch:
                    assert m.element not in ties

    def test_step2_extras_touch_boundary(self, dse118):
        net, _, dec, ms = dse118
        asg = assign_measurements(dec, ms)
        ties = set(dec.tie_lines.tolist())
        for s in range(dec.m):
            boundary = set(dec.boundary_buses(s).tolist())
            for row in asg.step2_extra[s]:
                m = ms[int(row)]
                if m.mtype.is_bus:
                    assert m.element in boundary
                else:
                    assert m.element in ties

    def test_localize_roundtrip(self, dse118):
        net, _, dec, ms = dse118
        asg = assign_measurements(dec, ms)
        from repro.dse import extract_subnetwork

        s = 0
        sub, bmap, brmap = extract_subnetwork(
            net, dec.buses(s), dec.internal_branches(s)
        )
        local = localize_measurements(ms, asg.step1[s], bmap, brmap)
        assert len(local) == len(asg.step1[s])
        # values survive the re-indexing
        zs = sorted(local.z.tolist())
        zg = sorted(ms.z[asg.step1[s]].tolist())
        assert np.allclose(zs, zg)

    def test_localize_rejects_foreign_rows(self, dse118):
        net, _, dec, ms = dse118
        asg = assign_measurements(dec, ms)
        from repro.dse import extract_subnetwork

        sub, bmap, brmap = extract_subnetwork(
            net, dec.buses(0), dec.internal_branches(0)
        )
        with pytest.raises(ValueError):
            localize_measurements(ms, asg.step1[1], bmap, brmap)


class TestPseudoMeasurements:
    def test_pairs_per_bus(self):
        ms = pseudo_measurements(
            np.array([2, 5]), np.array([1.0, 1.01]), np.array([0.1, 0.2])
        )
        assert ms.count(MeasType.V_MAG) == 2
        assert ms.count(MeasType.PMU_VA) == 2

    def test_values_aligned(self):
        ms = pseudo_measurements(np.array([3]), np.array([1.05]), np.array([-0.3]))
        assert ms.z[ms.rows(MeasType.V_MAG)[0]] == 1.05
        assert ms.z[ms.rows(MeasType.PMU_VA)[0]] == -0.3


class TestDsePmuPlacement:
    def test_one_anchor_per_subsystem(self, dse118):
        _, _, dec, _ = dse118
        plac = dse_pmu_placement(dec)
        anchored = {int(dec.part[m.element]) for m in plac
                    if m.mtype == MeasType.PMU_VA}
        assert anchored == set(range(dec.m))


class TestDistributedStateEstimation:
    def test_close_to_centralized(self, dse118):
        net, pf, dec, ms = dse118
        cen = estimate_state(net, ms)
        dse = DistributedStateEstimator(dec, ms).run()
        dva = dse.Va - cen.Va
        dva -= dva.mean()
        assert np.abs(dse.Vm - cen.Vm).max() < 5e-3
        assert np.abs(dva).max() < 5e-3

    def test_error_within_measurement_accuracy(self, dse118):
        net, pf, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms).run()
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 3e-3
        assert err["va_rmse"] < 3e-3

    def test_round_deltas_decrease(self, dse118):
        _, _, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms).run(rounds=3)
        assert res.round_deltas[-1] < res.round_deltas[0]

    def test_default_rounds_is_diameter(self, dse118):
        _, _, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms).run()
        assert res.rounds == max(1, dec.diameter())

    def test_step2_improves_on_step1(self, dse118):
        """Step 2 re-evaluation reduces boundary-bus error vs Step 1 alone."""
        net, pf, dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        res = dse.run()
        boundary = np.unique(
            np.concatenate([dec.boundary_buses(s) for s in range(dec.m)])
        )
        # Reconstruct the Step-1-only state.
        vm1 = np.ones(net.n_bus)
        va1 = np.zeros(net.n_bus)
        for s, rec in res.records.items():
            own = dec.buses(s)
            vm1[own] = rec.step1_result.Vm
            va1[own] = rec.step1_result.Va
        err1 = np.abs(vm1[boundary] - pf.Vm[boundary]).mean()
        err2 = np.abs(res.Vm[boundary] - pf.Vm[boundary]).mean()
        assert err2 <= err1

    def test_records_complete(self, dse118):
        _, _, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms).run(rounds=2)
        assert set(res.records) == set(range(dec.m))
        for rec in res.records.values():
            assert rec.step1_result is not None
            assert len(rec.step2_results) == 2
            assert len(rec.bytes_sent_per_round) == 2
            assert rec.exchange_size >= rec.n_boundary

    def test_bytes_exchanged_positive(self, dse118):
        _, _, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms).run()
        assert res.total_bytes_exchanged > 0

    def test_update_scope_all(self, dse118):
        net, pf, dec, ms = dse118
        res = DistributedStateEstimator(dec, ms, update_scope="all").run()
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 3e-3

    def test_invalid_scope(self, dse118):
        _, _, dec, ms = dse118
        with pytest.raises(ValueError):
            DistributedStateEstimator(dec, ms, update_scope="bogus")

    def test_missing_anchor_detected(self, dse118):
        net, pf, dec, _ = dse118
        rng = np.random.default_rng(1)
        no_pmu = generate_measurements(net, full_placement(net), pf, rng=rng)
        with pytest.raises(ValueError, match="synchronized"):
            DistributedStateEstimator(dec, no_pmu)

    def test_works_on_synthetic_grid(self):
        net = synthetic_grid(n_areas=4, buses_per_area=12, seed=2)
        pf = run_ac_power_flow(net, flat_start=True)
        dec = decompose(net, 4, seed=0)
        rng = np.random.default_rng(3)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        res = DistributedStateEstimator(dec, ms).run()
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3


class TestRunArguments:
    BAD = [
        dict(rounds=-1), dict(rounds=1.0), dict(rounds=True),
        dict(tol=float("inf")), dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
    ]

    @pytest.mark.parametrize("entry", ["dse", "live", "session"])
    def test_out_of_range_rounds_and_tol_are_refused(self, dse118, entry):
        """A negative ``rounds`` ran a Step-1-only frame reported as such;
        an infinite ``tol`` stopped after one step marked converged, and
        zero, negative or NaN ran out every iteration.  Each entry point
        refuses them before the frame touches anything."""
        from repro.core import ArchitecturePrototype, DseSession
        from repro.core.runtime import LiveDseRuntime

        net, _, dec, ms = dse118
        if entry == "dse":
            target = DistributedStateEstimator(dec, ms)
            run, bad = target.run, self.BAD
        elif entry == "live":
            target = LiveDseRuntime(dec, ms)
            run, bad = target.run, self.BAD
        else:
            target = DseSession(ArchitecturePrototype.assemble(net, m_subsystems=9, seed=0))
            run = partial(target.process_frame, ms)
            bad = [kw for kw in self.BAD if "rounds" in kw]
        for kwargs in bad:
            with pytest.raises(ValueError, match="rounds must|tol must"):
                run(**kwargs)
        if entry == "live":
            assert target._deployment is None
            target.close()
        if entry == "session":
            assert target.reports == [] and target.noise_estimator.level == 1.0


class TestHierarchical:
    def test_accuracy(self, dse118):
        net, pf, dec, ms = dse118
        res = HierarchicalStateEstimator(dec, ms).run()
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3
        assert err["va_rmse"] < 5e-3

    def test_offsets_small_with_pmu_anchors(self, dse118):
        _, _, dec, ms = dse118
        res = HierarchicalStateEstimator(dec, ms).run()
        assert np.max(np.abs(res.offsets)) < 0.05

    def test_coordination_aligns_references(self, dse118):
        """Without coordination the local references disagree; offsets fix it."""
        net, pf, dec, ms = dse118
        res = HierarchicalStateEstimator(dec, ms).run()
        # raw locals (before offsets) vs corrected
        va_raw = res.Va - res.offsets[dec.part]
        dva_raw = va_raw - pf.Va
        dva_raw -= dva_raw.mean()
        dva = res.Va - pf.Va
        dva -= dva.mean()
        assert np.abs(dva).max() <= np.abs(dva_raw).max() + 1e-12

    def test_bytes_to_coordinator(self, dse118):
        _, _, dec, ms = dse118
        res = HierarchicalStateEstimator(dec, ms).run()
        assert res.bytes_to_coordinator > 0

    def test_local_results_per_subsystem(self, dse118):
        _, _, dec, ms = dse118
        res = HierarchicalStateEstimator(dec, ms).run()
        assert set(res.local_results) == set(range(dec.m))

    def test_unobserved_offset_raises(self, dse118):
        """A subsystem whose offset no coordination row observes is an
        error, not a zero offset on its local reference."""
        net, pf, dec, ms = dse118
        s = 1
        rows = HierarchicalStateEstimator(dec, ms)._coordination_rows()
        H = MeasurementModel(net, ms).jacobian(pf.Vm, pf.Va).tocsr()
        # the coordinator's Jacobian entry for s: d h / d (offset of s)
        entry = np.asarray(H[rows][:, dec.buses(s)].sum(axis=1)).ravel()
        keep = np.setdiff1d(np.arange(len(ms)), rows[entry != 0])
        est = HierarchicalStateEstimator(dec, ms.subset(keep))
        with pytest.raises(EstimationError, match="coordinator"):
            est.run()
