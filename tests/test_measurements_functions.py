"""Tests for measurement functions h(x) and Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.grid import run_ac_power_flow
from repro.measurements import (
    Measurement,
    MeasType,
    MeasurementModel,
    MeasurementSet,
    full_placement,
    pmu_placement,
    true_values,
)


def finite_diff_jacobian(model, Vm, Va, eps=1e-7):
    n = len(Vm)
    h0 = model.h(Vm, Va)
    J = np.zeros((len(h0), 2 * n))
    for j in range(2 * n):
        vm, va = Vm.copy(), Va.copy()
        if j < n:
            va[j] += eps
        else:
            vm[j - n] += eps
        J[:, j] = (model.h(vm, va) - h0) / eps
    return J


class TestH:
    def test_h_matches_power_flow(self, net14, pf14):
        """At the solved point, h reproduces the PF injections and flows."""
        plac = full_placement(net14)
        vals = true_values(net14, plac, pf14)
        ms = plac.with_values(vals)
        # Injections
        rows = ms.rows(MeasType.P_INJ)
        assert np.allclose(ms.z[rows], pf14.P, atol=1e-12)
        rows = ms.rows(MeasType.Q_INJ)
        assert np.allclose(ms.z[rows], pf14.Q, atol=1e-12)
        # Flows
        els = ms.elements(MeasType.P_FLOW_F)
        assert np.allclose(ms.z[ms.rows(MeasType.P_FLOW_F)], pf14.Pf[els], atol=1e-12)
        els = ms.elements(MeasType.Q_FLOW_T)
        assert np.allclose(ms.z[ms.rows(MeasType.Q_FLOW_T)], pf14.Qt[els], atol=1e-12)

    def test_vmag_and_angle_passthrough(self, net14, pf14):
        ms = MeasurementSet(
            [
                Measurement(MeasType.V_MAG, 3, 0.0, 0.01),
                Measurement(MeasType.PMU_VA, 7, 0.0, 0.01),
            ]
        )
        model = MeasurementModel(net14, ms)
        h = model.h(pf14.Vm, pf14.Va)
        assert h[0] == pf14.Vm[3]
        assert h[1] == pf14.Va[7]

    def test_current_magnitude(self, net14, pf14):
        ms = MeasurementSet([Measurement(MeasType.I_MAG_F, 0, 0.0, 0.01)])
        model = MeasurementModel(net14, ms)
        h = model.h(pf14.Vm, pf14.Va)
        s = np.hypot(pf14.Pf[0], pf14.Qf[0])
        assert h[0] == pytest.approx(s / pf14.Vm[net14.f[0]], rel=1e-9)

    def test_bad_element_rejected(self, net14):
        ms = MeasurementSet([Measurement(MeasType.V_MAG, 99, 0.0, 0.01)])
        with pytest.raises(ValueError, match="references element"):
            MeasurementModel(net14, ms)

    def test_residual_zero_at_truth(self, net14, pf14):
        plac = full_placement(net14)
        vals = true_values(net14, plac, pf14)
        ms = plac.with_values(vals)
        model = MeasurementModel(net14, ms)
        assert np.allclose(model.residual(ms.z, pf14.Vm, pf14.Va), 0, atol=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("placement_fn", [full_placement, pmu_placement])
    def test_matches_finite_difference(self, net14, pf14, placement_fn):
        plac = placement_fn(net14)
        model = MeasurementModel(net14, plac)
        H = model.jacobian(pf14.Vm, pf14.Va).toarray()
        Hfd = finite_diff_jacobian(model, pf14.Vm, pf14.Va)
        # forward differences: truncation error ~ eps * |h''|; current
        # magnitude rows have O(1) values so allow a looser bound there
        assert np.abs(H - Hfd).max() < 2e-4

    def test_matches_fd_off_solution(self, net14, rng):
        """Jacobian is exact at arbitrary (feasible) states, not just x*."""
        plac = full_placement(net14)
        model = MeasurementModel(net14, plac)
        Vm = 1.0 + 0.05 * rng.standard_normal(14)
        Va = 0.2 * rng.standard_normal(14)
        H = model.jacobian(Vm, Va).toarray()
        Hfd = finite_diff_jacobian(model, Vm, Va)
        assert np.abs(H - Hfd).max() < 1e-5

    def test_shape_and_sparsity(self, net118, pf118):
        plac = full_placement(net118)
        model = MeasurementModel(net118, plac)
        H = model.jacobian(pf118.Vm, pf118.Va)
        assert H.shape == (len(plac), 2 * 118)
        # Each row touches only the local neighbourhood: way below 10% fill.
        assert H.nnz < 0.1 * H.shape[0] * H.shape[1]

    def test_vmag_rows_are_unit_vectors(self, net14, pf14):
        plac = full_placement(net14)
        model = MeasurementModel(net14, plac)
        H = model.jacobian(pf14.Vm, pf14.Va).toarray()
        rows = plac.rows(MeasType.V_MAG)
        els = plac.elements(MeasType.V_MAG)
        for r, e in zip(rows, els):
            expect = np.zeros(2 * 14)
            expect[14 + e] = 1.0
            assert np.array_equal(H[r], expect)

    def test_empty_set_jacobian(self, net14, pf14):
        model = MeasurementModel(net14, MeasurementSet([]))
        H = model.jacobian(pf14.Vm, pf14.Va)
        assert H.shape == (0, 28)


# ---------------------------------------------------------------------------
# One set of evaluators: a trailing scenario axis
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def step2_subsystem(net118, pf118):
    """One IEEE-118 Step-2 problem: extended subnetwork, PMU anchors and
    boundary pseudo measurements, every state column kept."""
    from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
    from repro.measurements import generate_measurements

    dec = decompose(net118, 9, seed=0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(0))
    dse = DistributedStateEstimator(dec, ms)
    dse.run()
    est = dse._step2_cache[4][0]
    return est.net, est.mset, est._keep


def _central(net, pf, pmus=False):
    """The central problem; with ``pmus`` also phasors and current
    magnitudes (every measurement type, every state column kept)."""
    from repro.measurements import generate_measurements

    plac, keep = full_placement(net), np.arange(2 * net.n_bus)
    if pmus:
        plac = plac.merged_with(pmu_placement(net))
    else:
        keep = np.delete(keep, int(net.slack_buses[0]))
    ms = generate_measurements(net, plac, pf, rng=np.random.default_rng(0))
    return net, ms, keep, pf.Vm, pf.Va


@pytest.fixture(params=["case14", "case118", "step2"])
def problem(request):
    """``(net, mset, keep, Vm, Va)``: a model and a state to perturb."""
    if request.param == "step2":
        net, ms, keep = request.getfixturevalue("step2_subsystem")
        return net, ms, keep, np.ones(net.n_bus), np.zeros(net.n_bus)
    tag = request.param[4:]
    return _central(
        request.getfixturevalue("net" + tag), request.getfixturevalue("pf" + tag),
        pmus=tag == "14",
    )


class TestScenarioAxis:
    @staticmethod
    def _stack(Vm, Va, K, seed=1):
        rng = np.random.default_rng(seed)
        return (
            Vm[:, None] * (1 + 0.01 * rng.standard_normal((len(Vm), K))),
            Va[:, None] + 0.01 * rng.standard_normal((len(Va), K)),
        )

    @pytest.mark.parametrize("K", [1, 2, 9])
    def test_stack_equals_column_by_column(self, problem, K):
        """h and fill_data on an (n, K) stack are, column by column and bit
        for bit, the K one-state calls."""
        net, ms, keep, Vm, Va = problem
        model = MeasurementModel(net, ms)
        structure = model.jacobian_structure(keep)
        VmK, VaK = self._stack(Vm, Va, K)
        hK = model.h(VmK, VaK)
        dK = structure.fill_data(VmK, VaK)
        assert hK.shape == (len(ms), K) and dK.shape == (structure.nnz, K)
        for k in range(K):
            vm, va = VmK[:, k].copy(), VaK[:, k].copy()
            assert np.array_equal(hK[:, k], model.h(vm, va))
            assert np.array_equal(dK[:, k], structure.fill_data(vm, va))

    def test_per_scenario_status_matches_forked_model(self, problem):
        """With its own branch status a column sits within 1e-12 of a model
        built on the forked network; a column left on the base status
        within 1e-12 of the base model."""
        from repro.grid import NetworkDelta

        net, ms, keep, Vm, Va = problem
        model = MeasurementModel(net, ms)
        structure = model.jacobian_structure(keep)
        deltas = [None, NetworkDelta.branch_outage(0), NetworkDelta.branch_outage(2, 5)]
        VmK, VaK = self._stack(Vm, Va, len(deltas))
        adm = model.admittance_stack(np.array([
            net.br_status if d is None else d.branch_status_of(net) for d in deltas
        ]))
        cur = model.currents(VmK, VaK, adm)
        hK = model.h(VmK, VaK, cur)
        dK = structure.fill_data(VmK, VaK, cur, adm)
        assert np.array_equal(dK, structure.fill_data(VmK, VaK, adm=adm))
        indptr, indices, shape = structure.pattern
        for k, d in enumerate(deltas):
            ref = MeasurementModel(net if d is None else net.fork(d), ms)
            vm, va = VmK[:, k].copy(), VaK[:, k].copy()
            assert np.abs(hK[:, k] - ref.h(vm, va)).max() < 1e-12
            H = sp.csc_matrix((dK[:, k], indices, indptr), shape=shape)
            gap = H - ref.jacobian_reduced(vm, va, keep)
            assert gap.nnz == 0 or np.abs(gap.data).max() < 1e-12

    def test_admittances_need_a_matching_stack(self, net14, pf14):
        net, ms, keep, Vm, Va = _central(net14, pf14)
        model = MeasurementModel(net, ms)
        adm = model.admittance_stack(np.tile(net.br_status, (3, 1)))
        assert adm.shape == (4 * net.n_branch, 3)
        with pytest.raises(ValueError, match="admittances"):
            model.currents(Vm, Va, adm)
        with pytest.raises(ValueError, match="admittances"):
            model.currents(*self._stack(Vm, Va, 2), adm)
        with pytest.raises(ValueError):
            model.admittance_stack(np.ones((2, net.n_branch + 1)))
