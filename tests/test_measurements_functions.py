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


# ---------------------------------------------------------------------------
# Reverse mode: Hᵀ u without H
# ---------------------------------------------------------------------------
def _fill_path_rhs(model, keep, Vm, Va, u, cur=None, adm=None):
    """``Hᵀ u`` the way the Gauss-Newton kernel takes it: fill, weight, sum
    (weights 1, so ``W H`` is H and the right-hand side is ``Hᵀ u``).  A
    stack goes to the kernel as rows and comes back as columns."""
    from repro.estimation.solvers import NormalEquations

    structure = model.jacobian_structure(keep)
    kernel = NormalEquations(*structure.pattern)
    data = structure.fill_data(Vm, Va, cur, adm)
    ones = np.ones(len(model.mset))
    if data.ndim == 1:
        return kernel.rhs(kernel.weighted(data, ones), u)
    data = np.ascontiguousarray(data.T)
    return kernel.rhs(kernel.weighted(data, ones), u.T).T


class TestGradient:
    @staticmethod
    def _state(Vm, Va, seed):
        rng = np.random.default_rng(seed)
        return (
            Vm * (1 + 0.02 * rng.standard_normal(len(Vm))),
            Va + 0.05 * rng.standard_normal(len(Va)),
        )

    @pytest.mark.parametrize("tag", ["14", "118"])
    @pytest.mark.parametrize("mtype", [None, *MeasType])
    def test_gradient_is_the_fill_path_rhs(self, request, tag, mtype):
        """Every measurement type alone, and all of them together, at three
        random states: ``gradient`` is the kernel's ``Hᵀ W r`` over the full
        state to 1e-13 relative."""
        net = request.getfixturevalue("net" + tag)
        pf = request.getfixturevalue("pf" + tag)
        _, ms, keep, Vm, Va = _central(net, pf, pmus=True)
        if mtype is not None:
            ms = ms.subset(np.array([m.mtype == mtype for m in ms]))
        assert len(ms)
        model = MeasurementModel(net, ms)
        rng = np.random.default_rng(3)
        for seed in range(3):
            vm, va = self._state(Vm, Va, seed)
            u = rng.standard_normal(len(ms))
            want = _fill_path_rhs(model, keep, vm, va, u)
            got = model.gradient(vm, va, model.currents(vm, va), u)
            assert got.shape == (2 * net.n_bus,)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_dark_branch_current_has_zero_gradient(self, net14, pf14):
        """A branch carrying no current has no |I| gradient (H's guard): the
        row adds nothing, and nothing turns non-finite."""
        from repro.grid import NetworkDelta

        _, ms, keep, Vm, Va = _central(net14, pf14, pmus=True)
        branch = int(ms.elements(MeasType.I_MAG_F)[0])
        dark = net14.fork(NetworkDelta.branch_outage(branch))
        model = MeasurementModel(dark, ms)
        vm, va = self._state(Vm, Va, 0)
        cur = model.currents(vm, va)
        assert cur[2][branch] == 0
        rows = ms.rows(MeasType.I_MAG_F)[ms.elements(MeasType.I_MAG_F) == branch]
        assert len(rows) == 1
        u = np.random.default_rng(4).standard_normal(len(ms))
        want = _fill_path_rhs(model, keep, vm, va, u)
        got = model.gradient(vm, va, cur, u)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        u_dark = np.zeros(len(ms))
        u_dark[rows] = 1.0
        assert np.array_equal(model.gradient(vm, va, cur, u_dark), np.zeros(28))

    @pytest.mark.parametrize("tag", ["14", "118"])
    def test_stack_equals_column_by_column(self, request, tag):
        """An ``(n, K)`` stack with ``(m, K)`` multipliers is, column by
        column and bit for bit, the K one-state calls (full + PMU sets)."""
        net = request.getfixturevalue("net" + tag)
        _, ms, _, Vm, Va = _central(net, request.getfixturevalue("pf" + tag), pmus=True)
        model = MeasurementModel(net, ms)
        VmK, VaK = TestScenarioAxis._stack(Vm, Va, 5)
        u = np.random.default_rng(6).standard_normal((len(ms), 5))
        gK = model.gradient(VmK, VaK, model.currents(VmK, VaK), u)
        assert gK.shape == (2 * net.n_bus, 5)
        for k in range(5):
            vm, va = VmK[:, k].copy(), VaK[:, k].copy()
            one = model.gradient(vm, va, model.currents(vm, va), u[:, k].copy())
            assert np.array_equal(gK[:, k], one)

    @staticmethod
    def _whatif(net, pf, branch):
        """A full + PMU model, a 3-column stack and admittances whose
        column 1 has ``branch`` out."""
        _, ms, keep, Vm, Va = _central(net, pf, pmus=True)
        model = MeasurementModel(net, ms)
        status = np.tile(net.br_status, (3, 1))
        status[1, branch] = 0
        VmK, VaK = TestScenarioAxis._stack(Vm, Va, 3)
        return model, keep, VmK, VaK, model.admittance_stack(status)

    @pytest.mark.parametrize("tag", ["14", "118"])
    def test_whatif_stack_is_the_fill_path_rhs(self, request, tag):
        """With per-scenario admittances the pull-back agrees with the
        kernel's ``Hᵀ W r`` on the same admittances to 1e-13 relative."""
        net = request.getfixturevalue("net" + tag)
        model, keep, VmK, VaK, adm = self._whatif(
            net, request.getfixturevalue("pf" + tag), 2
        )
        cur = model.currents(VmK, VaK, adm)
        u = np.random.default_rng(7).standard_normal((len(model.mset), 3))
        got = model.gradient(VmK, VaK, cur, u, adm)[keep]
        want = _fill_path_rhs(model, keep, VmK, VaK, u, cur, adm)
        for k in range(3):
            assert np.abs(got[:, k] - want[:, k]).max() <= 1e-13 * np.abs(want[:, k]).max()

    def test_outaged_branch_current_has_zero_gradient(self, net14, pf14):
        """An ``I_MAG_F`` row on the branch a what-if takes out adds exactly
        nothing, and the rest still agrees with the fill path."""
        _, ms, *_ = _central(net14, pf14, pmus=True)
        branch = int(ms.elements(MeasType.I_MAG_F)[0])
        model, keep, VmK, VaK, adm = self._whatif(net14, pf14, branch)
        cur = model.currents(VmK, VaK, adm)
        assert cur[2][branch, 1] == 0 and cur[2][branch, 0] != 0
        rows = ms.rows(MeasType.I_MAG_F)[ms.elements(MeasType.I_MAG_F) == branch]
        u_dark = np.zeros((len(ms), 3))
        u_dark[rows, 1] = 1.0
        g = model.gradient(VmK, VaK, cur, u_dark, adm)
        assert np.array_equal(g, np.zeros((2 * net14.n_bus, 3)))
        u = np.random.default_rng(8).standard_normal((len(ms), 3))
        got = model.gradient(VmK, VaK, cur, u, adm)[keep]
        want = _fill_path_rhs(model, keep, VmK, VaK, u, cur, adm)
        assert np.all(np.isfinite(got))
        for k in range(3):
            assert np.abs(got[:, k] - want[:, k]).max() <= 1e-13 * np.abs(want[:, k]).max()

    def test_union_gradient_is_each_members_own(self, net118, pf118):
        """On a stacked union of Step-2 problems, each member's slice of the
        gradient is bit for bit the member's own."""
        from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
        from repro.estimation.wls import WlsEstimator
        from repro.measurements import generate_measurements

        dec = decompose(net118, 9, seed=0)
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(0))
        dse = DistributedStateEstimator(dec, ms)
        dse.run(rounds=1)
        members = [dse._step2_cache[s][0] for s in range(dec.m)]
        union = WlsEstimator.stacked(members)
        rng = np.random.default_rng(5)
        Vm = 1 + 0.02 * rng.standard_normal(union.net.n_bus)
        Va = 0.1 * rng.standard_normal(union.net.n_bus)
        u = rng.standard_normal(len(union.mset))
        g = union.model.gradient(Vm, Va, union.model.currents(Vm, Va), u)[union._keep]
        for est, blk in zip(members, union._blocks):
            vm, va = Vm[blk.buses].copy(), Va[blk.buses].copy()
            own = est.model.gradient(vm, va, est.model.currents(vm, va), u[blk.rows])
            assert np.array_equal(g[blk.states], own[est._keep])
