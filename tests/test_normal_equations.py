"""Tests for the shared normal-equation kernel.

The kernel replaces scipy's sparse ``Hᵀ W H`` product and the per-solve
ordering bookkeeping with a product map over a fixed pattern.  These tests
pin its arithmetic to the dense reference, the fill of its sparse factor to
SuperLU's own COLAMD fill, the factor's mode (band, dense, sparse) to the
pattern alone, the symbolic work to once per pattern, and its failures to
the typed :class:`GainSolveError` → :class:`EstimationError`.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.dse import (
    DistributedStateEstimator,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.estimation import solvers
from repro.estimation.batch import BatchEstimator, BatchScenario
from repro.estimation.solvers import (
    GainSolveError,
    GainSolver,
    NormalEquations,
    SchurGainSolver,
    build_gain,
)
from repro.estimation.wls import EstimationError, WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import (
    Measurement,
    MeasType,
    MeasurementSet,
    full_placement,
    generate_measurements,
)


def _central_system(net, pf):
    """Central WLS estimator with its Jacobian, weights and residual at
    the power-flow point."""
    ms = generate_measurements(
        net, full_placement(net), pf, rng=np.random.default_rng(0)
    )
    est = WlsEstimator(net, ms)
    H = est._jacobian_at(pf.Vm, pf.Va)
    return est, H, ms.weights, ms.z - est.model.h(pf.Vm, pf.Va)


@pytest.fixture(scope="module")
def central118(net118, pf118):
    return _central_system(net118, pf118)


@pytest.fixture(scope="module")
def central_wecc():
    net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    return _central_system(net, run_ac_power_flow(net, flat_start=True))


@pytest.fixture(scope="module")
def dse118(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(0))
    return dec, ms


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def _step(kernel, data, w, rs, active=None, ops=None, hold=None):
    """``kernel.step_blocks`` on a replica stack whose rows cover every
    active block: the right-hand side contracted from the whole stack (the
    matrix entry's), the gain from the rows of the blocks that factor."""
    rhs = kernel.rhs(kernel.weighted(data, w), rs)
    labels = range(len(data)) if active is None else active
    rows = [j for j, b in enumerate(labels) if b not in (ops or {})]
    return kernel.step_blocks(rhs, active, ops, data[rows], w, hold)


class TestKernelArithmetic:
    def test_gain_and_rhs_match_dense_reference(self, central118):
        _, H, w, r = central118
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        wdata = kernel.weighted(H.data, w)
        G = kernel.spd.matrix(kernel.gain(H.data, wdata)).toarray()
        Hd = H.toarray()
        np.testing.assert_allclose(G, Hd.T @ (w[:, None] * Hd), rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(
            kernel.rhs(wdata, r), Hd.T @ (w * r), rtol=1e-12, atol=1e-9
        )

    def test_dense_and_sparse_factor_agree(self, central118, monkeypatch):
        _, H, w, r = central118
        dense = GainSolver().solve(H, w, r)
        monkeypatch.setattr(solvers, "DENSE_MAX_STATES", 0)
        sparse = GainSolver().solve(H, w, r)
        assert float(np.abs(dense - sparse).max()) < 1e-10

    def test_pattern_is_structural(self, net14, pf14):
        """Exactly-zero Jacobian entries (flat start) keep their place: the
        gain pattern is a function of the Jacobian pattern only."""
        ms = generate_measurements(
            net14, full_placement(net14), pf14, rng=np.random.default_rng(0)
        )
        est = WlsEstimator(net14, ms)
        flat = est._jacobian_at(np.ones(net14.n_bus), np.zeros(net14.n_bus))
        assert np.any(flat.data == 0.0)
        G_flat = build_gain(flat, ms.weights)
        G_pf = build_gain(est._jacobian_at(pf14.Vm, pf14.Va), ms.weights)
        assert np.array_equal(G_flat.indptr, G_pf.indptr)
        assert np.array_equal(G_flat.indices, G_pf.indices)

    def test_batched_assembly_equals_per_scenario(self, central118):
        _, H, w, r = central118
        rng = np.random.default_rng(1)
        data = H.data * (1.0 + 0.01 * rng.standard_normal((4, H.nnz)))
        rs = r + 0.01 * rng.standard_normal((4, len(r)))
        batch, errors = _step(NormalEquations(H.indptr, H.indices, H.shape), data, w, rs)
        assert not errors and batch.shape == (4, H.shape[1])
        solver = GainSolver()
        for k in range(4):
            one = solver.solve_csc(H.indptr, H.indices, H.shape, data[k], w, rs[k])
            assert np.array_equal(batch[k], one)

    def test_stacked_block_fails_alone(self, central118):
        """Replica 1 of 3 has an indefinite gain: its error alone, the
        other two bit-equal to their solo solves; rows carry the labels
        ``active`` gives them."""
        _, H, w, r = central118
        rng = np.random.default_rng(2)
        data = H.data * (1.0 + 0.01 * rng.standard_normal((3, H.nnz)))
        data[1] = 0.0                      # G = 0: dpotrf stops at column 1
        rs = r + 0.01 * rng.standard_normal((3, len(r)))
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        dx, errors = _step(kernel, data, w, rs, [7, 8, 9])
        assert list(errors) == [8] and isinstance(errors[8], GainSolveError)
        assert not dx[1].any()
        for k in (0, 2):
            assert np.array_equal(dx[k], kernel.solve(data[k], w, rs[k]))
        with pytest.raises(ValueError, match="one row per active block"):
            _step(kernel, data, w, rs, [0, 1])

    def test_new_pattern_replaces_kernel(self, central118):
        _, H, w, r = central118
        solver = GainSolver()
        solver.solve(H, w, r)
        first = solver.kernel
        solver.solve(H, w, r)
        assert solver.kernel is first
        rows = np.arange(H.shape[0] - 5)
        solver.solve(H[rows], w[rows], r[rows])
        assert solver.kernel is not first

    def test_duplicate_entries_are_summed(self):
        """A non-canonical CSC (position (0, 0) stored twice) gives the gain
        of its canonical form — the product map must see the cross terms."""
        dup = sp.csc_matrix(
            (
                np.array([1.0, 2.0, 4.0, 1.0, 5.0]),
                np.array([0, 0, 2, 1, 2], dtype=np.int32),
                np.array([0, 3, 5], dtype=np.int32),
            ),
            shape=(3, 2),
        )
        dense = np.array([[3.0, 0.0], [0.0, 1.0], [4.0, 5.0]])
        np.testing.assert_allclose(
            build_gain(dup, np.ones(3)).toarray(), dense.T @ dense
        )


# ---------------------------------------------------------------------------
# ordering: the warm factor fills exactly like SuperLU's own COLAMD factor
# ---------------------------------------------------------------------------

def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("system", ["central118", "central_wecc"])
class TestOrderingRegression:
    @pytest.fixture(autouse=True)
    def _sparse_path(self, monkeypatch):
        monkeypatch.setattr(solvers, "DENSE_MAX_STATES", 0)

    def test_gain_solver(self, system, request):
        _, H, w, r = request.getfixturevalue(system)
        solver = GainSolver()
        solver.solve(H, w, r)
        solver.solve(H, w, r)                      # warm: cached ordering
        assert _fill(solver.kernel.spd.lu) == _fill(spla.splu(build_gain(H, w)))

    def test_batch_gain_solver(self, system, request):
        _, H, w, r = request.getfixturevalue(system)
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        data, rs = np.tile(H.data, (4, 1)), np.tile(r, (4, 1))
        for _ in range(2):
            assert not _step(kernel, data, w, rs)[1]
        assert _fill(kernel.spd.lu) == _fill(spla.splu(build_gain(H, w)))

    def test_schur_interior_block(self, system, request):
        est, H, w, _ = request.getfixturevalue(system)
        schur = SchurGainSolver(np.arange(0, est.n_states, 50), est.n_states)
        schur.factor(H, w)
        schur.factor(H, w)                         # warm refactorisation
        G = build_gain(H, w)
        G_II = G[schur.interior][:, schur.interior].tocsc()
        assert _fill(schur._interior.lu) == _fill(spla.splu(G_II))


# ---------------------------------------------------------------------------
# band mode: RCM-ordered band Cholesky where the pattern's bandwidth pays
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def central_dse118(net118, pf118, dse118):
    """The central estimator on the DSE placement (the ``serve_burst``
    problem), with its Jacobian, weights and residual at the power-flow
    point."""
    _, ms = dse118
    est = WlsEstimator(net118, ms)
    H = est._jacobian_at(pf118.Vm, pf118.Va)
    return est, H, ms.weights, ms.z - est.model.h(pf118.Vm, pf118.Va)


class TestBandMode:
    def test_mode_follows_the_pattern(self, central_dse118, central_wecc):
        est, H, w, _ = central_dse118
        spd = est._kernel().spd
        assert (spd.mode, spd.n, spd._kd) == ("band", 236, 73)
        # chosen on first use: an assembly that never factors orders nothing
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        kernel.spd.matrix(kernel.gain(H.data, kernel.weighted(H.data, w)))
        assert kernel.spd._mode is None
        assert central_wecc[0]._kernel().spd.mode == "sparse"
        assert central_wecc[0].n_states > solvers.DENSE_MAX_STATES
        # the 37-area grid's Step-2 areas are too wide for a band to pay
        net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
        dec = decompose_by_areas(net)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(
            net, plac, run_ac_power_flow(net, flat_start=True),
            rng=np.random.default_rng(0),
        )
        dse = DistributedStateEstimator(dec, ms)
        modes = {dse._step2_cache[s][0]._kernel().spd.mode for s in range(dec.m)}
        assert modes == {"dense"}

    def test_band_factor_inverts_the_gain(self, central_dse118):
        _, H, w, _ = central_dse118
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        spd = kernel.spd
        spd.factor(kernel.gain(H.data, kernel.weighted(H.data, w)))
        G = build_gain(H, w).toarray()
        rng = np.random.default_rng(7)
        for b in (rng.standard_normal(spd.n), rng.standard_normal((spd.n, 3))):
            x = spd.solve(b)
            ref = np.linalg.solve(G, b)
            assert x.shape == b.shape
            assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
        Hd = H.toarray()
        ref = np.einsum("ij,ji->i", Hd, np.linalg.solve(G, Hd.T))
        q = spd.quadratic_diagonal(H)
        assert np.abs(q - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_indefinite_band_gain_fails_alone(self, central_dse118):
        """A gain that is not positive definite raises the typed error; in
        a replica stack whose middle row weights leave one state unmetered,
        that replica fails alone and the others are their solo solves."""
        est, H, w, _ = central_dse118
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        gain = kernel.gain(H.data, kernel.weighted(H.data, w))
        with pytest.raises(GainSolveError, match="dpbtrf"):
            kernel.spd.factor(-gain)
        j = 5                                   # every row metering state 5
        blind = w.copy()
        blind[H.indices[H.indptr[j] : H.indptr[j + 1]]] = 0.0
        ms = est.mset
        rng = np.random.default_rng(8)
        zs = [ms.z + ms.sigma * rng.standard_normal(len(ms)) for _ in range(3)]
        out = est.estimate_blocks(z=zs, weights=[None, blind, None])
        assert isinstance(out[1], EstimationError) and "dpbtrf" in str(out[1])
        for k in (0, 2):
            ref = est.estimate(z=zs[k])
            assert np.array_equal(out[k].Vm, ref.Vm)
            assert np.array_equal(out[k].Va, ref.Va)

    def test_held_band_factor_is_a_copy(self, central_dse118):
        """Replica 0's held factor still solves bit-equal after the shared
        factor went on to replica 1: the held band is not aliased."""
        _, H, w, r = central_dse118
        rng = np.random.default_rng(9)
        data = H.data * (1.0 + 0.01 * rng.standard_normal((2, H.nnz)))
        rs = r + 0.01 * rng.standard_normal((2, len(r)))
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        ops = {}
        dx, errors = _step(kernel, data, w, rs, [0, 1], ops, {0: np.inf})
        assert not errors and list(ops) == [0] and ops[0].mode == "band"
        assert not np.shares_memory(ops[0]._factor, kernel.spd._chol)
        rhs = kernel.rhs(kernel.weighted(data[0], w), rs[0])
        assert np.array_equal(ops[0].solve(rhs), dx[0])
        assert np.array_equal(dx[1], kernel.solve(data[1], w, rs[1]))


# ---------------------------------------------------------------------------
# symbolic work: once per estimator, however many values-only frames
# ---------------------------------------------------------------------------

def test_symbolic_pass_runs_once_per_estimator(dse118, monkeypatch):
    dec, ms = dse118
    built = []
    init = NormalEquations.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(NormalEquations, "__init__", counting_init)
    rng = np.random.default_rng(5)
    # the carried Step-2 factors are taken through the estimators' own
    # kernels, on either wire form: no second kernel for the same pattern
    for condense in (False, True):
        built.clear()
        dse = DistributedStateEstimator(dec, ms, condense=condense)
        # frame 1 starts flat, where many Jacobian entries are exactly
        # zero; frame 2 warm-starts from its solution
        first = dse.run(z=ms.z)
        dse.run(
            z=ms.z + ms.sigma * rng.standard_normal(len(ms)),
            x0=(first.Vm, first.Va),
        )
        estimators = [dse._est1[s] for s in range(dec.m)]
        estimators += [dse._est2(s) for s in range(dec.m)]
        assert len(built) == len(estimators)
        assert {id(k) for k in built} == {
            id(e._gain_solver.kernel) for e in estimators
        }
        # a frame that moves every carried point takes one factor per
        # subsystem (round 0's, adopted) and builds no kernel
        stores = [dse._est2(s).factors for s in range(dec.m)]
        counts = [f.count for f in stores]
        built.clear()
        dse.run(z=ms.z + ms.sigma * rng.standard_normal(len(ms)))
        assert built == []
        assert [f.count - n for f, n in zip(stores, counts)] == [1] * dec.m


# ---------------------------------------------------------------------------
# frozen operators: a caller's or a held factor, one path through the kernel
# ---------------------------------------------------------------------------

class TestFrozenOperators:
    @pytest.fixture()
    def assembled(self, monkeypatch):
        """The gain rows / diagonal blocks each assembly call covers."""
        seen = []
        gain = NormalEquations.gain

        def recording(self, data, wdata, parts=None, packed=None):
            seen.append(len(data) if data.ndim == 2 else list(parts))
            return gain(self, data, wdata, parts, packed)

        monkeypatch.setattr(NormalEquations, "gain", recording)
        return seen

    def test_replica_with_an_operator_is_not_assembled(self, central118, assembled):
        """A hold bound keeps replica 1's factor in the mapping; the next
        call solves it against that factor and assembles the other two
        rows only — each of them still its solo solve, bit for bit."""
        _, H, w, r = central118
        rng = np.random.default_rng(3)
        data = H.data * (1.0 + 0.01 * rng.standard_normal((3, H.nnz)))
        rs = r + 0.01 * rng.standard_normal((3, len(r)))
        kernel = NormalEquations(H.indptr, H.indices, H.shape)
        solo = [kernel.solve(data[k], w, rs[k]) for k in range(3)]
        assembled.clear()
        ops = {}
        dx, errors = _step(kernel, data, w, rs, [0, 1, 2], ops, {1: np.inf})
        assert not errors and assembled == [3]
        assert list(ops) == [1] and isinstance(ops[1], solvers._HeldFactor)
        assert all(np.array_equal(dx[k], solo[k]) for k in range(3))
        dx, errors = _step(kernel, data, w, rs, [0, 1, 2], ops)
        assert not errors and assembled == [3, 2]
        rhs = kernel.rhs(kernel.weighted(data[1], w), rs[1])
        assert np.array_equal(dx[1], ops[1].solve(rhs))
        np.testing.assert_allclose(dx[1], solo[1], rtol=1e-9, atol=1e-14)
        assert np.array_equal(dx[0], solo[0]) and np.array_equal(dx[2], solo[2])

    def test_union_block_with_an_operator_is_not_assembled(self, dse118, assembled):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        stack = WlsEstimator.stacked([dse._est1[s] for s in range(3)])
        kernel = stack._kernel()
        rng = np.random.default_rng(4)
        Vm = 1.0 + 0.01 * rng.standard_normal(stack.net.n_bus)
        Va = 0.01 * rng.standard_normal(stack.net.n_bus)
        structure = stack.model.jacobian_structure(stack._keep)
        data = structure.fill_data(Vm, Va)
        r = stack.mset.z - stack.model.h(Vm, Va)
        w = stack.mset.weights
        rhs = kernel.rhs(kernel.weighted(data, w), r)
        ops = {}
        first, _ = kernel.step_blocks(rhs, None, ops, data, w, {0: np.inf, 2: 0.0})
        assert list(ops) == [0]             # a zero bound holds nothing
        packed = structure.fill_data(Vm, Va, parts=[1, 2])
        again, errors = kernel.step_blocks(rhs, None, ops, packed, w)
        assert not errors and assembled[-1] == [1, 2]
        for b, (_, (lo, hi), _) in enumerate(kernel.blocks):
            if b:
                assert np.array_equal(again[lo:hi], first[lo:hi])
            else:
                np.testing.assert_allclose(again[lo:hi], first[lo:hi], rtol=1e-9)

    def test_stacks_equal_solo_solves_with_the_tail_frozen(self, central118, dse118):
        """Replicas (no what-if) and union blocks hold and freeze exactly as
        the plain estimator does alone: same bits, same step norms, same
        iteration and factorisation counts."""
        est, _, _, _ = central118
        ms = est.mset
        rng = np.random.default_rng(5)
        zs = [ms.z + ms.sigma * rng.standard_normal(len(ms)) for _ in range(4)]
        dec, dms = dse118
        dse = DistributedStateEstimator(dec, dms)
        members = [dse._est1[s] for s in range(dec.m)]
        pairs = list(zip(est.estimate_blocks(z=zs), [est.estimate(z=z) for z in zs]))
        pairs += zip(
            WlsEstimator.stacked(members).estimate_blocks(),
            [m.estimate() for m in members],
        )
        for got, ref in pairs:
            assert np.array_equal(got.Vm, ref.Vm) and np.array_equal(got.Va, ref.Va)
            assert got.step_norms == ref.step_norms
            assert (got.iterations, got.factorizations) == (
                ref.iterations, ref.factorizations
            )
        assert all(got.factorizations < got.iterations for got, _ in pairs)

    def test_job_by_job_and_live_agree_with_the_tail_frozen(self, dse118, job_by_job):
        from repro.core import LiveDseRuntime

        dec, ms = dse118
        z = ms.z + ms.sigma * np.random.default_rng(6).standard_normal(len(ms))
        serial = DistributedStateEstimator(dec, ms).run(z=z)
        recs = serial.records.values()
        assert all(
            r.step1_result.factorizations < r.step1_result.iterations for r in recs
        )
        states = [job_by_job(DistributedStateEstimator(dec, ms), z=z)]
        with LiveDseRuntime(dec, ms) as live:
            states.append(live.run(z=z))
        for got in states:
            assert np.array_equal(got.Vm, serial.Vm)
            assert np.array_equal(got.Va, serial.Va)


# ---------------------------------------------------------------------------
# typed failure, never a garbage step
# ---------------------------------------------------------------------------

def _vmag_only_system(net, pf):
    """V-magnitude-only telemetry: no angle state is observable."""
    ms = MeasurementSet([
        Measurement(MeasType.V_MAG, b, float(pf.Vm[b]), 0.01)
        for b in range(net.n_bus)
    ])
    est = WlsEstimator(net, ms)
    H = est._jacobian_at(pf.Vm, pf.Va)
    return H, ms.weights, ms.z - est.model.h(pf.Vm, pf.Va)


class TestTypedFailure:
    def test_unobservable_raises_from_every_solver(self, net14, pf14, monkeypatch):
        H, w, r = _vmag_only_system(net14, pf14)
        n = H.shape[1]
        for limit in (solvers.DENSE_MAX_STATES, 0):     # dense, then sparse
            monkeypatch.setattr(solvers, "DENSE_MAX_STATES", limit)
            with pytest.raises(GainSolveError):
                GainSolver().solve(H, w, r)
            dx, errors = _step(
                NormalEquations(H.indptr, H.indices, H.shape),
                np.tile(H.data, (2, 1)), w, np.tile(r, (2, 1)),
            )
            assert sorted(errors) == [0, 1] and not dx.any()
            assert all(isinstance(e, GainSolveError) for e in errors.values())
            with pytest.raises(GainSolveError):
                SchurGainSolver(np.arange(n - 4, n), n).factor(H, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_z_raises_from_every_solver(self, central118, bad):
        est, H, w, r = central118
        r = r.copy()
        r[3] = bad
        with pytest.raises(GainSolveError):
            GainSolver().solve(H, w, r)
        # a stack reports per block: the poisoned replica alone
        dx, errors = _step(
            NormalEquations(H.indptr, H.indices, H.shape),
            np.tile(H.data, (2, 1)), w, np.stack([r, central118[3]]),
        )
        assert list(errors) == [0] and isinstance(errors[0], GainSolveError)
        assert not dx[0].any() and np.all(np.isfinite(dx[1])) and dx[1].any()
        schur = SchurGainSolver(np.arange(0, est.n_states, 9), est.n_states)
        schur.factor(H, w)
        with pytest.raises(GainSolveError):
            schur.solve(H.T @ (w * r))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_estimators_raise_estimation_error(self, net14, pf14, bad):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, rng=np.random.default_rng(0)
        )
        z = ms.z.copy()
        z[5] = bad
        with pytest.raises(EstimationError):
            WlsEstimator(net14, ms).estimate(z=z)
        with pytest.raises(EstimationError):
            BatchEstimator(net14, ms).estimate_batch(
                [BatchScenario(z=z), BatchScenario()]
            )

    @pytest.mark.parametrize("condense", [False, True])
    def test_dse_degrades_exactly_the_poisoned_subsystem(self, dse118, condense):
        dec, ms = dse118
        dse = DistributedStateEstimator(
            dec, ms, degrade_on_failure=True, condense=condense
        )
        clean = dse.run(z=ms.z)
        assert clean.degraded_subsystems == []
        # poison one Step-1 row of subsystem 4 only
        z = ms.z.copy()
        z[dse.assignment.step1[4][0]] = np.nan
        res = dse.run(z=z)
        assert res.degraded_subsystems == [4]
        assert res.records[4].failures
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))

    def test_dse_unobservable_subsystem_is_typed(self, dse118, net118):
        """Strip subsystem 2 down to voltage magnitudes (plus its PMU
        anchor): its local problems are unobservable."""
        dec, ms = dse118
        own = set(dec.buses(2).tolist())
        branches = set(dec.internal_branches(2).tolist())
        branches |= set(dec.incident_tie_lines(2).tolist())

        def keep(m):
            if m.mtype in (MeasType.V_MAG, MeasType.PMU_VA):
                return True
            touched = own if m.mtype.is_bus else branches
            return m.element not in touched

        sub = ms.subset(np.array([keep(m) for m in ms]))
        with pytest.raises(EstimationError):
            DistributedStateEstimator(dec, sub).run()
        res = DistributedStateEstimator(dec, sub, degrade_on_failure=True).run()
        assert res.degraded_subsystems == [2]
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))
