"""Tests for the Schur-complement boundary condensation of DSE Step 2.

Covers the condensed solver against the reference gain solve, condensed
DSE parity with the reference path across update scopes and executors,
the compact condensed wire form (pack/unpack, live round-trip, byte
accounting) and the interaction with the fault/degraded paths.
"""

import numpy as np
import pytest

from repro import faults
from repro.core import LiveDseRuntime
from repro.dse import (
    DistributedStateEstimator,
    decompose,
    dse_pmu_placement,
    neighbor_publication_sets,
)
from repro.dse.algorithm import _localized_perm
from repro.measurements.failures import drop_region
from repro.estimation.solvers import (
    GainSolveError,
    SchurGainSolver,
    build_gain,
)
from repro.estimation.wls import WlsEstimator
from repro.faults import FaultPlan
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements
from repro.middleware.message import (
    FrameError,
    condensed_update_nbytes,
    pack_condensed_update,
    state_update_nbytes,
    unpack_condensed_update,
)


@pytest.fixture(scope="module")
def setup14(net14, pf14):
    dec = decompose(net14, 3, seed=0)
    rng = np.random.default_rng(7)
    plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net14, plac, pf14, rng=rng)
    return dec, ms


@pytest.fixture(scope="module")
def setup118(net118, pf118):
    dec = decompose(net118, 4, seed=0)
    rng = np.random.default_rng(7)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    return dec, ms


# ---------------------------------------------------------------------------
# SchurGainSolver against the plain gain solve
# ---------------------------------------------------------------------------

class TestSchurGainSolver:
    def _system(self, net14, pf14):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net14, full_placement(net14), pf14, rng=rng)
        est = WlsEstimator(net14, ms)
        H = est._jacobian_at(pf14.Vm, pf14.Va)
        return est, H, ms.weights

    def test_matches_dense_solve(self, net14, pf14):
        est, H, w = self._system(net14, pf14)
        n = est.n_states
        rng = np.random.default_rng(1)
        boundary = np.sort(rng.choice(n, size=n // 3, replace=False))
        schur = SchurGainSolver(boundary, n)
        schur.factor(H, w)
        rhs = rng.standard_normal(n)
        dx = schur.solve(rhs)
        G = build_gain(H, w).toarray()
        np.testing.assert_allclose(dx, np.linalg.solve(G, rhs), atol=1e-9)

    def test_all_boundary_and_all_interior(self, net14, pf14):
        est, H, w = self._system(net14, pf14)
        n = est.n_states
        rng = np.random.default_rng(2)
        rhs = rng.standard_normal(n)
        ref = np.linalg.solve(build_gain(H, w).toarray(), rhs)
        for boundary in (np.arange(n), np.zeros(0, dtype=np.int64)):
            schur = SchurGainSolver(boundary, n)
            schur.factor(H, w)
            np.testing.assert_allclose(schur.solve(rhs), ref, atol=1e-9)

    def test_refactor_reuses_ordering_bitwise(self, net14, pf14):
        """Warm refactorization at a new point matches a cold solver at
        that point bit-for-bit (the GainSolver perm-cache property)."""
        est, H0, w = self._system(net14, pf14)
        n = est.n_states
        boundary = np.arange(0, n, 3)
        H1 = est._jacobian_at(pf14.Vm * 1.01, pf14.Va * 0.99)
        rhs = np.random.default_rng(3).standard_normal(n)

        warm = SchurGainSolver(boundary, n)
        warm.factor(H0, w)
        warm.factor(H1, w)  # refactor via cached ordering
        cold = SchurGainSolver(boundary, n)
        cold.factor(H1, w)
        assert np.array_equal(warm.solve(rhs), cold.solve(rhs))

    def test_solve_before_factor_raises(self):
        schur = SchurGainSolver(np.array([0, 1]), 4)
        with pytest.raises(GainSolveError):
            schur.solve(np.zeros(4))

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            SchurGainSolver(np.array([0, 7]), 4)
        with pytest.raises(ValueError):
            SchurGainSolver(np.array([-1]), 4)


# ---------------------------------------------------------------------------
# Condensed DSE parity with the reference Step 2
# ---------------------------------------------------------------------------

class TestCondensedParity:
    @pytest.mark.parametrize("scope", ["exchange", "all"])
    @pytest.mark.parametrize("case", ["setup14", "setup118"])
    def test_state_parity(self, case, scope, request):
        dec, ms = request.getfixturevalue(case)
        ref = DistributedStateEstimator(dec, ms, update_scope=scope).run()
        con = DistributedStateEstimator(
            dec, ms, update_scope=scope, condense=True
        ).run()
        assert np.max(np.abs(con.Vm - ref.Vm)) <= 1e-8
        assert np.max(np.abs(con.Va - ref.Va)) <= 1e-8

    def test_values_only_frames_parity(self, setup118):
        """Repeated values-only z frames through one warm condensed DSE
        stay within parity of the reference path frame by frame."""
        dec, ms = setup118
        rng = np.random.default_rng(11)
        ref = DistributedStateEstimator(dec, ms)
        con = DistributedStateEstimator(dec, ms, condense=True)
        for _ in range(3):
            z = ms.z + rng.normal(0.0, 1e-4, size=len(ms))
            r_ref = ref.run(z=z)
            r_con = con.run(z=z)
            assert np.max(np.abs(r_con.Vm - r_ref.Vm)) <= 1e-8
            assert np.max(np.abs(r_con.Va - r_ref.Va)) <= 1e-8

    def test_executors_bitwise_equal(self, setup14):
        """Condensed results are bit-identical across serial, thread and
        process executors (the history-free linearization point)."""
        dec, ms = setup14
        serial = DistributedStateEstimator(dec, ms, condense=True).run()
        threads = DistributedStateEstimator(
            dec, ms, condense=True, executor="threads"
        ).run()
        assert np.array_equal(serial.Vm, threads.Vm)
        assert np.array_equal(serial.Va, threads.Va)
        dse_p = DistributedStateEstimator(dec, ms, condense=True, executor=2)
        try:
            pooled = dse_p.run()
        finally:
            dse_p.executor.shutdown()
        assert np.array_equal(serial.Vm, pooled.Vm)
        assert np.array_equal(serial.Va, pooled.Va)

    def test_factors_once_across_rounds_and_frames(self, setup14):
        dec, ms = setup14
        dse = DistributedStateEstimator(dec, ms, condense=True)
        r1 = dse.run(rounds=3)
        counts = [dse._step2_cache[s][0].factor_count for s in range(dec.m)]
        assert counts == [1] * dec.m  # one factorization despite many rounds
        dse.run(rounds=3)  # identical frame: same lin point, no refactor
        counts2 = [dse._step2_cache[s][0].factor_count for s in range(dec.m)]
        assert counts2 == counts
        assert r1.rounds > 1
        for rec in r1.records.values():
            assert rec.condensed
            assert rec.n_boundary_states > 0
            assert rec.factor_time >= 0.0

    def test_condense_requires_reuse_structures(self, setup14):
        dec, ms = setup14
        with pytest.raises(ValueError, match="reuse_structures"):
            DistributedStateEstimator(
                dec, ms, condense=True, reuse_structures=False
            )


# ---------------------------------------------------------------------------
# Byte accounting
# ---------------------------------------------------------------------------

class TestByteAccounting:
    def test_reference_bytes_are_packed_frame_sizes(self, setup118):
        dec, ms = setup118
        res = DistributedStateEstimator(dec, ms).run()
        for s, rec in res.records.items():
            per_round = state_update_nbytes(rec.exchange_size) * len(
                dec.neighbors(s)
            )
            assert rec.bytes_sent_per_round == [per_round] * res.rounds

    def test_condensed_bytes_and_reduction(self, setup118):
        dec, ms = setup118
        ref = DistributedStateEstimator(dec, ms).run()
        con = DistributedStateEstimator(dec, ms, condense=True).run()
        pubs = neighbor_publication_sets(dec)
        for s, rec in con.records.items():
            expect = [
                sum(
                    condensed_update_nbytes(len(ids), values_only=r > 0)
                    for ids in pubs[s].values()
                )
                for r in range(con.rounds)
            ]
            assert rec.bytes_sent_per_round == expect
        # the tentpole's exchange-volume win
        assert ref.total_bytes_exchanged > 2 * con.total_bytes_exchanged


# ---------------------------------------------------------------------------
# Condensed wire form
# ---------------------------------------------------------------------------

class TestCondensedWireForm:
    def test_round_trip_full(self):
        ids = np.array([3, 17, 250000], dtype=np.int64)
        vm = np.array([1.01, 0.98, 1.05])
        va = np.array([-0.1, 0.02, 0.3])
        buf = pack_condensed_update(9, ids, vm, va)
        assert len(buf) == condensed_update_nbytes(3)
        src, vo, ids2, vm2, va2 = unpack_condensed_update(buf)
        assert src == 9 and vo is False
        assert np.array_equal(ids2, ids)
        assert np.array_equal(vm2, vm)
        assert np.array_equal(va2, va)

    def test_round_trip_values_only(self):
        ids = np.array([1, 2], dtype=np.int64)
        vm = np.array([1.0, 1.02])
        va = np.array([0.0, -0.05])
        buf = pack_condensed_update(4, ids, vm, va, values_only=True)
        assert len(buf) == condensed_update_nbytes(2, values_only=True)
        assert len(buf) < condensed_update_nbytes(2)
        src, vo, ids2, vm2, va2 = unpack_condensed_update(buf)
        assert src == 4 and vo is True and ids2 is None
        assert np.array_equal(vm2, vm)
        assert np.array_equal(va2, va)

    def test_corrupt_frames_rejected(self):
        ids = np.array([1, 2], dtype=np.int64)
        buf = pack_condensed_update(0, ids, np.ones(2), np.zeros(2))
        with pytest.raises(FrameError):
            unpack_condensed_update(bytes(buf[:-3]))  # truncated
        bad = bytearray(buf)
        bad[0] ^= 0xFF  # wrong version
        with pytest.raises(FrameError):
            unpack_condensed_update(bytes(bad))
        with pytest.raises(FrameError):
            unpack_condensed_update(b"")

    def test_smaller_than_legacy_frame(self):
        n = 12
        assert condensed_update_nbytes(n) < state_update_nbytes(n)
        assert condensed_update_nbytes(n, values_only=True) < (
            condensed_update_nbytes(n)
        )


# ---------------------------------------------------------------------------
# Live runtime with condensed payloads
# ---------------------------------------------------------------------------

class TestLiveCondensed:
    def test_bitwise_match_inproc_condensed(self, setup118):
        dec, ms = setup118
        inproc = DistributedStateEstimator(dec, ms, condense=True).run()
        live = LiveDseRuntime(dec, ms, condense=True).run()
        assert live.errors == []
        assert np.array_equal(live.Vm, inproc.Vm)
        assert np.array_equal(live.Va, inproc.Va)

    def test_byte_accounting_matches_live_wire(self, setup118):
        """In-process byte accounting equals the bytes the live fabric
        actually moved, byte for byte."""
        dec, ms = setup118
        inproc = DistributedStateEstimator(dec, ms, condense=True).run()
        live = LiveDseRuntime(dec, ms, condense=True).run()
        sent = sum(st.bytes_sent for st in live.sites.values())
        received = sum(st.bytes_received for st in live.sites.values())
        assert sent == received == inproc.total_bytes_exchanged

    def test_fault_drop_degrades_not_hangs(self):
        """A dropped condensed frame degrades the receiving site's round
        (partial-coverage fallback) without breaking the run."""
        net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
        pf = run_ac_power_flow(net, flat_start=True)
        dec = decompose(net, 3, seed=0)
        rng = np.random.default_rng(5)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        plan = FaultPlan(seed=0).add("mux.forward", "drop", count=1)
        with faults.injection(plan) as inj:
            res = LiveDseRuntime(
                dec, ms, condense=True, recv_timeout=0.5, round_deadline=5.0
            ).run(rounds=2)
        assert inj.fired_summary()  # the drop actually fired
        assert res.degraded  # and starved a site for that round
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))


# ---------------------------------------------------------------------------
# Degraded-solve interaction (PR 5 fault paths)
# ---------------------------------------------------------------------------

class TestCondensedDegraded:
    def test_unobservable_subsystem_degrades(self, net118, pf118):
        dec = decompose(net118, 4, seed=0)
        rng = np.random.default_rng(2)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        internal = np.setdiff1d(dec.buses(0), dec.boundary_buses(0))
        sub, rows = drop_region(net118, ms, internal)
        assert len(rows) > 0
        dse = DistributedStateEstimator(
            dec, sub, auto_anchor=False, degrade_on_failure=True, condense=True
        )
        res = dse.run()
        assert 0 in res.degraded_subsystems
        assert res.records[0].failures
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))
        # degraded rounds still charge their wire bytes
        for rec in res.records.values():
            assert len(rec.bytes_sent_per_round) == res.rounds


# ---------------------------------------------------------------------------
# Vectorized _localized_perm
# ---------------------------------------------------------------------------

class TestLocalizedPerm:
    def test_matches_per_row_reference(self, net118, pf118):
        rng = np.random.default_rng(9)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        rows = np.sort(rng.choice(len(ms), size=len(ms) // 2, replace=False))
        bus_map = rng.permutation(net118.n_bus).astype(np.int64)
        branch_map = rng.permutation(net118.n_branch).astype(np.int64)

        # reference: the original per-row Measurement-object loop
        from repro.measurements.types import _TYPE_ORDER

        tpos = {t: i for i, t in enumerate(_TYPE_ORDER)}
        keys = []
        for row in rows:
            m = ms[int(row)]
            local = (
                bus_map[m.element] if m.mtype.is_bus else branch_map[m.element]
            )
            keys.append((tpos[m.mtype], int(local)))
        ref = np.lexsort(
            (np.array([k[1] for k in keys]), np.array([k[0] for k in keys]))
        )
        got = _localized_perm(ms, rows, bus_map, branch_map)
        assert np.array_equal(got, ref)
