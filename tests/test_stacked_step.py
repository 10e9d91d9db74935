"""Tests for the stacked Gauss-Newton step.

A serial in-process DSE runs Step 1 and each reference Step-2 round as one
Gauss-Newton loop over the disjoint union of its subsystems
(:meth:`WlsEstimator.stacked`).  These tests pin every block of that loop
bit for bit to the subsystem's own estimator — states, residuals,
iteration counts, step norms, convergence flags — across different
reference handling, iteration caps and a poisoned block, check how the
stage's wall time is shared out, and count union evaluations so that a
silent fall-back to the per-block path cannot pass.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dse import (
    DistributedStateEstimator,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.estimation import solvers
from repro.estimation.solvers import NormalEquations, SchurGainSolver
from repro.estimation.wls import EstimationError, WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.grid.network import Network, NetworkError
from repro.grid.ybus import build_ybus
from repro.measurements import (
    MeasType,
    MeasurementSet,
    full_placement,
    generate_measurements,
)
from repro.measurements.functions import JacobianStructure


def _dse_case(net, dec, pf, seed=1):
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=np.random.default_rng(seed))
    return dec, ms


@pytest.fixture(scope="module")
def dse118(net118, pf118):
    return _dse_case(net118, decompose(net118, 9, seed=0), pf118)


@pytest.fixture(scope="module")
def dse_wecc():
    net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    pf = run_ac_power_flow(net, flat_start=True)
    return _dse_case(net, decompose_by_areas(net), pf)


def _frame(ms, seed):
    rng = np.random.default_rng(seed)
    return ms.z + ms.sigma * rng.standard_normal(len(ms))


def assert_same_result(got, ref):
    """Every field of a block's result equals the member's own."""
    assert np.array_equal(got.Vm, ref.Vm)
    assert np.array_equal(got.Va, ref.Va)
    assert np.array_equal(got.residuals, ref.residuals)
    assert got.iterations == ref.iterations
    assert got.step_norms == ref.step_norms
    assert got.converged == ref.converged
    assert got.objective == ref.objective
    assert got.dof == ref.dof


def assert_stack_matches_members(members, x0, z, **kwargs):
    """Stack fresh copies' worth of work and compare block by block with
    each member's own ``estimate`` on the same inputs."""
    got = WlsEstimator.stacked(members).estimate_blocks(x0=x0, z=z, **kwargs)
    refs = [
        m.estimate(x0=x0[b], z=z[b], **kwargs) for b, m in enumerate(members)
    ]
    assert len(got) == len(members)
    for g, r in zip(got, refs):
        assert_same_result(g, r)
    return got


# ---------------------------------------------------------------------------
# stack == per block, bit for bit
# ---------------------------------------------------------------------------

class TestStackEqualsMembers:
    def test_ieee118_step1(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        z = _frame(ms, 7)
        members = [dse._est1[s] for s in range(dec.m)]
        got = assert_stack_matches_members(
            members, [None] * dec.m, [dse._step1_z(s, z) for s in range(dec.m)]
        )
        # blocks stop on their own: the frame is not one iteration count
        assert len({g.iterations for g in got}) > 1
        assert all(g.converged for g in got)

    def test_ieee118_step2_cold_and_warm_round(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        z = _frame(ms, 8)
        first = dse.run(z=z, rounds=1)
        members = [dse._step2_cache[s][0] for s in range(dec.m)]
        # cold round: starts from the Step-1 publication alone
        pub_vm = np.ones(dec.net.n_bus)
        pub_va = np.zeros(dec.net.n_bus)
        for s, rec in first.records.items():
            pub_vm[dec.buses(s)] = rec.step1_result.Vm
            pub_va[dec.buses(s)] = rec.step1_result.Va
        heard = np.ones(dec.net.n_bus, dtype=bool)
        cold = [
            dse._step2_inputs(s, pub_vm, pub_va, heard, {}, z, None)
            for s in range(dec.m)
        ]
        # every neighbour heard and no frame weights: the sets' own serve
        assert all(w is None for _, w, _ in cold)
        got = assert_stack_matches_members(
            members, [x0 for *_, x0 in cold], [zz for zz, *_ in cold]
        )
        # warm round: previous extended solutions, refreshed boundary
        last2 = {s: (g.Vm, g.Va) for s, g in enumerate(got)}
        warm = [
            dse._step2_inputs(s, first.Vm, first.Va, heard, last2, z, None)
            for s in range(dec.m)
        ]
        assert_stack_matches_members(
            members, [x0 for *_, x0 in warm], [zz for zz, *_ in warm]
        )

    def test_wecc37_step1(self, dse_wecc):
        dec, ms = dse_wecc
        dse = DistributedStateEstimator(dec, ms)
        z = _frame(ms, 9)
        assert_stack_matches_members(
            [dse._est1[s] for s in range(dec.m)],
            [None] * dec.m,
            [dse._step1_z(s, z) for s in range(dec.m)],
        )

    def test_blocks_with_and_without_angle_reference(self, dse118):
        """A member without PMU angles drops its reference column and pins
        that bus; its neighbours in the stack keep every state."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        members = []
        for s in (0, 1, 2):
            subnet, _, _, ms1 = dse.sub1[s]
            if s == 1:
                ms1 = MeasurementSet(
                    [x for x in ms1 if x.mtype is not MeasType.PMU_VA]
                )
            members.append(WlsEstimator(subnet, ms1))
        assert [m.has_pmu_angles for m in members] == [True, False, True]
        stack = WlsEstimator.stacked(members)
        assert stack.n_states == sum(m.n_states for m in members)
        assert stack.n_states == 2 * stack.net.n_bus - 1
        got = assert_stack_matches_members(
            members, [None] * 3, [None] * 3, reference_angle=0.1
        )
        assert got[1].Va[members[1].reference_bus] == 0.1

    def test_block_hits_max_iter_while_others_converge(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        members = [dse._est1[s] for s in range(4)]
        solved = [m.estimate() for m in members]
        # three blocks start at their solution, one starts flat
        x0 = [(r.Vm, r.Va) for r in solved]
        x0[2] = None
        got = assert_stack_matches_members(
            members, x0, [None] * 4, max_iter=3
        )
        assert [g.converged for g in got] == [True, True, False, True]
        assert got[2].iterations == 3
        assert all(got[b].iterations < 3 for b in (0, 1, 3))

    def test_union_operators_are_the_members_blocks(self, dse118):
        """The union network's admittance matrix is the members' block
        diagonal, value for value."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        nets = [dse.sub2[s][0] for s in range(dec.m)]
        union = Network.disjoint_union(nets)
        Y = build_ybus(union).toarray()
        at = 0
        for net in nets:
            n = net.n_bus
            assert np.array_equal(Y[at:at + n, at:at + n], build_ybus(net).toarray())
            Y[at:at + n, at:at + n] = 0
            at += n
        assert not Y.any()
        with pytest.raises(NetworkError):
            Network.disjoint_union([])


# ---------------------------------------------------------------------------
# a finished block leaves the loop: the running blocks' bits do not move
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def members118(dse118):
    """The Step-1 and Step-2 estimators of the IEEE-118 / 9 decomposition,
    each with its own solution and a Schur operator frozen there."""
    dec, ms = dse118
    # per-block solves fill the Step-2 cache without touching a stack
    dse = DistributedStateEstimator(dec, ms, executor="threads:2")
    try:
        dse.run(rounds=1)
    finally:
        dse.executor.shutdown()
    out = []
    for s in range(2 * dec.m):
        est = dse._est1[s] if s < dec.m else dse._step2_cache[s - dec.m][0]
        sol = est.estimate()
        op = SchurGainSolver(np.arange(0, est.n_states, 7), est.n_states)
        kernel, _, gain = est.gain_at(sol.Vm, sol.Va)
        op.factor_gain(kernel, gain)
        out.append((est, sol, op))
    return out


def _block_inputs(est, sol, start, seed, n_zero):
    """A block's ``(x0, z, weights)``: a noisy scan, a start at the
    solution / flat / near the solution, ``n_zero`` rows removed."""
    rng = np.random.default_rng(seed)
    n, m = est.net.n_bus, len(est.mset)
    z = est.mset.z + 0.5 * est.mset.sigma * rng.standard_normal(m)
    x0 = {
        "flat": None,
        "solution": (sol.Vm, sol.Va),
        "perturbed": (
            sol.Vm + 1e-3 * rng.standard_normal(n),
            sol.Va + 1e-3 * rng.standard_normal(n),
        ),
    }[start]
    w = None
    if n_zero:
        w = est.mset.weights.copy()
        w[rng.choice(m, n_zero, replace=False)] = 0.0
    return x0, z, w


class TestFinishedBlocksLeaveTheLoop:
    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 17), min_size=2, max_size=5, unique=True),
        starts=st.lists(
            st.sampled_from(["solution", "flat", "perturbed"]), min_size=5, max_size=5
        ),
        zeros=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        max_iter=st.integers(1, 10),
        frozen=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_block_is_its_members_solo_solve(
        self, members118, picks, starts, zeros, max_iter, frozen, seed
    ):
        """Blocks that stop at different iterations leave the union's
        evaluation one by one; every block — on the exact loop and on the
        ``operators=`` loop — is still its member's own solve, bit for
        bit."""
        chosen = [members118[i] for i in picks]
        x0, z, w = (list(v) for v in zip(*[
            _block_inputs(est, sol, starts[b], seed + b, zeros[b])
            for b, (est, sol, _) in enumerate(chosen)
        ]))
        ops = [op for *_, op in chosen] if frozen else None
        stack = WlsEstimator.stacked([est for est, *_ in chosen])
        got = stack.estimate_blocks(
            x0=x0, z=z, weights=w, operators=ops, max_iter=max_iter
        )
        for b, (est, _, op) in enumerate(chosen):
            (ref,) = est.estimate_blocks(
                x0=[x0[b]], z=[z[b]], weights=[w[b]],
                operators=None if ops is None else [op], max_iter=max_iter,
            )
            if isinstance(ref, EstimationError):
                assert isinstance(got[b], EstimationError)
                assert str(got[b]) == str(ref)
                continue
            assert_same_result(got[b], ref)
            assert got[b].factorizations == ref.factorizations

    def test_a_data_vector_that_is_not_its_blocks_raises(self, members118):
        """The fill packs the running blocks and the kernel reads that
        packed vector; a vector that does not hold exactly the blocks named
        is refused, not read out of place."""
        (a, sol, _), (b, *_) = members118[0], members118[1]
        stack = WlsEstimator.stacked([a, b])
        kernel = stack._kernel()
        structure = stack.model.jacobian_structure(stack._keep)
        Vm, Va = np.ones(stack.net.n_bus), np.zeros(stack.net.n_bus)
        whole = structure.fill_data(Vm, Va)
        packed = structure.fill_data(Vm, Va, parts=[1])
        lo, hi = kernel.blocks[1][1]
        assert np.array_equal(packed, whole[kernel.indptr[lo]:kernel.indptr[hi]])
        r, w = stack.mset.z - stack.model.h(Vm, Va), stack.mset.weights
        with pytest.raises(ValueError, match="entries"):
            kernel.solve_blocks(whole, w, r, [1])
        with pytest.raises(ValueError, match="entries"):
            kernel.solve_blocks(packed, w, r)
        dx, errors = kernel.solve_blocks(packed, w, r, [1])
        full, _ = kernel.solve_blocks(whole, w, r)
        assert not errors and not dx[:lo].any()
        assert np.array_equal(dx[lo:hi], full[lo:hi])
        # a structure that was never split is one block
        plain = a.model.jacobian_structure(a._keep)
        assert np.array_equal(
            plain.fill_data(sol.Vm, sol.Va, parts=[0]), plain.fill_data(sol.Vm, sol.Va)
        )
        with pytest.raises(ValueError, match="split"):
            plain.fill_data(sol.Vm, sol.Va, parts=[])
        with pytest.raises(ValueError, match="one-block"):
            a._kernel().weighted(plain.fill_data(sol.Vm, sol.Va), a.mset.weights, [])


# ---------------------------------------------------------------------------
# a block fails alone
# ---------------------------------------------------------------------------

class TestPoisonedBlock:
    def test_nan_block_fails_alone_in_the_stack(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        z = _frame(ms, 11)
        stack = WlsEstimator.stacked([dse._est1[s] for s in range(dec.m)])
        zs = [dse._step1_z(s, z) for s in range(dec.m)]
        clean = stack.estimate_blocks(z=zs)
        zs[3] = zs[3].copy()
        zs[3][5] = np.nan
        got = stack.estimate_blocks(z=zs)
        assert isinstance(got[3], EstimationError)
        assert "non-finite" in str(got[3])
        for b in range(dec.m):
            if b != 3:
                assert_same_result(got[b], clean[b])
        # and the stack is not left poisoned
        again = stack.estimate_blocks(z=[dse._step1_z(s, z) for s in range(dec.m)])
        for g, c in zip(again, clean):
            assert_same_result(g, c)

    def test_dse_degrades_only_the_poisoned_subsystem(self, dse118):
        dec, ms = dse118
        z = _frame(ms, 12)
        serial = DistributedStateEstimator(dec, ms, degrade_on_failure=True)
        z[serial.assignment.step1[3][0]] = np.nan
        res = serial.run(z=z)
        assert res.degraded_subsystems == [3]
        assert "step1" in res.records[3].failures[0]
        assert np.all(np.isfinite(res.Vm)) and np.all(np.isfinite(res.Va))
        # the per-block path (threads) degrades the same way, bit for bit
        threaded = DistributedStateEstimator(
            dec, ms, degrade_on_failure=True, executor="threads:2"
        )
        try:
            ref = threaded.run(z=z)
        finally:
            threaded.executor.shutdown()
        assert ref.degraded_subsystems == [3]
        assert np.array_equal(res.Vm, ref.Vm) and np.array_equal(res.Va, ref.Va)
        assert res.records[3].failures == ref.records[3].failures

    def test_dse_raises_the_blocks_error_without_degrade(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        z = _frame(ms, 13)
        z[dse.assignment.step1[5][0]] = np.inf
        with pytest.raises(EstimationError, match="normal-equation solve failed"):
            dse.run(z=z)

    def test_underdetermined_block(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        subnet, _, _, ms1 = dse.sub1[0]
        thin = WlsEstimator(subnet, MeasurementSet(list(ms1)[:5]))
        got = WlsEstimator.stacked([thin, dse._est1[1]]).estimate_blocks()
        assert isinstance(got[0], EstimationError)
        assert "underdetermined" in str(got[0])
        assert_same_result(got[1], dse._est1[1].estimate())


# ---------------------------------------------------------------------------
# who stacks, and what a stacked stage reports
# ---------------------------------------------------------------------------

class TestStackedStages:
    def test_one_union_evaluation_per_lock_step_iteration(self, dse118, monkeypatch):
        """A serial frame fills the Jacobian once per stage iteration — the
        slowest block's count — not once per block iteration, and each
        fill evaluates exactly the blocks still running."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        dse.run()                                   # build the stacks
        fills = []
        fill_data = JacobianStructure.fill_data

        def counting(self, *args, **kwargs):
            data = fill_data(self, *args, **kwargs)
            fills.append((self.n_cols, len(data)))
            return data

        monkeypatch.setattr(JacobianStructure, "fill_data", counting)
        res = dse.run(z=_frame(ms, 3))
        recs = res.records.values()
        stages = [("step1", [r.step1_result.iterations for r in recs])] + [
            ("step2", [r.step2_results[k].iterations for r in recs])
            for k in range(res.rounds)
        ]
        per_block = sum(sum(its) for _, its in stages)
        # iteration i of a stage fills the entries of the blocks that take
        # at least i iterations
        want, whole = [], 0
        for stage, its in stages:
            stack = dse._stacks[stage]
            indptr = stack.model.jacobian_structure(stack._keep).pattern[0]
            entries = [
                indptr[blk.states.stop] - indptr[blk.states.start]
                for blk in stack._blocks
            ]
            assert sum(entries) == indptr[-1]
            want += [
                (stack.n_states, sum(e for e, n in zip(entries, its) if n >= i))
                for i in range(1, max(its) + 1)
            ]
            whole += max(its) * indptr[-1]
        assert len(fills) == len(want) < per_block / 4
        # every one of them was a union fill, of the running blocks only
        assert fills == want
        assert sum(n for _, n in fills) < whole

    def test_only_the_serial_reference_stages_stack(self, dse118):
        dec, ms = dse118
        threaded = DistributedStateEstimator(dec, ms, executor="threads:2")
        try:
            threaded.run()
        finally:
            threaded.executor.shutdown()
        assert threaded._stacks == {}
        # a condensed Step 2 stacks too: round 0 exact, the rest frozen-gain
        condensed = DistributedStateEstimator(dec, ms, condense=True)
        condensed.run()
        assert set(condensed._stacks) == {"step1", "step2"}
        uncached = DistributedStateEstimator(dec, ms, reuse_structures=False)
        uncached.run(rounds=1)
        assert uncached._stacks == {}

    def test_stage_time_is_shared_by_buses_times_iterations(self, dse118, monkeypatch):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        dse.run()
        inner = []
        estimate_blocks = WlsEstimator.estimate_blocks

        def timed(self, **kwargs):
            t0 = time.perf_counter()
            out = estimate_blocks(self, **kwargs)
            inner.append(time.perf_counter() - t0)
            return out

        monkeypatch.setattr(WlsEstimator, "estimate_blocks", timed)
        t0 = time.perf_counter()
        res = dse.run(z=_frame(ms, 4), rounds=1)
        outer = time.perf_counter() - t0
        recs = [res.records[s] for s in range(dec.m)]
        total = sum(r.step1_time for r in recs)
        assert inner[0] <= total <= outer - inner[1]
        wv = np.array([r.n_buses * r.step1_result.iterations for r in recs], float)
        np.testing.assert_allclose(
            [r.step1_time / total for r in recs], wv / wv.sum(), rtol=1e-9
        )
        total2 = sum(r.step2_times[0] for r in recs)
        assert inner[1] <= total2 <= outer - inner[0]

    def test_subsystem_spans_tile_the_stage(self, dse118):
        dec, ms = dse118
        obs.configure(enabled=True, reset=True)
        try:
            res = DistributedStateEstimator(dec, ms).run(rounds=1)
            spans = obs.tracer().finished()
        finally:
            obs.configure(enabled=False, reset=True)
        (stage,) = [d for d in spans if d["name"] == "dse.step1"]
        subs = [d for d in spans if d["name"] == "dse.step1.subsystem"]
        assert [d["attrs"]["s"] for d in subs] == list(range(dec.m))
        assert all(d["attrs"]["apportioned"] for d in subs)
        assert all(d["parent"] == stage["span"] for d in subs)
        assert [d["dur"] for d in subs] == [
            res.records[s].step1_time for s in range(dec.m)
        ]
        assert sum(d["dur"] for d in subs) <= stage["dur"]
        for a, b in zip(subs, subs[1:]):
            assert b["start"] == pytest.approx(a["start"] + a["dur"], abs=1e-6)


# ---------------------------------------------------------------------------
# the composed kernel
# ---------------------------------------------------------------------------

class TestStackedKernel:
    def test_members_keep_their_kernels_and_no_union_symbolic_pass(
        self, dse118, monkeypatch
    ):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        members = [dse._est1[s] for s in range(dec.m)]
        built = []
        init = NormalEquations.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(NormalEquations, "__init__", counting_init)
        stack = WlsEstimator.stacked(members)
        assert [id(k) for k in built] == [id(m._gain_solver.kernel) for m in members]
        kernel = stack._gain_solver.kernel
        assert len(kernel.blocks) == dec.m
        # factors are the stack's own: a member solving on its own later
        # cannot disturb a stacked solve
        for (spd, (lo, hi), _), m in zip(kernel.blocks, members):
            assert spd is not m._gain_solver.kernel.spd
            assert hi - lo == m.n_states

    def test_rejects_a_pattern_that_is_not_the_members_block_diagonal(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        a, b = dse._est1[0], dse._est1[1]
        stack = WlsEstimator.stacked([a, b])
        kernel = stack._gain_solver.kernel
        rows = [blk.rows for blk in stack._blocks]
        with pytest.raises(ValueError, match="block diagonal"):
            NormalEquations.stacked(
                [b._kernel(), a._kernel()], rows,
                kernel.indptr, kernel.indices, kernel.shape,
            )

    def test_only_plain_cached_lu_estimators_stack(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms)
        with pytest.raises(ValueError):
            WlsEstimator.stacked([])
        stack = WlsEstimator.stacked([dse._est1[0], dse._est1[1]])
        with pytest.raises(ValueError):
            WlsEstimator.stacked([stack])
        with pytest.raises(TypeError):
            stack.estimate()
        with pytest.raises(ValueError):
            stack.estimate_blocks(z=[None])


    def test_chunked_assembly_changes_no_value(self, net118, pf118, monkeypatch):
        """Walking the product map in short runs sums every gain entry from
        the same products in the same order."""
        ms = generate_measurements(
            net118, full_placement(net118), pf118, rng=np.random.default_rng(2)
        )
        est = WlsEstimator(net118, ms)
        H = est._jacobian_at(pf118.Vm, pf118.Va)
        whole = NormalEquations(H.indptr, H.indices, H.shape)
        monkeypatch.setattr(solvers, "PRODUCT_CHUNK", 500)
        pieces = NormalEquations(H.indptr, H.indices, H.shape)
        assert len(whole._chunks) == 1 < len(pieces._chunks)
        assert sum(g1 - g0 for g0, g1, *_ in pieces._chunks) == pieces._n_gain
        w = ms.weights
        assert np.array_equal(
            pieces.gain(H.data, pieces.weighted(H.data, w)),
            whole.gain(H.data, whole.weighted(H.data, w)),
        )
        # a stack walks each chunk in K times shorter runs: same values
        stack = H.data * np.linspace(0.5, 1.5, 7)[:, None]
        got = pieces.gain(stack, pieces.weighted(stack, w))
        for k in range(7):
            assert np.array_equal(got[k], whole.gain(stack[k], whole.weighted(stack[k], w)))


def test_measurement_set_from_columns_is_the_constructors_set(dse118):
    _, ms = dse118
    tpos, elem, _ = ms.column_arrays()
    # type blocks in reverse, rows of a type in their own order (the set
    # holds duplicate (type, element) rows, which must keep it)
    perm = np.concatenate([ms.rows(t) for t in reversed(list(MeasType))])
    got, rows = MeasurementSet.from_columns(
        tpos[perm], elem[perm], ms.z[perm], ms.sigma[perm]
    )
    assert got.same_structure(ms)
    assert np.array_equal(got.z, ms.z)
    assert np.array_equal(rows, perm)
    for t in MeasType:
        assert np.array_equal(got.rows(t), ms.rows(t))
    # records exist only once somebody asks for one
    assert got._records is None
    assert got[3] == ms[3] and len(list(got)) == len(ms)
    with pytest.raises(ValueError):
        MeasurementSet.from_columns([0], [1], [1.0], [0.0])
    with pytest.raises(ValueError):
        MeasurementSet.from_columns([0], [-1], [1.0], [0.1])


# ---------------------------------------------------------------------------
# one current evaluation serves h and the Jacobian fill
# ---------------------------------------------------------------------------

def test_shared_currents_change_no_value(net118, pf118):
    ms = generate_measurements(
        net118, full_placement(net118), pf118, rng=np.random.default_rng(2)
    )
    est = WlsEstimator(net118, ms)
    model = est.model
    structure = model.jacobian_structure(est._keep)
    cur = model.currents(pf118.Vm, pf118.Va)
    assert np.array_equal(
        model.h(pf118.Vm, pf118.Va, cur), model.h(pf118.Vm, pf118.Va)
    )
    assert np.array_equal(
        structure.fill_data(pf118.Vm, pf118.Va, cur),
        structure.fill_data(pf118.Vm, pf118.Va),
    )
    # the gather plan reads the same sources the per-type formulas name
    V = pf118.Vm * np.exp(1j * pf118.Va)
    sbus = V * np.conj(model.ybus @ V)
    sf = V[net118.f] * np.conj(model.yf @ V)
    h = model.h(pf118.Vm, pf118.Va)
    for t, values in (
        (MeasType.V_MAG, pf118.Vm),
        (MeasType.P_INJ, sbus.real),
        (MeasType.Q_INJ, sbus.imag),
        (MeasType.P_FLOW_F, sf.real),
        (MeasType.Q_FLOW_F, sf.imag),
    ):
        assert np.array_equal(h[ms.rows(t)], values[ms.elements(t)])
