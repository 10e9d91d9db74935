"""The condensed Step 2 as rounds: how many iterations it takes, where its
gain is frozen, and that the stacked frozen-gain loop is the per-block one.

Round 0 of a condensed frame is the exact Gauss-Newton solve; every later
round iterates with the Schur operator frozen at that round-0 *solution*
and starts where the previous round stopped.  A serial estimator runs
those rounds as one masked loop over the union of the subsystems; every
other executor and the live sites run them block by block — through the
same loop, so on the same bits.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster.recovery import SubsystemCheckpoint
from repro.core.runtime import LiveDseRuntime
from repro.dse import (
    DistributedStateEstimator,
    SubsystemStepper,
    condensation,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.estimation.solvers import SchurGainSolver
from repro.estimation.wls import EstimationError, WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import synthetic_grid
from repro.measurements import full_placement, generate_measurements


def _dse_case(net, dec, pf, seed=1):
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    return dec, generate_measurements(net, plac, pf, rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def dse118(net118, pf118):
    return _dse_case(net118, decompose(net118, 9, seed=0), pf118)


@pytest.fixture(scope="module")
def dse_wecc():
    """The 37-area grid of the ``wecc37_condensed`` benchmark workload."""
    net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    pf = run_ac_power_flow(net, flat_start=True)
    return _dse_case(net, decompose_by_areas(net), pf)


def _frame(ms, seed):
    rng = np.random.default_rng(seed)
    return ms.z + ms.sigma * rng.standard_normal(len(ms))


def _iterations(res):
    """Step-2 iterations as a (rounds, subsystems) table."""
    return np.array([
        [rec.step2_results[k].iterations for rec in res.records.values()]
        for k in range(res.rounds)
    ])


def _fallbacks(dse):
    return sum(dse._step2_cache[s][0].fallbacks for s in range(dse.dec.m))


def _gap(a, b):
    return max(np.abs(a.Vm - b.Vm).max(), np.abs(a.Va - b.Va).max())


# ---------------------------------------------------------------------------
# (1) iteration counts: the quantity the architecture multiplies
# ---------------------------------------------------------------------------

class TestIterationCounts:
    def test_wecc37_frame(self, dse_wecc):
        """Before the warm start was left alone and the gain frozen at the
        round-0 solution, these two frames took 1 008 / 1 024 reference and
        2 410 / 2 237 condensed Step-2 iterations (now 645 / 651 and
        733 / 747), up to 53 of them on one stiff area in every round
        (now 7 in round 0, 5 or fewer after)."""
        dec, ms = dse_wecc
        ref = DistributedStateEstimator(dec, ms)
        con = DistributedStateEstimator(dec, ms, condense=True)
        for seed in (2, 3):
            z = _frame(ms, seed)
            r, c = ref.run(z=z), con.run(z=z)
            assert r.rounds == c.rounds == 7
            it_ref, it_con = _iterations(r), _iterations(c)
            assert it_ref.sum() <= 750
            assert it_con.sum() <= 900
            assert it_con.max() <= 12
            per_round = it_con.sum(axis=1)
            assert np.array_equal(it_con[0], it_ref[0])     # round 0 is exact
            assert np.all(np.diff(per_round[1:]) <= 0)
            assert _gap(r, c) <= 1e-9
        assert _fallbacks(con) == 0

    def test_ieee118_frame(self, dse118):
        """Totals on these two frames before the change: 110 / 110
        reference, 177 / 166 condensed (now 104 / 100 and 113 / 107)."""
        dec, ms = dse118
        ref = DistributedStateEstimator(dec, ms)
        con = DistributedStateEstimator(dec, ms, condense=True)
        for seed in (2, 3):
            z = _frame(ms, seed)
            r, c = ref.run(z=z, rounds=3), con.run(z=z, rounds=3)
            assert _iterations(r).sum() <= 110
            assert _iterations(c).sum() <= 120
            assert _iterations(c).max() <= 12
            assert _gap(r, c) <= 1e-9
        assert _fallbacks(con) == 0

    def test_one_round_is_the_reference_run(self, dse118):
        """Round 0 is the exact solve from the same start: with one round
        the condensed estimator is the reference one, bit for bit."""
        dec, ms = dse118
        z = _frame(ms, 4)
        r = DistributedStateEstimator(dec, ms).run(z=z, rounds=1)
        c = DistributedStateEstimator(dec, ms, condense=True).run(z=z, rounds=1)
        assert np.array_equal(r.Vm, c.Vm) and np.array_equal(r.Va, c.Va)
        assert np.array_equal(_iterations(r), _iterations(c))


# ---------------------------------------------------------------------------
# (2) stacked frozen rounds == per-block frozen rounds, bit for bit
# ---------------------------------------------------------------------------

def _frames(dec, ms, **kwargs):
    """A cold run and two values-only frames through one estimator."""
    dse = DistributedStateEstimator(dec, ms, condense=True, **kwargs)
    try:
        return [dse.run(z=z, rounds=4) for z in (None, _frame(ms, 5), _frame(ms, 6))]
    finally:
        dse.executor.shutdown()


def assert_same_frame(got, want):
    assert np.array_equal(got.Vm, want.Vm) and np.array_equal(got.Va, want.Va)
    for s, rec in want.records.items():
        for g, w in zip(got.records[s].step2_results, rec.step2_results, strict=True):
            assert np.array_equal(g.Vm, w.Vm) and np.array_equal(g.Va, w.Va)
            assert np.array_equal(g.residuals, w.residuals)
            assert g.iterations == w.iterations
            assert g.step_norms == w.step_norms


class TestStackedEqualsPerBlock:
    @pytest.mark.parametrize("executor", ["threads:2", "processes:2"])
    def test_ieee118_executors(self, dse118, executor):
        dec, ms = dse118
        serial = _frames(dec, ms)
        for got, want in zip(_frames(dec, ms, executor=executor), serial, strict=True):
            assert_same_frame(got, want)

    def test_ieee118_live_sites(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        with LiveDseRuntime(dec, ms, condense=True) as live:
            for z in (None, _frame(ms, 5), _frame(ms, 6)):
                want, got = dse.run(z=z, rounds=4), live.run(z=z, rounds=4)
                assert got.errors == []
                assert np.array_equal(got.Vm, want.Vm)
                assert np.array_equal(got.Va, want.Va)

    def test_wecc37_threads(self, dse_wecc):
        dec, ms = dse_wecc
        serial = _frames(dec, ms)
        assert _iterations(serial[1])[1:].max() > 1     # frozen rounds iterate
        for got, want in zip(_frames(dec, ms, executor="threads:2"), serial, strict=True):
            assert_same_frame(got, want)


# ---------------------------------------------------------------------------
# (3) a block that does not converge, or cannot be solved, is alone in it
# ---------------------------------------------------------------------------

class TestBlockFailsAlone:
    def test_capped_block_falls_back_alone(self, dse118):
        dec, ms = dse118
        z = _frame(ms, 7)
        plain = SubsystemStepper(
            DistributedStateEstimator(dec, ms, condense=True), range(dec.m), z=z
        )
        dse = DistributedStateEstimator(dec, ms, condense=True)
        forced, stiff = SubsystemStepper(dse, range(dec.m), z=z), 4
        cond = dse._step2_cache[stiff][0]
        cond.max_iter = 1           # no frozen round converges in one step
        for st in (plain, forced):
            st.step1()
            st.step2_round(0)
        z2, _, x0 = dse._step2_inputs(
            stiff, forced.Vm, forced.Va, forced.known, forced.last2, z, None
        )
        for st in (plain, forced):
            st.step2_round(1)

        assert cond.fallbacks == 1 and _fallbacks(dse) == 1
        got = forced.records[stiff].step2_results[1]
        alone = cond.est.estimate(x0=x0, z=z2, tol=forced.tol)
        assert np.array_equal(got.Vm, alone.Vm) and np.array_equal(got.Va, alone.Va)
        assert got.iterations == alone.iterations > 1
        for s in set(range(dec.m)) - {stiff}:
            g = forced.records[s].step2_results[1]
            w = plain.records[s].step2_results[1]
            assert np.array_equal(g.Vm, w.Vm) and np.array_equal(g.Va, w.Va)
            assert g.step_norms == w.step_norms

    def test_poisoned_area_degrades_alone_and_freezes_late(self, dse118):
        """A NaN in one area's Step-2 telemetry degrades that area only; its
        gain is frozen at the solution of its first round that succeeds."""
        dec, ms = dse118
        dse = DistributedStateEstimator(
            dec, ms, condense=True, degrade_on_failure=True
        )
        bad, clean = 0, _frame(ms, 8)
        z = clean.copy()
        z[dse.assignment.step2_extra[bad][0]] = np.nan   # a tie-line row
        st = SubsystemStepper(dse, range(dec.m), z=z)
        st.step1()
        st.step2_round(0)
        st.step2_round(1)
        assert [s for s, rec in st.records.items() if rec.degraded] == [bad]
        assert sorted(st.lin) == [s for s in range(dec.m) if s != bad]
        assert st.records[bad].step2_results == []
        assert all(len(st.records[s].step2_results) == 2 for s in st.lin)

        st.z = clean                # the next scan of that meter is good
        st.step2_round(2)
        first = st.records[bad].step2_results[0]
        assert st.lin[bad][0] is first.Vm and st.lin[bad][1] is first.Va
        st.step2_round(3)           # every block frozen again: one loop
        assert len(st.records[bad].step2_results) == 2
        assert _fallbacks(dse) == 0
        assert np.all(np.isfinite(st.Vm)) and np.all(np.isfinite(st.Va))


# ---------------------------------------------------------------------------
# (4) the linearization point: the round-0 solution, one factor per frame
# ---------------------------------------------------------------------------

class TestLinearizationPoint:
    def test_frozen_at_the_round0_solution(self, dse118):
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        conds = [dse._step2_cache[s][0] for s in range(dec.m)]

        def frame(z):
            st = SubsystemStepper(dse, range(dec.m), z=z)
            st.step1()
            for rnd in range(3):
                st.step2_round(rnd)
            return st

        st = frame(_frame(ms, 9))
        for s, cond in enumerate(conds):
            first = st.records[s].step2_results[0]
            assert np.array_equal(st.lin[s][0], first.Vm)
            assert np.array_equal(st.lin[s][1], first.Va)
            assert cond.lin_point_cached(st.lin[s])
        assert [c.factor_count for c in conds] == [1] * dec.m
        frame(_frame(ms, 9))            # the same frame again: cache hits
        assert [c.factor_count for c in conds] == [1] * dec.m
        frame(_frame(ms, 10))           # a new frame: one factor each
        assert [c.factor_count for c in conds] == [2] * dec.m
        assert all(st.records[s].factor_time > 0.0 for s in range(dec.m))


class TestCondensationPass:
    """A frame's operators come from one gain pass over the Step-2 stack,
    restricted to the subsystems whose linearization point moved."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        """Every gain assembly: ``(estimator, parts)``."""
        seen = []
        gain_at = WlsEstimator.gain_at

        def recording(self, *args, **kwargs):
            seen.append((self, kwargs.get("parts")))
            return gain_at(self, *args, **kwargs)

        monkeypatch.setattr(WlsEstimator, "gain_at", recording)
        return seen

    @pytest.mark.parametrize("case", ["dse118", "dse_wecc"])
    def test_one_gain_pass_per_frame(self, case, request, passes, monkeypatch):
        dec, ms = request.getfixturevalue(case)
        dse = DistributedStateEstimator(dec, ms, condense=True)
        conds = [dse._step2_cache[s][0] for s in range(dec.m)]
        dse.run(rounds=2)                   # a cold frame builds the stacks
        walls = []
        condense = condensation.condense

        def timed(*args):
            walls.append(condense(*args))
            return walls[-1]

        monkeypatch.setattr(condensation, "condense", timed)
        passes.clear()
        count0 = [c.factor_count for c in conds]
        time0 = [c.factor_time for c in conds]
        z = _frame(ms, 5)
        res = dse.run(z=z)
        # one gain fill over the stack for all subsystems, none per member
        assert passes == [(dse._stacks["step2"], list(range(dec.m)))]
        assert [c.factor_count - n for c, n in zip(conds, count0)] == [1] * dec.m
        # the records' factor times are the pass's wall, shared out
        spent = [c.factor_time - t for c, t in zip(conds, time0)]
        assert all(t > 0.0 for t in spent)
        assert sum(spent) == pytest.approx(sum(walls), rel=1e-9)
        assert [res.records[s].factor_time for s in range(dec.m)] == spent
        # every operator is the one its own estimator's gain condenses to
        for cond in conds:
            vm, va, w = cond._lin_cache
            ref = SchurGainSolver(cond.boundary_states, cond.est.n_states)
            kernel, _, gain = cond.est.gain_at(vm, va, w)
            ref.factor_gain(kernel, gain)
            assert np.array_equal(cond.schur._S, ref._S)
            assert np.array_equal(cond.schur._W, ref._W)
        # the same frame again: every key hits, no pass at all
        passes.clear()
        again = dse.run(z=z)
        assert passes == [] and walls[-1] == 0.0
        assert [c.factor_count - n for c, n in zip(conds, count0)] == [1] * dec.m
        assert np.array_equal(again.Vm, res.Vm) and np.array_equal(again.Va, res.Va)

    def test_adopted_checkpoints_skip_the_pass(self, dse118, passes):
        """A host that adopts every subsystem from its checkpoint runs the
        stacked frozen round on the donor's operators: nothing refactors,
        and the round is the donor's, bit for bit."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        conds = [dse._step2_cache[s][0] for s in range(dec.m)]
        z = _frame(ms, 6)
        donor = SubsystemStepper(dse, range(dec.m), z=z)
        donor.step1()
        for rnd in (0, 1):
            donor.step2_round(rnd)
        counts = [c.factor_count for c in conds]
        assert counts == [1] * dec.m
        heir = SubsystemStepper(dse, [], z=z)
        for s in range(dec.m):
            ck = SubsystemCheckpoint(
                subsystem=s, site=0, epoch=0, round=1, **donor.checkpoint(s)
            )
            heir.adopt(SubsystemCheckpoint.from_payload(ck.to_payload()))
        assert all(c.lin_point_cached(heir.lin[s]) for s, c in enumerate(conds))
        passes.clear()
        heir.step2_round(2)
        assert passes == []
        assert [c.factor_count for c in conds] == counts
        donor.step2_round(2)
        assert np.array_equal(heir.Vm, donor.Vm) and np.array_equal(heir.Va, donor.Va)


# ---------------------------------------------------------------------------
# (5) the stacked rounds are observed like the per-block ones were
# ---------------------------------------------------------------------------

def test_stacked_rounds_feed_the_condensed_metrics(dse118):
    dec, ms = dse118
    dse = DistributedStateEstimator(dec, ms, condense=True)
    obs.configure(enabled=True, reset=True)
    try:
        res = dse.run(rounds=3)
        spans = obs.tracer().finished()
        got = {
            (m["name"], *m["labels"].values()): m.get("value", m.get("count"))
            for m in obs.metrics().collect()
        }
    finally:
        obs.configure(enabled=False, reset=True)
    frozen = int(_iterations(res)[1:].sum())
    assert got["wls.iterations_total", "schur"] == frozen > 0
    assert got["wls.estimate.seconds", "schur"] == 2      # one per frozen round
    assert got["dse.condensation.factorizations_total",] == dec.m
    assert got["dse.step2.solve.seconds", "condensed"] == 3 * dec.m
    assert ("dse.condensation.fallbacks_total",) not in got
    subs = [d for d in spans if d["name"] == "dse.step2.subsystem"]
    assert len(subs) == 3 * dec.m and all(d["attrs"]["apportioned"] for d in subs)
    # shares of a round follow the paper's weight, buses x iterations
    recs = [res.records[s] for s in range(dec.m)]
    wv = np.array(
        [r.step2_results[2].iterations * dse.sub2[r.s][0].n_bus for r in recs], float
    )
    times = np.array([r.step2_times[2] for r in recs])
    np.testing.assert_allclose(times / times.sum(), wv / wv.sum(), rtol=1e-9)
    assert all(r.factor_time > 0.0 and len(r.step2_times) == 3 for r in recs)


def test_frozen_loop_argument_checks(dse118):
    dec, ms = dse118
    dse = DistributedStateEstimator(dec, ms, condense=True)
    cond = dse._step2_cache[0][0]
    with pytest.raises(ValueError, match="one frozen operator per block"):
        cond.est.estimate_blocks(x0=[None, None], operators=[cond.schur] * 2)
    with pytest.raises(ValueError, match="one tol"):
        cond.est.estimate_blocks(x0=[None], tol=[1e-8, 1e-8])
    # an operator that was never factored fails its block, typed
    (res,) = cond.est.estimate_blocks(x0=[None], operators=[cond.schur])
    assert isinstance(res, EstimationError) and "before factor" in str(res)
