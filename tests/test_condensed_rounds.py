"""The condensed Step 2 as rounds: how many iterations it takes, where its
gain is frozen, and that the stacked frozen-gain loop is the per-block one.

Round 0 of a condensed frame is the exact Gauss-Newton solve; every later
round iterates with the gain factor frozen where round 0's loop last
factored it — the factor that loop leaves, adopted — and starts where the
previous round stopped.  A stage that names every
subsystem runs those rounds as one masked loop over the union of the
subsystems; a partial job set runs them block by block — through the same
loop, so on the same bits.
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

def _frames(dec, ms, solve=None):
    """A cold run and two values-only frames through one estimator:
    ``dse.run``, or ``solve(dse, z=, rounds=)`` when given."""
    dse = DistributedStateEstimator(dec, ms, condense=True)
    solve = solve or DistributedStateEstimator.run
    return [solve(dse, z=z, rounds=4) for z in (None, _frame(ms, 5), _frame(ms, 6))]


def assert_same_frame(got, want):
    assert np.array_equal(got.Vm, want.Vm) and np.array_equal(got.Va, want.Va)
    for s, rec in want.records.items():
        for g, w in zip(got.records[s].step2_results, rec.step2_results, strict=True):
            assert np.array_equal(g.Vm, w.Vm) and np.array_equal(g.Va, w.Va)
            assert np.array_equal(g.residuals, w.residuals)
            assert g.iterations == w.iterations
            assert g.step_norms == w.step_norms


class TestStackedEqualsPerBlock:
    def test_ieee118_per_block(self, dse118, job_by_job):
        dec, ms = dse118
        stacked = _frames(dec, ms)
        for got, want in zip(_frames(dec, ms, job_by_job), stacked, strict=True):
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

    def test_wecc37_per_block(self, dse_wecc, job_by_job):
        dec, ms = dse_wecc
        stacked = _frames(dec, ms)
        assert _iterations(stacked[1])[1:].max() > 1     # frozen rounds iterate
        for got, want in zip(_frames(dec, ms, job_by_job), stacked, strict=True):
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

    def test_gain_that_does_not_factor_fails_its_block_alone(self, dse118):
        """A frozen gain that is not positive definite leaves its block an
        operator that fails typed, and no key; the other blocks run on."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        res = dse.run(rounds=2)
        conds = [dse._step2_cache[s][0] for s in range(dec.m)]
        x0 = [res.records[s].step2_results[0].factored_at for s in range(dec.m)]
        bad = 3
        lins = list(x0)
        lins[bad] = (np.full_like(x0[bad][0], 1e-160), x0[bad][1])   # no voltage
        counts = [c.est.factors.count for c in conds]
        results = condensation.frozen_round(
            dse._stacks["step2"], conds, x0=x0, z=[None] * dec.m,
            weights=[None] * dec.m, lin_points=lins,
        )
        assert isinstance(results[bad], EstimationError)
        assert "frozen gain: gain matrix is not positive definite" in str(results[bad])
        assert conds[bad].est.factors.get(lins[bad]) is None
        assert [c.est.factors.count for c in conds] == counts
        assert all(
            res.converged for s, res in enumerate(results) if s != bad
        )
        assert _fallbacks(dse) == 0

    def test_poisoned_area_degrades_alone_and_freezes_late(self, dse118):
        """A NaN in one area's Step-2 telemetry degrades that area only; its
        gain is frozen where its first round that succeeds last factored,
        and that round's factor is the one it holds."""
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
        assert sorted(st.carry) == [s for s in range(dec.m) if s != bad]
        assert st.records[bad].step2_results == []
        assert all(len(st.records[s].step2_results) == 2 for s in st.carry)

        st.z = clean                # the next scan of that meter is good
        st.step2_round(2)
        first = st.records[bad].step2_results[0]
        assert st.carry[bad] is first.factored_at
        assert dse._est2(bad).factors.get(st.carry[bad]) is not None
        st.step2_round(3)           # every block frozen again: one loop
        assert len(st.records[bad].step2_results) == 2
        assert _fallbacks(dse) == 0
        assert np.all(np.isfinite(st.Vm)) and np.all(np.isfinite(st.Va))


# ---------------------------------------------------------------------------
# (4) the linearization point: round 0's last factored state, one factor per
# frame
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
            # the state round 0 last factored at: its held tail's, whose
            # step was below √tol
            first = st.records[s].step2_results[0]
            assert st.carry[s] is first.factored_at
            assert np.abs(st.carry[s][0] - first.Vm).max() <= 2e-4
            assert np.abs(st.carry[s][1] - first.Va).max() <= 2e-4
            assert cond.est.factors.get(st.carry[s]) is not None
        assert [c.est.factors.count for c in conds] == [1] * dec.m
        frame(_frame(ms, 9))            # the same frame again: store hits
        assert [c.est.factors.count for c in conds] == [1] * dec.m
        st = frame(_frame(ms, 10))      # a new frame: one factor each
        assert [c.est.factors.count for c in conds] == [2] * dec.m
        assert all(st.records[s].factor_time > 0.0 for s in range(dec.m))


class TestCondensationPass:
    """A frame's operators are the factors its exact round 0 left, adopted
    with no gain pass; a host that did not run that round refactors in one
    gain pass over the Step-2 stack, restricted to the subsystems whose
    linearization point moved, on the same bits."""

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
    def test_one_gain_pass_per_frame(self, case, request, passes):
        """A clean frame makes no gain pass at all: every subsystem adopts
        round 0's last factor, the one its own estimator gives at the
        factor's key — which is what a successor that refactors gets."""
        dec, ms = request.getfixturevalue(case)
        dse = DistributedStateEstimator(dec, ms, condense=True)
        stores = [dse._est2(s).factors for s in range(dec.m)]
        dse.run(rounds=2)                   # a cold frame builds the stacks
        passes.clear()
        count0 = [f.count for f in stores]
        time0 = [f.seconds for f in stores]
        z = _frame(ms, 5)
        res = dse.run(z=z)
        # no gain assembled: every frozen round finds every key held
        assert passes == []
        assert [f.count - n for f, n in zip(stores, count0)] == [1] * dec.m
        # the records' factor times are the adoptions' copies
        spent = [f.seconds - t for f, t in zip(stores, time0)]
        assert all(t > 0.0 for t in spent)
        assert [res.records[s].factor_time for s in range(dec.m)] == spent
        # every held factor is the factor of its own estimator's gain at its
        # key, in the form its block's mode holds: the band or the packed
        # triangle
        for s, held in enumerate(stores):
            key = res.records[s].step2_results[0].factored_at
            spd, _ = dse._est2(s).factor_at(*key)
            fresh = spd._chol if spd.mode == "band" else spd.lower_packed()
            assert held.get(key).mode == spd.mode
            assert np.array_equal(held.get(key)._factor, fresh)
        # the same frame again: every key hits, no pass at all
        passes.clear()
        again = dse.run(z=z)
        assert passes == []
        assert [f.count - n for f, n in zip(stores, count0)] == [1] * dec.m
        assert np.array_equal(again.Vm, res.Vm) and np.array_equal(again.Va, res.Va)

    def test_a_host_without_round0_refactors_in_one_pass(self, dse118, passes):
        """A host that restores every subsystem from checkpoints on a DSE
        that never ran the frame's round 0 holds no operator: one gain pass
        over its Step-2 stack refactors them all at the checkpointed
        points, on the adopting donor's bits."""
        dec, ms = dse118
        donor_dse = DistributedStateEstimator(dec, ms, condense=True)
        heir_dse = DistributedStateEstimator(dec, ms, condense=True)
        z = _frame(ms, 7)
        donor = SubsystemStepper(donor_dse, range(dec.m), z=z)
        donor.step1()
        for rnd in (0, 1):
            donor.step2_round(rnd)
        heir = SubsystemStepper(heir_dse, [], z=z)
        for s in range(dec.m):
            ck = SubsystemCheckpoint(
                subsystem=s, site=0, epoch=0, round=1, **donor.checkpoint(s)
            )
            heir.adopt(SubsystemCheckpoint.from_payload(ck.to_payload()))
        passes.clear()
        heir.step2_round(2)
        assert passes == [(heir_dse._stacks["step2"], list(range(dec.m)))]
        donor.step2_round(2)
        for s in range(dec.m):
            mine, theirs = heir_dse._est2(s).factors, donor_dse._est2(s).factors
            assert mine.count == theirs.count == 1
            key = heir.carry[s]
            assert np.array_equal(mine.get(key)._factor, theirs.get(key)._factor)
        assert np.array_equal(heir.Vm, donor.Vm) and np.array_equal(heir.Va, donor.Va)

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
        counts = [c.est.factors.count for c in conds]
        assert counts == [1] * dec.m
        heir = SubsystemStepper(dse, [], z=z)
        for s in range(dec.m):
            ck = SubsystemCheckpoint(
                subsystem=s, site=0, epoch=0, round=1, **donor.checkpoint(s)
            )
            heir.adopt(SubsystemCheckpoint.from_payload(ck.to_payload()))
        assert all(c.est.factors.get(heir.carry[s]) for s, c in enumerate(conds))
        passes.clear()
        heir.step2_round(2)
        assert passes == []
        assert [c.est.factors.count for c in conds] == counts
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
    assert got["wls.iterations_total", "frozen"] == frozen > 0
    assert got["wls.estimate.seconds", "frozen"] == 2     # one per frozen round
    # every operator is round 0's factor, adopted: nothing refactors
    assert ("dse.condensation.factorizations_total",) not in got
    assert [dse._est2(s).factors.count for s in range(dec.m)] == [1] * dec.m
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


def test_frozen_round_fills_no_jacobian(dse118, monkeypatch):
    """Once its operators are condensed, a frozen round takes each
    iteration's right-hand side from the gradient: no Jacobian is filled,
    weighted or contracted, and the round is the one it was."""
    from repro.estimation.solvers import NormalEquations
    from repro.measurements.functions import JacobianStructure

    dec, ms = dse118
    dse = DistributedStateEstimator(dec, ms, condense=True)
    res = dse.run(z=_frame(ms, 13), rounds=2)
    conds = [dse._step2_cache[s][0] for s in range(dec.m)]
    lins = [res.records[s].step2_results[0].factored_at for s in range(dec.m)]
    x0 = [(vm + 1e-4, va) for vm, va in lins]
    args = dict(x0=x0, z=[None] * dec.m, weights=[None] * dec.m, lin_points=lins)
    want = condensation.frozen_round(dse._stacks["step2"], conds, **args)

    def refuse(*args, **kwargs):
        raise AssertionError("a frozen round filled the Jacobian")

    monkeypatch.setattr(JacobianStructure, "fill_data", refuse)
    monkeypatch.setattr(NormalEquations, "weighted", refuse)
    monkeypatch.setattr(NormalEquations, "rhs", refuse)
    got = condensation.frozen_round(dse._stacks["step2"], conds, **args)
    assert _fallbacks(dse) == 0
    for g, w in zip(got, want):
        assert g.converged and g.iterations > 1
        assert np.array_equal(g.Vm, w.Vm) and np.array_equal(g.Va, w.Va)
        assert g.step_norms == w.step_norms


def test_frozen_loop_argument_checks(dse118):
    dec, ms = dse118
    dse = DistributedStateEstimator(dec, ms, condense=True)
    cond = dse._step2_cache[0][0]
    never = condensation._Unfactored("the frozen gain was never factored")
    with pytest.raises(ValueError, match="one frozen operator per block"):
        cond.est.estimate_blocks(x0=[None, None], operators=[never] * 2)
    with pytest.raises(ValueError, match="one tol"):
        cond.est.estimate_blocks(x0=[None], tol=[1e-8, 1e-8])
    # an operator that was never factored fails its block, typed
    (res,) = cond.est.estimate_blocks(x0=[None], operators=[never])
    assert isinstance(res, EstimationError) and "never factored" in str(res)


# ---------------------------------------------------------------------------
# (6) the frozen operator is the inverse of the gain frozen at the point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dse118_4(net118, pf118):
    return _dse_case(net118, decompose(net118, 4, seed=0), pf118)


@pytest.mark.parametrize(
    "case, areas", [("dse118_4", [0, 1, 2, 3]), ("dse_wecc", [0, 18, 36])]
)
def test_frozen_operator_inverts_the_gain(case, areas, request):
    """After a condensed frame, each subsystem's operator solves the gain
    its own estimator assembles at the frozen point, as a dense solve does."""
    dec, ms = request.getfixturevalue(case)
    dse = DistributedStateEstimator(dec, ms, condense=True)
    res = dse.run(z=_frame(ms, 11))
    rng = np.random.default_rng(12)
    for s in areas:
        est, key = dse._est2(s), res.records[s].step2_results[0].factored_at
        assert est.factors.count == 1
        kernel, _, gain = est.gain_at(*key)
        G = kernel.spd.matrix(gain).toarray()
        rhs = rng.standard_normal(est.n_states)
        want = np.linalg.solve(G, rhs)
        got = est.factors.get(key).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
