"""The condensed Step 2 as rounds: how many iterations it takes, where its
carried gain factors are taken, and that the stacked loop is the
per-block one.

``condense=True`` changes only the wire form: every round of a condensed
frame is the exact Gauss-Newton solve of the reference, each round after
the first starting where the previous round stopped and from the gain
factor that round last took — the factor its loop leaves, adopted.  A
stage that names every subsystem runs a round as one masked loop over the
union of the subsystems; a partial job set runs it block by block —
through the same loop, so on the same bits.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster.recovery import SubsystemCheckpoint
from repro.core.runtime import LiveDseRuntime
from repro.dse import (
    DistributedStateEstimator,
    SubsystemStepper,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.dse.stepper import SolveFailure, solve_stage
from repro.estimation.wls import WlsEstimator
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


def _gap(a, b):
    return max(np.abs(a.Vm - b.Vm).max(), np.abs(a.Va - b.Va).max())


# ---------------------------------------------------------------------------
# (1) iteration counts: the quantity the architecture multiplies
# ---------------------------------------------------------------------------

class TestIterationCounts:
    def test_wecc37_frame(self, dse_wecc):
        """Before the warm start was left alone, these two frames took
        1 008 / 1 024 reference Step-2 iterations (now 645 / 651), up to 53
        of them on one stiff area in every round.  The frozen-gain rounds
        the condensed mode once ran took 733 / 747; it now runs the
        reference rounds, iteration for iteration."""
        dec, ms = dse_wecc
        ref = DistributedStateEstimator(dec, ms)
        con = DistributedStateEstimator(dec, ms, condense=True)
        for seed in (2, 3):
            z = _frame(ms, seed)
            r, c = ref.run(z=z), con.run(z=z)
            assert r.rounds == c.rounds == 7
            it_ref, it_con = _iterations(r), _iterations(c)
            assert it_ref.sum() <= 750
            assert it_ref.max() <= 12
            assert np.array_equal(it_con, it_ref)
            assert _gap(r, c) == 0.0

    def test_ieee118_frame(self, dse118):
        """Totals on these two frames before the change: 110 / 110
        reference (now 104 / 100), the same in the condensed mode."""
        dec, ms = dse118
        ref = DistributedStateEstimator(dec, ms)
        con = DistributedStateEstimator(dec, ms, condense=True)
        for seed in (2, 3):
            z = _frame(ms, seed)
            r, c = ref.run(z=z, rounds=3), con.run(z=z, rounds=3)
            assert _iterations(r).sum() <= 110
            assert _iterations(r).max() <= 12
            assert np.array_equal(_iterations(c), _iterations(r))
            assert _gap(r, c) == 0.0

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
# (2) stacked rounds == per-block rounds, bit for bit
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
        assert _iterations(stacked[1])[1:].max() > 1     # later rounds iterate
        for got, want in zip(_frames(dec, ms, job_by_job), stacked, strict=True):
            assert_same_frame(got, want)


# ---------------------------------------------------------------------------
# (3) a block that cannot be solved is alone in it
# ---------------------------------------------------------------------------

def _rows_reading_bus(est, k):
    """The rows of ``est``'s set whose measurement function reads bus
    ``k``'s voltage: without them no row observes it."""
    n = est.net.n_bus
    H = est._jacobian_at(np.full(n, 1.02), np.linspace(0.0, 0.1, n)).tocsc()
    return np.unique(H[:, np.isin(est._keep, [k, n + k])].indices)


class TestBlockFailsAlone:
    def test_gain_that_does_not_factor_fails_its_block_alone(self, dse118):
        """A carried round whose gain is not positive definite for one
        subsystem — every row reading one of its interior buses removed —
        fails that block alone, typed and named, and keys no factor for
        it; the other blocks run on, on the bits of the clean round."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        st = SubsystemStepper(dse, range(dec.m), z=_frame(ms, 7))
        st.step1()
        st.step2_round(0)
        bad = 3
        est = dse._est2(bad)
        interior = np.setdiff1d(dec.buses(bad), dec.boundary_buses(bad))[0]
        w = est.mset.weights
        w[_rows_reading_bus(est, dse.sub2[bad][1][interior])] = 0.0
        jobs = st.step2_jobs(1)
        assert all(job[-1] is not None for job in jobs)     # every block carried
        poisoned = [
            (*job[:4], w, job[5]) if job[0] == bad else job for job in jobs
        ]
        count = est.factors.count
        got = solve_stage(dse, "step2", poisoned, st.tol, degrade=True)
        want = solve_stage(dse, "step2", jobs, st.tol, degrade=True)
        assert isinstance(got[bad][0], SolveFailure)
        assert got[bad][0].message.startswith(
            "EstimationError('subsystem 3 step2: normal-equation solve failed: "
            "gain matrix is not positive definite"
        )
        assert est.factors.get(jobs[bad][-1], w) is None
        assert est.factors.count == count
        for s in set(range(dec.m)) - {bad}:
            g, c = got[s][0], want[s][0]
            assert np.array_equal(g.Vm, c.Vm) and np.array_equal(g.Va, c.Va)
            assert g.step_norms == c.step_norms

    def test_poisoned_area_degrades_alone_and_freezes_late(self, dse118):
        """A NaN in one area's Step-2 telemetry degrades that area only; it
        carries a gain factor from its first round that succeeds on, the
        one that round's loop last took."""
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
        assert st.records[bad].failures[0].startswith(
            "step2 round 0: InputError('subsystem 0 step2: z row"
        )
        assert sorted(st.carry) == [s for s in range(dec.m) if s != bad]
        assert st.records[bad].step2_results == []
        assert all(len(st.records[s].step2_results) == 2 for s in st.carry)

        st.z = clean                # the next scan of that meter is good
        st.step2_round(2)
        first = st.records[bad].step2_results[0]
        assert st.carry[bad] is first.factored_at
        assert dse._est2(bad).factors.get(st.carry[bad]) is not None
        st.step2_round(3)           # every block carried again: one loop
        assert len(st.records[bad].step2_results) == 2
        assert np.all(np.isfinite(st.Vm)) and np.all(np.isfinite(st.Va))


# ---------------------------------------------------------------------------
# (4) the carried point: where round 0 last factored, one factor per frame
# ---------------------------------------------------------------------------

class TestLinearizationPoint:
    def test_frozen_at_the_round0_solution(self, dse118):
        """On a clean IEEE-118 frame the rounds after the first factor
        nothing: every subsystem carries round 0's last factor — taken
        within a step below √tol of round 0's solution — to the frame's
        end, and a frame takes one factor per subsystem."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        stores = [dse._est2(s).factors for s in range(dec.m)]

        def frame(z):
            st = SubsystemStepper(dse, range(dec.m), z=z)
            st.step1()
            for rnd in range(3):
                st.step2_round(rnd)
            return st

        st = frame(_frame(ms, 9))
        for s, store in enumerate(stores):
            first = st.records[s].step2_results[0]
            assert st.carry[s] is first.factored_at
            assert np.abs(st.carry[s][0] - first.Vm).max() <= 2e-4
            assert np.abs(st.carry[s][1] - first.Va).max() <= 2e-4
            assert store.get(st.carry[s]) is not None
        assert [f.count for f in stores] == [1] * dec.m
        frame(_frame(ms, 9))            # the same frame again: store hits
        assert [f.count for f in stores] == [1] * dec.m
        st = frame(_frame(ms, 10))      # a new frame: one factor each
        assert [f.count for f in stores] == [2] * dec.m
        assert all(st.records[s].factor_time > 0.0 for s in range(dec.m))


class TestCondensationPass:
    """A frame's carried factors are the ones its loops left, adopted with
    no gain pass; a host that did not run those rounds refactors in one
    gain pass over the Step-2 stack, restricted to the subsystems whose
    carried point it misses, on the same bits."""

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
        """A clean frame makes no gain pass at all: every carried factor
        was adopted where a loop last factored, and is the one its own
        estimator gives at the factor's key — which is what a successor
        that refactors gets."""
        dec, ms = request.getfixturevalue(case)
        dse = DistributedStateEstimator(dec, ms, condense=True)
        stores = [dse._est2(s).factors for s in range(dec.m)]
        dse.run(rounds=2)                   # a cold frame builds the stacks
        passes.clear()
        count0 = [f.count for f in stores]
        time0 = [f.seconds for f in stores]
        z = _frame(ms, 5)
        res = dse.run(z=z)
        # no gain assembled: every carried round finds its key held
        assert passes == []
        taken = [f.count - n for f, n in zip(stores, count0)]
        assert taken == [
            sum(r.factored_at is not None for r in res.records[s].step2_results)
            for s in range(dec.m)
        ]
        # the records' factor times are the adoptions' copies
        spent = [f.seconds - t for f, t in zip(stores, time0)]
        assert all(t > 0.0 for t in spent)
        assert [res.records[s].factor_time for s in range(dec.m)] == spent
        # every held factor is the factor of its own estimator's gain at its
        # key, in the form its block's mode holds: the band or the packed
        # triangle
        for s, held in enumerate(stores):
            key = _last_factored_at(res.records[s])
            spd, _ = dse._est2(s).factor_at(*key)
            fresh = spd._chol if spd.mode == "band" else spd.lower_packed()
            assert held.get(key).mode == spd.mode
            assert np.array_equal(held.get(key)._factor, fresh)
        # the same frame again: every key hits, no pass at all
        passes.clear()
        count1 = [f.count for f in stores]
        again = dse.run(z=z)
        assert passes == []
        assert np.array_equal(again.Vm, res.Vm) and np.array_equal(again.Va, res.Va)
        if case == "dse118":        # one factor per subsystem and frame
            assert taken == [1] * dec.m and count1 == [f.count for f in stores]

    def test_a_host_without_round0_refactors_in_one_pass(self, dse118, passes):
        """A host that restores every subsystem from checkpoints on a DSE
        that never ran the frame's round 0 holds no carried factor: one
        gain pass over its Step-2 stack refactors them all at the
        checkpointed points, on the adopting donor's bits."""
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
        stacked round on the donor's carried factors: nothing refactors,
        and the round is the donor's, bit for bit."""
        dec, ms = dse118
        dse = DistributedStateEstimator(dec, ms, condense=True)
        stores = [dse._est2(s).factors for s in range(dec.m)]
        z = _frame(ms, 6)
        donor = SubsystemStepper(dse, range(dec.m), z=z)
        donor.step1()
        for rnd in (0, 1):
            donor.step2_round(rnd)
        counts = [f.count for f in stores]
        assert counts == [1] * dec.m
        heir = SubsystemStepper(dse, [], z=z)
        for s in range(dec.m):
            ck = SubsystemCheckpoint(
                subsystem=s, site=0, epoch=0, round=1, **donor.checkpoint(s)
            )
            heir.adopt(SubsystemCheckpoint.from_payload(ck.to_payload()))
        assert all(f.get(heir.carry[s]) for s, f in enumerate(stores))
        passes.clear()
        heir.step2_round(2)
        assert passes == []
        assert [f.count for f in stores] == counts
        donor.step2_round(2)
        assert np.array_equal(heir.Vm, donor.Vm) and np.array_equal(heir.Va, donor.Va)


def _last_factored_at(rec):
    """The point of the last factor a subsystem's Step-2 rounds took."""
    return [r.factored_at for r in rec.step2_results if r.factored_at is not None][-1]


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
    step1 = sum(rec.step1_result.iterations for rec in res.records.values())
    assert got["wls.iterations_total", "lu"] == step1 + int(_iterations(res).sum())
    assert got["wls.estimate.seconds", "lu"] == 4     # Step 1 and three rounds
    assert not any(key[1:] == ("frozen",) for key in got)
    # every carried factor is a loop's, adopted: nothing refactors
    assert ("dse.condensation.factorizations_total",) not in got
    assert [dse._est2(s).factors.count for s in range(dec.m)] == [1] * dec.m
    assert got["dse.step2.solve.seconds", "condensed"] == 3 * dec.m
    assert got["dse.exchange_bytes", "condensed"] == res.total_bytes_exchanged
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
    """A stacked round whose every block starts from its carried factor
    and contracts on it takes each iteration's right-hand side from the
    gradient: no Jacobian is filled, weighted or contracted, and the round
    is the one it was."""
    from repro.estimation.solvers import NormalEquations
    from repro.measurements.functions import JacobianStructure

    dec, ms = dse118
    dse = DistributedStateEstimator(dec, ms, condense=True)
    res = dse.run(z=_frame(ms, 13), rounds=2)
    lins = [res.records[s].step2_results[0].factored_at for s in range(dec.m)]
    x0 = [(vm + 1e-5, va) for vm, va in lins]
    args = dict(x0=x0, carried=lins)
    stack = dse._stacks["step2"]
    want = stack.estimate_blocks(**args)
    assert all(w.factorizations == 0 for w in want)

    def refuse(*args, **kwargs):
        raise AssertionError("a carried round filled the Jacobian")

    monkeypatch.setattr(JacobianStructure, "fill_data", refuse)
    monkeypatch.setattr(NormalEquations, "weighted", refuse)
    monkeypatch.setattr(NormalEquations, "rhs", refuse)
    got = stack.estimate_blocks(**args)
    for g, w in zip(got, want):
        assert g.converged and g.iterations > 1
        assert np.array_equal(g.Vm, w.Vm) and np.array_equal(g.Va, w.Va)
        assert g.step_norms == w.step_norms


def test_carried_loop_argument_checks(dse118):
    dec, ms = dse118
    est = DistributedStateEstimator(dec, ms, condense=True)._est2(0)
    with pytest.raises(ValueError, match="one carried point per block"):
        est.estimate_blocks(x0=[None, None], carried=[None])
    with pytest.raises(ValueError, match="one carried point per block"):
        est.estimate_blocks(x0=[None, None], carried=[None, None])  # replicas
    with pytest.raises(ValueError, match="one tol"):
        est.estimate_blocks(x0=[None], tol=[1e-8, 1e-8])


# ---------------------------------------------------------------------------
# (6) a carried factor is the inverse of the gain at its point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dse118_4(net118, pf118):
    return _dse_case(net118, decompose(net118, 4, seed=0), pf118)


@pytest.mark.parametrize(
    "case, areas", [("dse118_4", [0, 1, 2, 3]), ("dse_wecc", [0, 18, 36])]
)
def test_frozen_operator_inverts_the_gain(case, areas, request):
    """After a condensed frame, each subsystem's held factor solves the
    gain its own estimator assembles at the factor's point, as a dense
    solve does."""
    dec, ms = request.getfixturevalue(case)
    dse = DistributedStateEstimator(dec, ms, condense=True)
    res = dse.run(z=_frame(ms, 11))
    rng = np.random.default_rng(12)
    for s in areas:
        est, key = dse._est2(s), _last_factored_at(res.records[s])
        kernel, _, gain = est.gain_at(*key)
        G = kernel.spd.matrix(gain).toarray()
        rhs = rng.standard_normal(est.n_states)
        want = np.linalg.solve(G, rhs)
        got = est.factors.get(key).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
