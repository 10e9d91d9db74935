"""The round engine on its own: ``SubsystemStepper`` driven by a plain
``for`` loop — no threads, no sockets, no sleeps.

Every hosting of the same decomposition (one stepper for all ``m``, one per
subsystem, the paper's 9 → 3 Step-2 mapping) must produce the same bits,
because the engine builds every hosted subsystem's inputs from its view
before it solves any of them and applies the results afterwards.  The
frames between hosts go through the real wire codec, so the bytes counted
here are the bytes a deployment would move.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster.recovery import SubsystemCheckpoint
from repro.core import ArchitecturePrototype
from repro.core.runtime import pack_update, unpack_update
from repro.dse import (
    DistributedStateEstimator,
    SubsystemStepper,
    decompose,
    dse_pmu_placement,
    pseudo_measurements,
)
from repro.estimation.wls import EstimationError, WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements
from repro.middleware.message import state_update_nbytes

ROUNDS = 3


@pytest.fixture(scope="module")
def grid118():
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=np.random.default_rng(0))
    return dec, ms


def _frame(ms, seed):
    rng = np.random.default_rng(seed)
    return ms.z + ms.sigma * rng.standard_normal(len(ms))


def exchange_and_step(dse, steppers, rnd, lose=()):
    """One round over ``steppers``: every publication is packed, unpacked
    and absorbed by the host of its neighbour (except those whose
    ``(source, neighbour)`` pair is in ``lose``), then every host runs its
    Step-2 round.  Returns the payload bytes that crossed hosts."""
    host_of = {s: st for st in steppers for s in st.hosted}
    frames = [
        (s, nb, form, pack_update(form, s, ids, vm, va, values_only=rnd > 0))
        for st in steppers
        for s, nb, ids, vm, va, form in st.publications()
    ]
    for s, nb, form, payload in frames:
        if (s, nb) in lose:
            continue
        src, ids, vm, va = unpack_update(form, bytes(payload))
        if ids is None:  # values-only: the receiver knows the ordering
            ids = dse.publication_plan[src][nb][0]
        host_of[nb].absorb(ids, vm, va)
    for st in steppers:
        st.step2_round(rnd)
    return sum(len(payload) for *_, payload in frames)


def assembled(dse, steppers):
    """The system state from every host's own buses."""
    n = dse.dec.net.n_bus
    Vm, Va = np.full(n, np.nan), np.full(n, np.nan)
    for st in steppers:
        for s in st.hosted:
            own = dse.dec.buses(s)
            Vm[own], Va[own] = st.Vm[own], st.Va[own]
    return Vm, Va


def drive(dse, hosting, *, z=None, rounds=ROUNDS, lose=()):
    """One frame over ``hosting`` (a list of hosted-subsystem lists).
    Returns the assembled state, the payload bytes per round and the
    steppers."""
    steppers = [SubsystemStepper(dse, hosted, z=z) for hosted in hosting]
    for st in steppers:
        st.step1()
    wire = [exchange_and_step(dse, steppers, rnd, lose) for rnd in range(rounds)]
    return *assembled(dse, steppers), wire, steppers


class TestOneStepperPerSubsystem:
    @pytest.mark.parametrize("condense", [False, True])
    def test_equals_the_in_process_run(self, grid118, condense):
        """(a) ``m`` one-subsystem steppers exchanging real frames are the
        in-process estimator, bit for bit and byte for byte — a cold frame
        and a values-only frame after it."""
        dec, ms = grid118
        ref = DistributedStateEstimator(dec, ms, condense=condense)
        dse = DistributedStateEstimator(dec, ms, condense=condense)
        for z in (None, _frame(ms, 5)):
            want = ref.run(z=z, rounds=ROUNDS)
            Vm, Va, wire, steppers = drive(dse, [[s] for s in range(dec.m)], z=z)
            assert np.array_equal(Vm, want.Vm)
            assert np.array_equal(Va, want.Va)
            assert sum(wire) == want.total_bytes_exchanged
            for st in steppers:
                (s,) = st.hosted
                assert st.records[s].bytes_sent_per_round == (
                    want.records[s].bytes_sent_per_round
                )
                assert [r.iterations for r in st.records[s].step2_results] == [
                    r.iterations for r in want.records[s].step2_results
                ]

    def test_all_hosting_stepper_publishes_nothing(self, grid118):
        dec, ms = grid118
        dse = DistributedStateEstimator(dec, ms)
        st = SubsystemStepper(dse, range(dec.m))
        st.step1()
        assert st.publications() == []
        assert st.known.all()


class TestMappingHosts:
    def test_nine_subsystems_on_three_clusters(self, grid118):
        """(b) Three steppers hosting the paper's Step-2 mapping (Table II,
        Fig. 5): same bits again, and the bytes that cross hosts each round
        are the mapping's edge cut — ``We`` of Expression 5 — plus one
        frame header per direction of every cut quotient edge."""
        dec, ms = grid118
        arch = ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)
        assert np.array_equal(arch.dec.part, dec.part)
        dse = DistributedStateEstimator(dec, ms)
        map1 = arch.mapper.map_step1(dec, 0.5)
        map2, _ = arch.mapper.remap_step2(dec, 0.5, map1, dse.exchange_sets)
        hosting = [hosted for hosted in map2.as_dict().values()]
        assert len(hosting) == 3 and sorted(map(len, hosting)) != [1, 1, 7]

        z = _frame(ms, 6)
        want = DistributedStateEstimator(dec, ms).run(z=z, rounds=ROUNDS)
        Vm, Va, wire, steppers = drive(dse, hosting, z=z)
        assert np.array_equal(Vm, want.Vm)
        assert np.array_equal(Va, want.Va)

        cut_edges = [
            (u, v) for u, v in dec.quotient_edges()
            if map2.assignment[u] != map2.assignment[v]
        ]
        header = state_update_nbytes(0)
        per_round = 24 * map2.edge_cut + 2 * header * len(cut_edges)
        assert wire == [per_round] * ROUNDS
        # the values checked by hand when this test was written
        assert (map2.edge_cut, len(cut_edges), per_round) == (181, 7, 4456)
        assert want.total_bytes_exchanged == ROUNDS * 8816
        # co-hosted neighbours never appear on the wire
        for st in steppers:
            assert all(nb not in st.hosted for _, nb, *_ in st.publications())


class TestPartialCoverage:
    def test_missed_neighbour_solves_on_what_was_heard(self, grid118):
        """(c) A host that never hears one neighbour solves on the partial
        pseudo set from the flat start: its cached Step-2 estimator with
        the silent neighbour's pseudo rows at weight 0 — within 1e-12 of,
        and in as many iterations as, a WLS built by hand over its Step-2
        measurements plus the pseudo measurements of the external buses it
        did hear."""
        dec, ms = grid118
        dse = DistributedStateEstimator(dec, ms)
        s = 0
        silent = int(dec.neighbors(s)[0])
        *_, steppers = drive(
            dse, [[k] for k in range(dec.m)], rounds=1, lose={(silent, s)}
        )
        st = steppers[s]
        subnet2, bmap2, xbuses, ext, ms2 = dse.sub2[s]
        heard = ext[st.known[ext]]
        assert 0 < len(heard) < len(ext)
        assert set(dec.part[ext[~st.known[ext]]]) == {silent}

        # rebuild round 0's view: own Step-1 solution, heard neighbours'
        # Step-1 publications, flat where nothing arrived
        step1 = DistributedStateEstimator(dec, ms).run(rounds=1).records
        vm, va = np.ones(dec.net.n_bus), np.zeros(dec.net.n_bus)
        for k in range(dec.m):
            if k != silent:
                vm[dec.buses(k)] = step1[k].step1_result.Vm
                va[dec.buses(k)] = step1[k].step1_result.Va
        (got,) = st.records[s].step2_results
        z2, w2, x0 = dse._step2_inputs(s, vm, va, st.known, {}, None, None)
        assert np.count_nonzero(w2 == 0) == 2 * (len(ext) - len(heard))
        masked = dse._step2_cache[s][0].estimate(x0=x0, z=z2, weights=w2)
        assert np.array_equal(got.Vm, masked.Vm)
        assert np.array_equal(got.Va, masked.Va)
        assert got.iterations == masked.iterations

        by_hand = WlsEstimator(
            subnet2,
            ms2.merged_with(pseudo_measurements(bmap2[heard], vm[heard], va[heard])),
        ).estimate(x0=(vm[xbuses], va[xbuses]))
        assert np.max(np.abs(got.Vm - by_hand.Vm)) <= 1e-12
        assert np.max(np.abs(got.Va - by_hand.Va)) <= 1e-12
        assert got.iterations == by_hand.iterations
        # the full-coverage hosts are untouched by their neighbour's loss
        other = next(k for k in range(dec.m) if k not in (s, silent))
        clean = drive(dse, [[k] for k in range(dec.m)], rounds=1)[3][other]
        assert np.array_equal(
            steppers[other].records[other].step2_results[0].Vm,
            clean.records[other].step2_results[0].Vm,
        )

    def test_update_naming_a_hosted_or_unknown_bus_is_rejected(self, grid118):
        dec, ms = grid118
        st = SubsystemStepper(DistributedStateEstimator(dec, ms), [0])
        before = (st.Vm.copy(), st.Va.copy(), st.known.copy())
        own = dec.buses(0)[:1]
        for ids in (own, [dec.net.n_bus], [-1]):
            with pytest.raises(ValueError, match="unknown or hosted"):
                st.absorb(np.asarray(ids), [1.1], [0.1])
        for a, b in zip(before, (st.Vm, st.Va, st.known)):
            assert np.array_equal(a, b)


class TestCheckpointAdopt:
    @pytest.mark.parametrize("condense", [False, True])
    def test_adopted_subsystem_continues_bit_identically(self, grid118, condense):
        """(d) ``checkpoint()`` → wire → ``adopt()`` on another host: the
        promoted subsystem resumes from the donor's warm start and carried
        factor's point, so the frame ends on the same bits and no store
        takes a factor a second time."""
        dec, ms = grid118
        dse = DistributedStateEstimator(dec, ms, condense=condense)
        z = _frame(ms, 7)
        hosting = [[k] for k in range(dec.m)]
        want_vm, want_va, *_ = drive(dse, hosting, z=z, rounds=4)
        factors = [dse._est2(k).factors.count for k in range(dec.m)]

        moved, successor = 3, 5
        *_, steppers = drive(dse, hosting, z=z, rounds=2)
        donor, heir = steppers[moved], steppers[successor]
        payload = SubsystemCheckpoint(
            subsystem=moved, site=moved, epoch=0, round=1,
            **donor.checkpoint(moved),
        ).to_payload()
        donor.shed(moved)
        assert donor.hosted == [] and moved not in donor.records
        heir.adopt(SubsystemCheckpoint.from_payload(payload))
        assert heir.hosted == [moved, successor]
        assert moved in heir.last2 and moved in heir.carry

        # two more rounds with the heir hosting both
        live = [st for st in steppers if st.hosted]
        for rnd in (2, 3):
            exchange_and_step(dse, live, rnd)
        Vm, Va = assembled(dse, live)
        assert np.array_equal(Vm, want_vm)
        assert np.array_equal(Va, want_va)
        # the moved subsystem's carried factor was the donor's:
        # no store took a factor it did not take the first time
        assert [dse._est2(k).factors.count for k in range(dec.m)] == factors


class TestSnapshotRule:
    def test_apply_order_does_not_matter(self, grid118):
        """(e) A two-subsystem host gives the same bits whichever hosted
        subsystem is applied first: both solve on the view as it stood
        when the round began."""
        dec, ms = grid118
        dse = DistributedStateEstimator(dec, ms)
        a = 0
        b = int(dec.neighbors(a)[0])
        rest = [[k] for k in range(dec.m) if k not in (a, b)]
        z = _frame(ms, 8)
        forward = drive(dse, [[a, b], *rest], z=z)
        # same hosting, the pair solved and applied in the opposite order
        steppers = [SubsystemStepper(dse, h, z=z) for h in ([a, b], *rest)]
        steppers[0].hosted.reverse()
        assert steppers[0].hosted == sorted([a, b], reverse=True)
        for st in steppers:
            st.step1()
        for rnd in range(ROUNDS):
            exchange_and_step(dse, steppers, rnd)
        backward = assembled(dse, steppers)
        assert np.array_equal(backward[0], forward[0])
        assert np.array_equal(backward[1], forward[1])
        # and both are the one-stepper-for-all run
        want = DistributedStateEstimator(dec, ms).run(z=z, rounds=ROUNDS)
        assert np.array_equal(forward[0], want.Vm)
        assert np.array_equal(forward[1], want.Va)


class TestRaisingFrameIsTraced:
    def test_failed_round_exports_its_span(self, grid118):
        """A Step-2 solve that raises still leaves a ``dse.step2`` span —
        with error status — and no exported span points at a parent that
        was never emitted."""
        dec, ms = grid118
        z = ms.z.copy()
        dse = DistributedStateEstimator(dec, ms)
        # a tie-line row: Step 1 never reads it, Step 2 of its subsystem does
        s = 0
        step2_only = dse.assignment.step2_extra[s]
        assert len(step2_only)
        z[step2_only[0]] = np.nan
        obs.configure(enabled=True, reset=True)
        try:
            with pytest.raises(EstimationError):
                dse.run(z=z)
            spans = obs.tracer().finished()
        finally:
            obs.configure(enabled=False, reset=True)
        ids = {d["span"] for d in spans}
        assert all(d["parent"] is None or d["parent"] in ids for d in spans)
        (step2,) = [d for d in spans if d["name"] == "dse.step2"]
        assert step2["status"] == "error"
        (frame,) = [d for d in spans if d["name"] == "dse.frame"]
        assert frame["status"] == "error" and step2["parent"] == frame["span"]
