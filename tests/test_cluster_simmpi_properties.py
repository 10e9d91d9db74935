"""Property tests for the simulated MPI layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterSpec,
    ClusterTopology,
    LinkSpec,
    SimComm,
    SimEngine,
    pnnl_testbed,
)


def _two_rank_comm(latency=1e-4, bandwidth=1e8):
    eng = SimEngine()
    topo = ClusterTopology(
        clusters=[ClusterSpec(name="a"), ClusterSpec(name="b")],
        default_link=LinkSpec(latency=latency, bandwidth=bandwidth),
    )
    return eng, SimComm(eng, topo, ["a", "b"])


class TestFifoOrdering:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=20),
    )
    def test_same_pair_messages_arrive_in_send_order(self, sizes):
        """Property: equal-size-independent FIFO — messages between one
        (src, dst, tag) arrive in the order they were sent, because the
        receiver matches them in posting order."""
        eng, comm = _two_rank_comm()
        received = []

        def sender():
            for i, nb in enumerate(sizes):
                yield from comm.send(1, i, nbytes=float(nb), src=0)

        def receiver():
            for _ in sizes:
                msg = yield from comm.recv(0, dst=1)
                received.append(msg)

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        assert received == list(range(len(sizes)))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 15),
        seed=st.integers(0, 1000),
    )
    def test_tag_isolation(self, n, seed):
        """Property: messages on different tags never cross-match."""
        rng = np.random.default_rng(seed)
        eng, comm = _two_rank_comm()
        tags = rng.integers(0, 3, n).tolist()
        got: dict[int, list] = {0: [], 1: [], 2: []}

        def sender():
            for i, tag in enumerate(tags):
                yield from comm.send(1, (tag, i), nbytes=8.0, src=0, tag=tag)

        def receiver():
            for tag in tags:
                payload = yield from comm.recv(0, dst=1, tag=tag)
                got[payload[0]].append(payload[1])

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        for tag in (0, 1, 2):
            expect = [i for i, t in enumerate(tags) if t == tag]
            assert got[tag] == expect


class TestTimingProperties:
    @settings(max_examples=25, deadline=None)
    @given(nbytes=st.floats(1, 1e9))
    def test_transfer_time_monotone_in_size(self, nbytes):
        eng, comm = _two_rank_comm()
        t1 = comm.transfer_time(0, 1, nbytes)
        t2 = comm.transfer_time(0, 1, 2 * nbytes)
        assert t2 > t1

    def test_extra_delay_defers_arrival(self):
        eng, comm = _two_rank_comm()
        arrivals = []

        def sender():
            yield from comm.send(1, "a", nbytes=100, src=0)
            yield from comm.send(1, "b", nbytes=100, src=0, extra_delay=0.5)

        def receiver():
            for _ in range(2):
                yield from comm.recv(0, dst=1)
                arrivals.append(eng.now)

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        assert arrivals[1] - arrivals[0] >= 0.5

    def test_negative_extra_delay_rejected(self):
        eng, comm = _two_rank_comm()

        def bad():
            yield from comm.send(1, None, nbytes=1, src=0, extra_delay=-1.0)

        eng.process(bad())
        with pytest.raises(ValueError):
            eng.run()


class TestDegradedLinks:
    def test_degraded_link_slows_dse_timeline(self, net118, pf118):
        """A congested inter-cluster link stretches the session's testbed
        replay of a DSE frame (the runtime-behaviour question the paper
        raises)."""
        from repro.core import ArchitecturePrototype, DseSession
        from repro.dse import dse_pmu_placement
        from repro.measurements import full_placement, generate_measurements

        degraded = pnnl_testbed()
        slow = LinkSpec(latency=0.2, bandwidth=1e5)  # a sick WAN link
        degraded.add_link("nwiceb", "chinook", slow)
        degraded.add_link("nwiceb", "catamount", slow)
        degraded.add_link("catamount", "chinook", slow)

        totals = []
        for topology in (pnnl_testbed(), degraded):
            arch = ArchitecturePrototype.assemble(
                net118, m_subsystems=9, topology=topology, seed=0
            )
            plac = full_placement(net118).merged_with(dse_pmu_placement(arch.dec))
            ms = generate_measurements(
                net118, plac, pf118, rng=np.random.default_rng(0)
            )
            totals.append(DseSession(arch).process_frame(ms).timings.total)
        t_ok, t_bad = totals
        assert t_bad > t_ok + 0.5
