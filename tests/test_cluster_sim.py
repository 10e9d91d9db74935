"""Tests for the discrete-event engine, simulated MPI and executors."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    ClusterTopology,
    LinkSpec,
    MessageSpec,
    MiddlewareCostModel,
    SimComm,
    SimEngine,
    SimExecutor,
    TaskSpec,
    Timeout,
    pnnl_testbed,
)


class TestSimEngine:
    def test_time_advances_with_schedule(self):
        eng = SimEngine()
        hits = []
        eng.schedule(1.0, lambda: hits.append(eng.now))
        eng.schedule(2.5, lambda: hits.append(eng.now))
        assert eng.run() == 2.5
        assert hits == [1.0, 2.5]

    def test_negative_delay_rejected(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            eng.schedule(-1, lambda: None)

    def test_deterministic_tie_break(self):
        eng = SimEngine()
        order = []
        eng.schedule(1.0, lambda: order.append("a"))
        eng.schedule(1.0, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b"]

    def test_process_timeout(self):
        eng = SimEngine()
        log = []

        def proc():
            yield Timeout(2.0)
            log.append(eng.now)
            yield Timeout(3.0)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [2.0, 5.0]

    def test_process_result(self):
        eng = SimEngine()

        def proc():
            yield Timeout(1.0)
            return 42

        p = eng.process(proc())
        eng.run()
        assert p.done
        assert p.result == 42

    def test_event_wakes_waiter_with_value(self):
        eng = SimEngine()
        ev = eng.event()
        got = []

        def waiter():
            v = yield ev
            got.append((eng.now, v))

        eng.process(waiter())
        eng.schedule(4.0, ev.succeed, "hello")
        eng.run()
        assert got == [(4.0, "hello")]

    def test_event_double_trigger_rejected(self):
        eng = SimEngine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_run_until(self):
        eng = SimEngine()
        eng.schedule(10.0, lambda: None)
        t = eng.run(until=5.0)
        assert t == 5.0

    def test_unsupported_yield_raises(self):
        eng = SimEngine()

        def proc():
            yield "bogus"

        eng.process(proc())
        with pytest.raises(TypeError):
            eng.run()


class TestTopology:
    def test_link_symmetric_lookup(self):
        topo = pnnl_testbed()
        assert topo.link("nwiceb", "chinook") is topo.link("chinook", "nwiceb")

    def test_loopback_for_same_cluster(self):
        topo = pnnl_testbed()
        assert topo.link("nwiceb", "nwiceb") is topo.loopback

    def test_transfer_time_formula(self):
        link = LinkSpec(latency=0.001, bandwidth=1e6)
        assert link.transfer_time(1e6) == pytest.approx(1.001)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            ClusterSpec(name="x", nodes=0)
        with pytest.raises(ValueError):
            ClusterTopology(clusters=[ClusterSpec("a"), ClusterSpec("a")])

    def test_unknown_cluster_in_add_link(self):
        topo = pnnl_testbed()
        with pytest.raises(KeyError):
            topo.add_link("nwiceb", "nonexistent", LinkSpec(0.001, 1e9))

    def test_testbed_shape(self):
        topo = pnnl_testbed()
        assert topo.n_clusters == 3
        assert topo.cluster("chinook").total_cores == 128


class TestSimComm:
    def _setup(self):
        eng = SimEngine()
        topo = pnnl_testbed()
        comm = SimComm(eng, topo, ["nwiceb", "chinook"])
        return eng, comm

    def test_send_recv_payload(self):
        eng, comm = self._setup()
        got = []

        def sender():
            yield from comm.send(1, {"x": 7}, nbytes=1000, src=0)

        def receiver():
            msg = yield from comm.recv(0, dst=1)
            got.append((eng.now, msg))

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        assert got[0][1] == {"x": 7}
        # wire time for 1000 bytes on the testbed LAN
        expected = 2e-4 + 1000 / 115e6
        assert got[0][0] == pytest.approx(expected, rel=1e-6)

    def test_recv_before_send_blocks(self):
        eng, comm = self._setup()
        got = []

        def receiver():
            msg = yield from comm.recv(0, dst=1)
            got.append(eng.now)

        def sender():
            yield Timeout(1.0)
            yield from comm.send(1, "late", nbytes=100, src=0)

        eng.process(receiver())
        eng.process(sender())
        eng.run()
        assert got[0] >= 1.0

    def test_intra_cluster_faster_than_inter(self):
        eng = SimEngine()
        topo = pnnl_testbed()
        comm = SimComm(eng, topo, ["nwiceb", "nwiceb", "chinook"])
        nbytes = 1e6
        assert comm.transfer_time(0, 1, nbytes) < comm.transfer_time(0, 2, nbytes)

    def test_bcast_gather(self):
        eng, comm = self._setup()
        results = {}

        def node(rank):
            v = yield from comm.bcast(0, "cfg" if rank == 0 else None,
                                      nbytes=100, rank=rank)
            results[rank] = v
            out = yield from comm.gather(0, rank * 10, nbytes=8, rank=rank)
            if rank == 0:
                results["gathered"] = out

        for r in range(2):
            eng.process(node(r))
        eng.run()
        assert results[0] == "cfg"
        assert results[1] == "cfg"
        assert results["gathered"] == [0, 10]

    def test_stats_accumulate(self):
        eng, comm = self._setup()

        def sender():
            yield from comm.send(1, None, nbytes=500, src=0)

        def receiver():
            yield from comm.recv(0, dst=1)

        eng.process(sender())
        eng.process(receiver())
        eng.run()
        assert comm.stats_messages == 1
        assert comm.stats_bytes == 500

    def test_rank_validation(self):
        eng, comm = self._setup()

        def bad():
            yield from comm.send(5, None, nbytes=1, src=0)

        eng.process(bad())
        with pytest.raises(ValueError):
            eng.run()


class TestCostModels:
    def test_middleware_overhead_linear_in_size(self):
        mw = MiddlewareCostModel()
        link = LinkSpec(latency=1e-4, bandwidth=1e9)
        o1 = mw.overhead(1e6, link)
        o2 = mw.overhead(2e6, link)
        o4 = mw.overhead(4e6, link)
        # differences double: linear trend (Fig. 8)
        assert (o4 - o2) == pytest.approx(2 * (o2 - o1), rel=1e-6)

    def test_relayed_slower_than_direct(self):
        mw = MiddlewareCostModel()
        link = LinkSpec(latency=1e-4, bandwidth=1e9)
        assert mw.relayed_time(1e6, link) > mw.direct_time(1e6, link)


class TestSimExecutor:
    def test_parallel_clusters(self):
        ex = SimExecutor(pnnl_testbed())
        tasks = [
            TaskSpec("a", "nwiceb", 2.0),
            TaskSpec("b", "chinook", 3.0),
        ]
        timing = ex.run_phase(tasks)
        assert timing.makespan == 3.0  # clusters overlap
        assert timing.per_cluster["nwiceb"] == 2.0

    def test_core_sharing_within_cluster(self):
        topo = ClusterTopology(
            clusters=[ClusterSpec(name="tiny", nodes=1, cores_per_node=1)]
        )
        ex = SimExecutor(topo)
        tasks = [TaskSpec(f"t{i}", "tiny", 1.0) for i in range(3)]
        timing = ex.run_phase(tasks)
        assert timing.makespan == pytest.approx(3.0)  # serialised on 1 core

    def test_multi_core_overlap(self):
        topo = ClusterTopology(
            clusters=[ClusterSpec(name="dual", nodes=1, cores_per_node=2)]
        )
        ex = SimExecutor(topo)
        tasks = [TaskSpec(f"t{i}", "dual", 1.0) for i in range(4)]
        assert ex.run_phase(tasks).makespan == pytest.approx(2.0)

    def test_exchange_middleware_overhead(self):
        ex = SimExecutor(pnnl_testbed())
        msgs = [MessageSpec("nwiceb", "chinook", 1e6)]
        with_mw = ex.run_exchange(msgs, use_middleware=True)
        without = ex.run_exchange(msgs, use_middleware=False)
        assert with_mw.makespan > without.makespan
        assert with_mw.total_bytes == 1e6

    def test_exchange_pairs_parallel(self):
        ex = SimExecutor(pnnl_testbed())
        msgs = [
            MessageSpec("nwiceb", "chinook", 1e6),
            MessageSpec("nwiceb", "catamount", 1e6),
        ]
        timing = ex.run_exchange(msgs, use_middleware=False)
        single = ex.run_exchange(msgs[:1], use_middleware=False)
        assert timing.makespan == pytest.approx(single.makespan)

    def test_empty_phase(self):
        ex = SimExecutor(pnnl_testbed())
        assert ex.run_phase([]).makespan == 0.0
        assert ex.run_exchange([]).makespan == 0.0

    def test_unknown_cluster_rejected(self):
        ex = SimExecutor(pnnl_testbed())
        with pytest.raises(KeyError):
            ex.run_phase([TaskSpec("x", "bogus", 1.0)])
