"""Tests for graph-weight estimation, noise tracking and the mapper."""

import numpy as np
import pytest

import repro.core.mapper as mapper_mod
from repro.cluster import pnnl_testbed
from repro.core import (
    ArchitecturePrototype,
    ClusterMapper,
    IterationModel,
    NoiseLevelEstimator,
    PAPER_ITERATION_MODEL,
    edge_weight_exchange,
    edge_weight_upper_bound,
    innovation_noise_level,
    step1_graph,
    step2_graph,
    apply_branch_outage,
    vertex_weights,
)
from repro.dse import Decomposition, decompose, dse_pmu_placement, exchange_bus_sets
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import (
    MeasurementModel,
    full_placement,
    generate_measurements,
)
from repro.partition import load_imbalance


@pytest.fixture(scope="module")
def dec118(net118):
    return decompose(net118, 9, seed=0)


class TestIterationModel:
    def test_paper_constants(self):
        m = PAPER_ITERATION_MODEL
        assert m.g1 == pytest.approx(3.7579)
        assert m.g2 == pytest.approx(5.2464)

    def test_linear_in_noise(self):
        m = PAPER_ITERATION_MODEL
        assert m.iterations(1.0) == pytest.approx(3.7579 + 5.2464)
        assert m.iterations(2.0) - m.iterations(1.0) == pytest.approx(m.g1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            PAPER_ITERATION_MODEL.iterations(-0.1)

    def test_fit_recovers_line(self):
        x = np.array([0.5, 1.0, 2.0, 4.0])
        y = 3.0 * x + 2.0
        m = IterationModel().fit(x, y)
        assert m.g1 == pytest.approx(3.0)
        assert m.g2 == pytest.approx(2.0)

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            IterationModel().fit(np.array([1.0]), np.array([5.0]))


class TestWeights:
    def test_vertex_weights_expression4(self, dec118):
        w = vertex_weights(dec118, 1.0)
        ni = PAPER_ITERATION_MODEL.iterations(1.0)
        expect = np.rint(dec118.sizes() * ni).astype(int)
        assert np.array_equal(w, expect)

    def test_vertex_weights_increase_with_noise(self, dec118):
        assert np.all(vertex_weights(dec118, 3.0) >= vertex_weights(dec118, 0.5))

    def test_edge_upper_bound_is_size_sum(self, dec118):
        wmap = edge_weight_upper_bound(dec118)
        sizes = dec118.sizes()
        for (u, v), w in wmap.items():
            assert w == sizes[u] + sizes[v]

    def test_exchange_edge_weights_leq_upper_bound(self, dec118):
        sets = exchange_bus_sets(dec118)
        lo = edge_weight_exchange(dec118, sets)
        hi = edge_weight_upper_bound(dec118)
        for e in lo:
            assert lo[e] <= hi[e]

    def test_step1_graph_uniform_edges(self, dec118):
        g = step1_graph(dec118, 1.0)
        _, w = g.edge_list()
        assert np.all(w == 1)

    def test_step2_graph_carries_comm_weights(self, dec118):
        sets = exchange_bus_sets(dec118)
        g = step2_graph(dec118, 1.0, sets)
        pairs, w = g.edge_list()
        wmap = edge_weight_exchange(dec118, sets)
        for (u, v), x in zip(pairs, w):
            assert x == wmap[(int(u), int(v))]


class TestNoiseEstimation:
    def test_innovation_recovers_level(self, net118, pf118):
        """With the previous state = truth, innovations measure pure noise."""
        plac = full_placement(net118)
        for level in (0.5, 1.0, 3.0):
            rng = np.random.default_rng(1)
            ms = generate_measurements(net118, plac, pf118, noise_level=level, rng=rng)
            est = innovation_noise_level(net118, ms, pf118.Vm, pf118.Va)
            assert est == pytest.approx(level, rel=0.1)

    def test_clip_applied(self, net118, pf118):
        plac = full_placement(net118)
        rng = np.random.default_rng(2)
        ms = generate_measurements(net118, plac, pf118, noise_level=0.0, rng=rng)
        est = innovation_noise_level(net118, ms, pf118.Vm, pf118.Va)
        assert est == 0.05  # clipped at the floor

    def test_tracker_smooths(self, net118, pf118):
        plac = full_placement(net118)
        tracker = NoiseLevelEstimator(net118, window=4, initial=1.0)
        rng = np.random.default_rng(3)
        for _ in range(6):
            ms = generate_measurements(net118, plac, pf118, noise_level=2.0, rng=rng)
            tracker.update(ms, pf118.Vm, pf118.Va)
        assert tracker.level == pytest.approx(2.0, rel=0.15)

    def test_window_validated(self, net118):
        with pytest.raises(ValueError):
            NoiseLevelEstimator(net118, window=0)


class TestClusterMapper:
    def test_step1_mapping_balanced(self, dec118):
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        mapping = mapper.map_step1(dec118, 1.0)
        # paper: 1.035 — ours should be in the same regime
        assert mapping.imbalance <= 1.15
        # all subsystems assigned
        counts = [len(v) for v in mapping.as_dict().values()]
        assert sum(counts) == 9
        assert all(c >= 1 for c in counts)

    def test_step2_remap_reports_migration(self, dec118):
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        m1 = mapper.map_step1(dec118, 1.0)
        sets = exchange_bus_sets(dec118)
        m2, moved = mapper.remap_step2(dec118, 1.0, m1, sets)
        assert m2.imbalance <= 1.25  # paper's step-2 value is 1.079
        assert moved >= 0

    def test_cluster_of_roundtrip(self, dec118):
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        m = mapper.map_step1(dec118, 1.0)
        for s in range(9):
            assert s in m.subsystems_on(m.cluster_of(s)).tolist()

    def test_static_mapping_covers_all(self, dec118):
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        m = mapper.static_mapping(dec118)
        counts = [len(v) for v in m.as_dict().values()]
        assert sum(counts) == 9

    def test_mapping_beats_static_balance(self, dec118):
        """Table II: the mapping method balances better than the naive
        block assignment (usually strictly, never worse)."""
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        static = mapper.static_mapping(dec118)
        mapped = mapper.map_step1(dec118, 1.0)
        g = step1_graph(dec118, 1.0)
        imb_static = load_imbalance(g, static.assignment, 3)
        imb_mapped = load_imbalance(g, mapped.assignment, 3)
        assert imb_mapped <= imb_static + 1e-9


class TestMappingMemo:
    """The mapper memoizes both partitions on their integer inputs; a hit
    must be the partition a fresh mapper computes."""

    #: a sweep that revisits levels, as a session's smoothed level does
    LEVELS = (0.5, 1.0, 0.5, 2.7, 1.0, 1.001, 6.0, 0.5, 2.7, 10.0, 0.05, 1.0)

    def test_hits_equal_a_fresh_mapper(self, dec118):
        sets = exchange_bus_sets(dec118)
        memo = ClusterMapper(pnnl_testbed(), seed=0)
        for x in self.LEVELS:
            fresh = ClusterMapper(pnnl_testbed(), seed=0)
            a1, b1 = memo.map_step1(dec118, x), fresh.map_step1(dec118, x)
            a2, a_moved = memo.remap_step2(dec118, x, a1, sets)
            b2, b_moved = fresh.remap_step2(dec118, x, b1, sets)
            for a, b in ((a1, b1), (a2, b2)):
                assert np.array_equal(a.assignment, b.assignment)
                assert a.imbalance == b.imbalance
                assert a.edge_cut == b.edge_cut
            assert a_moved == b_moved
        # 1.0 and 1.001 round to one weight vector: one entry per step
        distinct = {vertex_weights(dec118, x).tobytes() for x in self.LEVELS}
        assert len(distinct) < len(set(self.LEVELS))
        assert len(memo._memo) == 2 * len(distinct)

    def test_partitions_once_per_key(self, dec118, monkeypatch):
        calls = []
        real = mapper_mod.partition_kway
        monkeypatch.setattr(
            mapper_mod, "partition_kway",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        for _ in range(3):
            mapper.map_step1(dec118, 1.0)
        assert len(calls) == 1
        # a changed partitioner setting is another key
        mapper.tol = 1.1
        mapper.map_step1(dec118, 1.0)
        assert len(calls) == 2

    def test_cached_assignment_is_read_only(self, dec118):
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        m1 = mapper.map_step1(dec118, 1.0)
        m2, _ = mapper.remap_step2(dec118, 1.0, m1, exchange_bus_sets(dec118))
        for m in (m1, m2, mapper.map_step1(dec118, 1.0)):
            assert not m.assignment.flags.writeable
            with pytest.raises(ValueError):
                m.assignment[0] = 1

    def test_new_decomposition_resets_the_memo(self, dec118, monkeypatch):
        calls = []
        real = mapper_mod.partition_kway
        monkeypatch.setattr(
            mapper_mod, "partition_kway",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        mapper = ClusterMapper(pnnl_testbed(), seed=0)
        first = mapper.map_step1(dec118, 1.0)
        twin = Decomposition(net=dec118.net, part=dec118.part.copy(), m=dec118.m)
        again = mapper.map_step1(twin, 1.0)
        assert len(calls) == 2
        assert np.array_equal(first.assignment, again.assignment)
        assert len(mapper._memo) == 1
        # back on the first decomposition: its entries went with the reset
        mapper.map_step1(dec118, 1.0)
        assert len(calls) == 3


def _counted_models(monkeypatch) -> list:
    """Count MeasurementModel constructions from here on."""
    built = []
    real = MeasurementModel.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(MeasurementModel, "__init__", init)
    return built


class TestHeldNoiseModel:
    def test_one_model_per_structure_and_status(self, pf118, monkeypatch):
        net = case118()                     # its branch status is edited
        plac = full_placement(net)
        other = plac.subset(np.arange(len(plac)) != 3)
        rng = np.random.default_rng(4)
        tracker = NoiseLevelEstimator(net, window=1)
        built = _counted_models(monkeypatch)
        prev = (pf118.Vm * 1.001, pf118.Va)
        builds = []
        for placement, outage in (
            (plac, None), (plac, None), (plac, None), (other, None),
            (other, None), (plac, None), (plac, 7), (plac, None),
        ):
            if outage is not None:
                net.br_status[outage] = 0
            ms = generate_measurements(net, placement, pf118, rng=rng)
            w = np.ones(len(ms))
            w[::5] = 0.0
            del built[:]
            held = (tracker.update(ms, *prev, weights=w), tracker.update(ms, *prev))
            builds.append(len(built))
            assert held == (
                innovation_noise_level(net, ms, *prev, weights=w),
                innovation_noise_level(net, ms, *prev),
            )
        assert builds == [1, 0, 0, 1, 0, 1, 1, 0]

    def test_first_frame_after_an_outage_reads_the_new_network(self, pf118):
        """A placement without branch 0's meters still fits the network
        after branch 0 goes out, so only the branch-status snapshot tells
        the held model that its admittances are stale."""
        arch = ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)
        net = arch.net
        plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        plac = plac.subset(np.array(
            [m.mtype.is_bus or m.element != 0 for m in plac]
        ))
        rng = np.random.default_rng(9)
        tracker = NoiseLevelEstimator(net, window=1)
        ms = generate_measurements(net, plac, pf118, rng=rng)
        tracker.update(ms, pf118.Vm, pf118.Va)
        before = net.copy()

        report = apply_branch_outage(arch, 0)
        assert not report.islanded_network and net.br_status[0] == 0
        pf = run_ac_power_flow(net)
        ms = generate_measurements(net, plac, pf, rng=rng)
        assert ms.same_structure(plac)
        fresh = innovation_noise_level(net, ms, pf118.Vm, pf118.Va)
        stale = innovation_noise_level(before, ms, pf118.Vm, pf118.Va)
        assert fresh != stale
        assert tracker.update(ms, pf118.Vm, pf118.Va) == fresh
