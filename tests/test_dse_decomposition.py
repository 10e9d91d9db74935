"""Tests for network decomposition and subnetwork extraction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import Decomposition, decompose, decompose_by_areas, extract_subnetwork
from repro.dse.decomposition import _components, _connected
from repro.grid import is_single_island, run_ac_power_flow, subgraph_components
from repro.grid.cases import case14, case118, synthetic_grid


class TestDecompose:
    def test_nine_subsystems_case118(self, net118):
        dec = decompose(net118, 9, seed=0)
        assert dec.m == 9
        assert dec.sizes().sum() == 118

    def test_all_subsystems_nonempty(self, net118):
        dec = decompose(net118, 9, seed=0)
        assert np.all(dec.sizes() > 0)

    def test_internally_connected(self, net118):
        dec = decompose(net118, 9, seed=0)
        assert dec.is_internally_connected()

    def test_roughly_balanced(self, net118):
        """Paper's subsystems are 12-14 buses; ours should be comparable."""
        dec = decompose(net118, 9, seed=0)
        sizes = dec.sizes()
        assert sizes.max() <= 2 * sizes.min()
        assert sizes.max() <= 18

    def test_deterministic(self, net118):
        a = decompose(net118, 9, seed=5)
        b = decompose(net118, 9, seed=5)
        assert np.array_equal(a.part, b.part)

    def test_m1_trivial(self, net14):
        dec = decompose(net14, 1)
        assert len(dec.tie_lines) == 0
        assert dec.sizes().tolist() == [14]

    def test_invalid_m(self, net14):
        with pytest.raises(ValueError):
            decompose(net14, 0)

    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(2, 6), seed=st.integers(0, 500))
    def test_property_decomposition_validity(self, m, seed):
        """Property: any decomposition is complete, connected, non-empty."""
        net = synthetic_grid(n_areas=4, buses_per_area=12, seed=seed % 7)
        dec = decompose(net, m, seed=seed)
        assert dec.sizes().sum() == net.n_bus
        assert np.all(dec.sizes() > 0)
        assert dec.is_internally_connected()


def _digest(part):
    return hashlib.sha1(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


class TestPinnedPartitions:
    """The connectivity checks are searches over ``decompose``'s adjacency
    lists rather than a sparse graph per call; the partitions they produce
    are pinned, bus for bus, to the ones the sparse-graph checks gave."""

    @pytest.mark.parametrize(
        "m, seed, digest",
        [
            (3, 0, "7a6cc61291fa911c9bbc7bb6b50612b65cd537ca"),
            (3, 1, "7a6cc61291fa911c9bbc7bb6b50612b65cd537ca"),
            (3, 2, "7a6cc61291fa911c9bbc7bb6b50612b65cd537ca"),
            (9, 0, "e134d178e932c129e48ada33023d9f7531dfd0b0"),
            (9, 1, "884c811056e1fe9ae2ffcde049be4e028e7e4b96"),
            (9, 2, "884c811056e1fe9ae2ffcde049be4e028e7e4b96"),
        ],
    )
    def test_decompose_case118(self, net118, m, seed, digest):
        assert _digest(decompose(net118, m, seed=seed).part) == digest

    def test_paper_sizes_and_areas(self, net118):
        from repro.dse import decompose_with_sizes

        dec = decompose_with_sizes(net118, TestDecomposeWithSizes.PAPER_SIZES)
        assert _digest(dec.part) == "1b6fa917a16fc33073c65eb58460876baaf550f2"
        wecc = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
        assert (
            _digest(decompose_by_areas(wecc).part)
            == "ad52e7bbd70d4990591da01ccf0b7a41373aa5d9"
        )

    def test_components_match_the_sparse_graph(self, net118):
        pairs = net118.adjacency_pairs()
        adj = [[] for _ in range(net118.n_bus)]
        for u, v in pairs:
            adj[u].append(int(v))
            adj[v].append(int(u))
        rng = np.random.default_rng(0)
        for size in (1, 5, 13, 40, 118):
            members = np.sort(rng.choice(net118.n_bus, size, replace=False))
            got = _components(adj, members)
            ref = subgraph_components(net118.n_bus, pairs, members)
            assert [c.tolist() for c in got] == [c.tolist() for c in ref]
            assert _connected(adj, members) == (len(ref) == 1)

    def test_split_subsystem_is_not_connected(self, net14):
        part = np.ones(14, dtype=np.int64)
        part[[0, 13]] = 0               # buses 1 and 14 share no branch
        assert not Decomposition(net=net14, part=part, m=2).is_internally_connected()


class TestDecomposeByAreas:
    def test_follows_area_labels(self):
        net = synthetic_grid(n_areas=5, buses_per_area=10, seed=1)
        dec = decompose_by_areas(net)
        assert dec.m == 5
        assert dec.sizes().tolist() == [10] * 5


class TestDecompositionQueries:
    @pytest.fixture(scope="class")
    def dec(self, net118):
        return decompose(net118, 9, seed=0)

    def test_tie_lines_cross_subsystems(self, dec, net118):
        for k in dec.tie_lines:
            assert dec.part[net118.f[k]] != dec.part[net118.t[k]]

    def test_internal_branches_stay_inside(self, dec, net118):
        for s in range(9):
            for k in dec.internal_branches(s):
                assert dec.part[net118.f[k]] == s
                assert dec.part[net118.t[k]] == s

    def test_internal_plus_ties_cover_live_branches(self, dec, net118):
        covered = set(dec.tie_lines.tolist())
        for s in range(9):
            covered |= set(dec.internal_branches(s).tolist())
        assert covered == set(net118.live_branches().tolist())

    def test_boundary_buses_touch_ties(self, dec, net118):
        for s in range(9):
            bb = set(dec.boundary_buses(s).tolist())
            tie_ends = set()
            for k in dec.incident_tie_lines(s):
                for b in (net118.f[k], net118.t[k]):
                    if dec.part[b] == s:
                        tie_ends.add(int(b))
            assert bb == tie_ends

    def test_external_boundary_in_other_subsystems(self, dec):
        for s in range(9):
            ext = dec.external_boundary_buses(s)
            assert np.all(dec.part[ext] != s)

    def test_neighbors_symmetric(self, dec):
        for s in range(9):
            for t in dec.neighbors(s):
                assert s in dec.neighbors(int(t))

    def test_quotient_graph_weights_match_table1_scheme(self, dec):
        """Initial weights: vertex = bus count, edge = size sum (Table I)."""
        g = dec.quotient_graph()
        assert np.array_equal(g.vwgt, dec.sizes())
        pairs, w = g.edge_list()
        sizes = dec.sizes()
        for (u, v), x in zip(pairs, w):
            assert x == sizes[u] + sizes[v]

    def test_diameter_positive(self, dec):
        assert 1 <= dec.diameter() <= 8

    def test_part_validation(self, net14):
        with pytest.raises(ValueError):
            Decomposition(net=net14, part=np.zeros(5, int), m=2)
        with pytest.raises(ValueError):
            Decomposition(net=net14, part=np.full(14, 7), m=2)


class TestExtractSubnetwork:
    def test_roundtrip_ids(self, net118):
        dec = decompose(net118, 9, seed=0)
        own = dec.buses(0)
        sub, bus_map, _ = extract_subnetwork(net118, own, dec.internal_branches(0))
        assert sub.n_bus == len(own)
        for g in own:
            assert sub.bus_ids[bus_map[g]] == net118.bus_ids[g]

    def test_subnetwork_is_connected(self, net118):
        dec = decompose(net118, 9, seed=0)
        for s in range(9):
            sub, _, _ = extract_subnetwork(
                net118, dec.buses(s), dec.internal_branches(s)
            )
            assert is_single_island(sub)

    def test_has_exactly_one_slack(self, net118):
        dec = decompose(net118, 9, seed=0)
        sub, _, _ = extract_subnetwork(net118, dec.buses(3), dec.internal_branches(3))
        assert len(sub.slack_buses) == 1

    def test_reference_bus_honoured(self, net118):
        dec = decompose(net118, 9, seed=0)
        own = dec.buses(2)
        ref = int(own[3])
        sub, bus_map, _ = extract_subnetwork(
            net118, own, dec.internal_branches(2), reference_bus=ref
        )
        assert sub.slack_buses.tolist() == [bus_map[ref]]

    def test_rejects_external_branch(self, net118):
        dec = decompose(net118, 9, seed=0)
        ties = dec.incident_tie_lines(0)
        with pytest.raises(ValueError, match="outside"):
            extract_subnetwork(net118, dec.buses(0), ties[:1])

    def test_rejects_external_reference(self, net118):
        dec = decompose(net118, 9, seed=0)
        other = dec.buses(1)[0]
        with pytest.raises(ValueError, match="reference"):
            extract_subnetwork(
                net118, dec.buses(0), dec.internal_branches(0),
                reference_bus=int(other),
            )

    def test_branch_parameters_copied(self, net118):
        dec = decompose(net118, 9, seed=0)
        branches = dec.internal_branches(0)
        sub, _, branch_map = extract_subnetwork(net118, dec.buses(0), branches)
        for g in branches:
            l = branch_map[g]
            assert sub.x[l] == net118.x[g]
            assert sub.tap[l] == net118.tap[g]


class TestDecomposeWithSizes:
    PAPER_SIZES = (14, 13, 13, 13, 13, 12, 14, 13, 13)

    def test_exact_paper_sizes(self, net118):
        from repro.dse import decompose_with_sizes

        dec = decompose_with_sizes(net118, self.PAPER_SIZES, seed=0)
        assert tuple(dec.sizes().tolist()) == self.PAPER_SIZES
        assert dec.is_internally_connected()

    def test_uneven_targets(self, net14):
        from repro.dse import decompose_with_sizes

        dec = decompose_with_sizes(net14, [8, 6], seed=0)
        assert sorted(dec.sizes().tolist()) == [6, 8]
        assert dec.is_internally_connected()

    def test_sum_validated(self, net14):
        from repro.dse import decompose_with_sizes

        with pytest.raises(ValueError, match="sum"):
            decompose_with_sizes(net14, [5, 5])

    def test_positive_sizes_required(self, net14):
        from repro.dse import decompose_with_sizes

        with pytest.raises(ValueError, match="positive"):
            decompose_with_sizes(net14, [14, 0])

    def test_deterministic(self, net118):
        from repro.dse import decompose_with_sizes

        a = decompose_with_sizes(net118, self.PAPER_SIZES, seed=3)
        b = decompose_with_sizes(net118, self.PAPER_SIZES, seed=3)
        assert np.array_equal(a.part, b.part)
