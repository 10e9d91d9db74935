"""Tests for runtime adaptation: branch outages and cluster failures."""

import numpy as np
import pytest

from repro.core import (
    ArchitecturePrototype,
    apply_branch_outage,
    apply_cluster_outage,
)
from repro.dse import DistributedStateEstimator, dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import full_placement, generate_measurements


@pytest.fixture()
def arch118f():
    return ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)


class TestBranchOutage:
    def test_tie_line_outage_keeps_decomposition(self, arch118f):
        tie = int(arch118f.dec.tie_lines[0])
        before = arch118f.dec.part.copy()
        rep = apply_branch_outage(arch118f, tie)
        assert rep.was_tie_line
        assert not rep.islanded_network
        assert not rep.decomposition_changed
        assert np.array_equal(arch118f.dec.part, before)
        assert arch118f.net.br_status[tie] == 0

    def test_tie_outage_removes_exchange_session(self, arch118f):
        dec = arch118f.dec
        n_ties_before = len(dec.tie_lines)
        tie = int(dec.tie_lines[0])
        apply_branch_outage(arch118f, tie)
        assert len(arch118f.dec.tie_lines) == n_ties_before - 1

    def test_internal_split_reassigns_fragment(self, arch118f):
        """Outage a cut edge inside a subsystem: the stranded fragment must
        join a neighbouring subsystem and connectivity must be restored."""
        from repro.grid.islands import subgraph_components

        dec = arch118f.dec
        net = arch118f.net
        # find an internal branch whose removal splits its subsystem
        target = None
        for s in range(dec.m):
            for k in dec.internal_branches(s):
                net.br_status[k] = 0
                frags = subgraph_components(
                    net.n_bus, net.adjacency_pairs(), dec.buses(s)
                )
                net.br_status[k] = 1
                if len(frags) > 1:
                    target = int(k)
                    break
            if target is not None:
                break
        assert target is not None, "case118 has radial internal branches"
        rep = apply_branch_outage(arch118f, target)
        assert rep.decomposition_changed
        assert arch118f.dec.is_internally_connected()

    def test_islanding_outage_rolled_back(self, arch118f):
        net = arch118f.net
        # branch 9-10 (radial to gen 10) islands the network
        k = int(np.flatnonzero(
            (net.bus_ids[net.f] == 9) & (net.bus_ids[net.t] == 10)
        )[0])
        rep = apply_branch_outage(arch118f, k)
        assert rep.islanded_network
        assert net.br_status[k] == 1  # rolled back

    def test_double_outage_rejected(self, arch118f):
        tie = int(arch118f.dec.tie_lines[0])
        apply_branch_outage(arch118f, tie)
        with pytest.raises(ValueError, match="already out"):
            apply_branch_outage(arch118f, tie)

    def test_bad_branch_rejected(self, arch118f):
        with pytest.raises(ValueError):
            apply_branch_outage(arch118f, 9999)

    def test_dse_still_runs_after_outage(self, arch118f):
        """End-to-end: the repaired decomposition still estimates."""
        tie = int(arch118f.dec.tie_lines[2])
        apply_branch_outage(arch118f, tie)
        net = arch118f.net
        pf = run_ac_power_flow(net)
        rng = np.random.default_rng(0)
        plac = full_placement(net).merged_with(dse_pmu_placement(arch118f.dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        res = DistributedStateEstimator(arch118f.dec, ms).run()
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 3e-3


class TestClusterOutage:
    def test_orphans_replaced(self, arch118f):
        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        rep = apply_cluster_outage(arch118f, "chinook", mapping)
        assert rep.failed_cluster == "chinook"
        assert "chinook" not in rep.survivors
        assert len(rep.orphaned_subsystems) > 0
        # every subsystem now lives on a survivor
        placed = sorted(
            s for subs in rep.new_mapping.as_dict().values() for s in subs
        )
        assert placed == list(range(9))

    def test_balance_after_failure(self, arch118f):
        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        rep = apply_cluster_outage(arch118f, "nwiceb", mapping)
        assert rep.new_mapping.imbalance <= 1.3

    def test_architecture_updated(self, arch118f):
        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        apply_cluster_outage(arch118f, "catamount", mapping)
        names = [c.name for c in arch118f.topology.clusters]
        assert "catamount" not in names
        assert arch118f.mapper.p == 2

    def test_survivor_placements_sticky(self, arch118f):
        """Subsystems on surviving clusters mostly stay put (migration-aware)."""
        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        rep = apply_cluster_outage(arch118f, "chinook", mapping)
        stayed = 0
        total = 0
        for s in range(9):
            old = mapping.cluster_of(s)
            if old == "chinook":
                continue
            total += 1
            if rep.new_mapping.cluster_of(s) == old:
                stayed += 1
        assert stayed >= total - 2  # at most a couple forced moves

    def test_unknown_cluster(self, arch118f):
        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        with pytest.raises(KeyError):
            apply_cluster_outage(arch118f, "nonexistent", mapping)

    def test_last_cluster_cannot_fail(self):
        from repro.cluster import ClusterSpec, ClusterTopology

        arch = ArchitecturePrototype.assemble(
            case118(), m_subsystems=4,
            topology=ClusterTopology(clusters=[ClusterSpec(name="solo")]),
        )
        mapping = arch.mapper.map_step1(arch.dec, 1.0)
        with pytest.raises(ValueError, match="surviving"):
            apply_cluster_outage(arch, "solo", mapping)

    def test_session_continues_after_failure(self, arch118f):
        """A frame processes successfully on the degraded topology."""
        from repro.core import DseSession

        mapping = arch118f.mapper.map_step1(arch118f.dec, 1.0)
        apply_cluster_outage(arch118f, "chinook", mapping)
        net = arch118f.net
        pf = run_ac_power_flow(net)
        rng = np.random.default_rng(1)
        plac = full_placement(net).merged_with(dse_pmu_placement(arch118f.dec))
        ms = generate_measurements(net, plac, pf, rng=rng)
        session = DseSession(arch118f)
        rep = session.process_frame(ms, truth=(pf.Vm, pf.Va))
        assert rep.timings.total > 0
        assert set(rep.mapping_step1) == {"nwiceb", "catamount"}
