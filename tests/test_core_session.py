"""Integration tests: the architecture prototype and DSE sessions."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, ClusterTopology
from repro.core import ArchitecturePrototype, DseSession
from repro.dse import dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.measurements import (
    MeasType,
    ScadaSystem,
    full_placement,
    generate_measurements,
    inject_bad_data,
)


@pytest.fixture(scope="module")
def arch118(net118):
    return ArchitecturePrototype.assemble(net118, m_subsystems=9, seed=0)


@pytest.fixture(scope="module")
def frame118(net118, arch118):
    pf = run_ac_power_flow(net118)
    rng = np.random.default_rng(0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(arch118.dec))
    return pf, generate_measurements(net118, plac, pf, rng=rng)


class TestAssemble:
    def test_default_testbed(self, arch118):
        assert arch118.topology.n_clusters == 3
        assert arch118.dec.m == 9

    def test_custom_topology(self, net118):
        topo = ClusterTopology(clusters=[ClusterSpec(name="solo")])
        arch = ArchitecturePrototype.assemble(net118, m_subsystems=4, topology=topo)
        assert arch.mapper.p == 1



class TestSession:
    def test_process_frame_report(self, arch118, frame118):
        pf, ms = frame118
        session = DseSession(arch118)
        rep = session.process_frame(ms, truth=(pf.Vm, pf.Va))
        assert rep.noise_level > 0
        assert rep.expected_iterations > rep.noise_level  # g2 offset
        assert rep.rounds >= 1
        assert rep.bytes_exchanged > 0
        assert rep.vm_rmse_vs_truth < 5e-3

    def test_mappings_cover_all_subsystems(self, arch118, frame118):
        _, ms = frame118
        session = DseSession(arch118)
        rep = session.process_frame(ms)
        for mapping in (rep.mapping_step1, rep.mapping_step2):
            all_subs = sorted(s for subs in mapping.values() for s in subs)
            assert all_subs == list(range(9))

    def test_timings_structure(self, arch118, frame118):
        _, ms = frame118
        session = DseSession(arch118)
        rep = session.process_frame(ms)
        tm = rep.timings
        assert tm.step1 > 0
        assert len(tm.exchange_per_round) == rep.rounds
        assert len(tm.step2_per_round) == rep.rounds
        assert tm.total == pytest.approx(
            tm.step1 + tm.redistribution + tm.exchange + tm.step2
        )

    def test_distribution_parallelises_step1(self, arch118, frame118, net118):
        """The architecture's point: the distributed Step-1 makespan is
        well below serialising the same subsystem solves on one core."""
        from repro.dse import DistributedStateEstimator

        _, ms = frame118
        session = DseSession(arch118)
        rep = session.process_frame(ms)
        dse = DistributedStateEstimator(arch118.dec, ms)
        serial = sum(
            r.step1_time for r in dse.run(rounds=1).records.values()
        )
        assert rep.timings.step1 < serial

    def test_multi_frame_session_tracks_noise(self, arch118, net118, frame118):
        pf, _ = frame118
        rng = np.random.default_rng(1)
        plac = full_placement(net118).merged_with(dse_pmu_placement(arch118.dec))
        session = DseSession(arch118)
        levels = []
        for _ in range(3):
            ms = generate_measurements(net118, plac, pf, noise_level=1.0, rng=rng)
            rep = session.process_frame(ms)
            levels.append(rep.noise_level)
        # after the cold start the innovation tracker heads toward 1.0
        assert levels[-1] < levels[0] + 1e-9
        assert len(session.reports) == 3

    def test_estimator_reuse_matches_fresh_estimator_per_frame(
        self, arch118, net118, frame118
    ):
        """The session serves same-placement frames values-only over one
        kept estimator; everything it reports must equal a session that
        builds a fresh estimator for every frame — across a placement
        change and a frame thinned by bad-data removal."""
        pf, base = frame118
        rng = np.random.default_rng(3)
        plac = full_placement(net118).merged_with(dse_pmu_placement(arch118.dec))

        def scan():
            return generate_measurements(net118, plac, pf, rng=rng)

        internal = set(arch118.dec.buses(2)) - set(arch118.dec.boundary_buses(2))
        vmag = next(
            row for row, m in enumerate(base)
            if m.mtype == MeasType.V_MAG and m.element in internal
        )
        thinned = np.ones(len(base), dtype=bool)
        thinned[base.rows(MeasType.Q_FLOW_T)[::7]] = False
        frames = [
            scan(),
            scan(),
            scan().subset(thinned),                       # placement change
            scan(),
            inject_bad_data(scan(), np.array([vmag]), magnitude_sigmas=40, rng=rng),
            scan(),
        ]

        kept = DseSession(arch118, bad_data_policy="identify")
        fresh = DseSession(arch118, bad_data_policy="identify")
        estimators = []
        for ms in frames:
            fresh._dse = None                             # build every frame
            a = kept.process_frame(ms, truth=(pf.Vm, pf.Va))
            b = fresh.process_frame(ms, truth=(pf.Vm, pf.Va))
            da, db = a.to_dict(), b.to_dict()
            for clocked in ("timings", "wall_time"):
                da.pop(clocked), db.pop(clocked)
            assert da == db
            assert np.array_equal(kept._prev_vm, fresh._prev_vm)
            assert np.array_equal(kept._prev_va, fresh._prev_va)
            assert a.wall_time > 0
            estimators.append(kept._dse)

        assert kept.reports[4].bad_data.removed_global_rows
        e = estimators
        assert e[0] is e[1]                  # same placement: reused
        assert e[2] is not e[1]              # placement changed: rebuilt
        assert e[3] is not e[2]              # and changed back
        assert e[4] is e[3] and e[5] is e[3]  # bad-data frame evicts nothing

    def test_branch_outage_retires_the_kept_estimator(self):
        """A repaired decomposition is another estimator even over the same
        placement: the session builds it, so a meter left on the tripped
        tie line is refused instead of estimated on the old topology, and
        a placement regenerated for the new topology runs on it."""
        from repro.core import apply_branch_outage

        net = case118()
        arch = ArchitecturePrototype.assemble(net, m_subsystems=9, seed=0)
        pf = run_ac_power_flow(net)
        rng = np.random.default_rng(4)
        plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        session = DseSession(arch)
        session.process_frame(generate_measurements(net, plac, pf, rng=rng))
        assert not hasattr(session, "exchange_sets")

        apply_branch_outage(arch, int(arch.dec.tie_lines[0]))
        pf = run_ac_power_flow(net)
        with pytest.raises(ValueError, match="outside subnetwork"):
            session.process_frame(generate_measurements(net, plac, pf, rng=rng))
        plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        report = session.process_frame(
            generate_measurements(net, plac, pf, rng=rng), truth=(pf.Vm, pf.Va)
        )
        assert session._dse.dec is arch.dec
        assert report.va_rmse_vs_truth < 5e-3

    def test_reuse_structures_false_keeps_no_estimator(self, arch118, frame118):
        _, ms = frame118
        session = DseSession(arch118, reuse_structures=False)
        session.process_frame(ms)
        assert session._dse is None

    def test_centralized_sim_time(self, arch118, frame118):
        _, ms = frame118
        session = DseSession(arch118)
        t = session.centralized_sim_time(0.5)
        assert t == pytest.approx(0.5)

    def test_session_on_scada_stream(self):
        """End-to-end: SCADA frames through the architecture."""
        net = synthetic_grid(n_areas=4, buses_per_area=10, seed=5)
        arch = ArchitecturePrototype.assemble(net, m_subsystems=4, seed=0)
        plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        scada = ScadaSystem(net, plac, seed=0)
        session = DseSession(arch)
        for frame in scada.frames(2):
            rep = session.process_frame(frame.mset, t=frame.t)
            assert rep.timings.total > 0
