"""Integration tests: session bad-data policy, contingency CLI."""

import numpy as np
import pytest

from repro.core import ArchitecturePrototype, DseSession
from repro.dse import dse_pmu_placement
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import (
    MeasType,
    full_placement,
    generate_measurements,
    inject_bad_data,
)
from repro.tools.contingency import main as contingency_main


@pytest.fixture(scope="module")
def arch_bd():
    return ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)


@pytest.fixture(scope="module")
def frame_bd(arch_bd):
    net = arch_bd.net
    pf = run_ac_power_flow(net)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(arch_bd.dec))
    return pf, generate_measurements(net, plac, pf, rng=rng)


def _internal_row(dec, ms, s):
    own = set(dec.buses(s).tolist()) - set(dec.boundary_buses(s).tolist())
    return next(
        r for r, m in enumerate(ms)
        if m.mtype == MeasType.V_MAG and m.element in own
    )


class TestSessionBadDataPolicy:
    def test_policy_off_reports_nothing(self, arch_bd, frame_bd):
        pf, ms = frame_bd
        session = DseSession(arch_bd)
        rep = session.process_frame(ms)
        assert rep.bad_data is None

    def test_detect_flags_suspects(self, arch_bd, frame_bd):
        pf, ms = frame_bd
        rng = np.random.default_rng(1)
        row = _internal_row(arch_bd.dec, ms, 5)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        session = DseSession(arch_bd, bad_data_policy="detect")
        rep = session.process_frame(bad)
        assert rep.bad_data.suspect_subsystems == [5]
        # detect-only: nothing removed
        assert rep.bad_data.removed_global_rows == []

    def test_identify_cleans_frame(self, arch_bd, frame_bd):
        pf, ms = frame_bd
        rng = np.random.default_rng(2)
        row = _internal_row(arch_bd.dec, ms, 2)
        bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=30, rng=rng)
        session = DseSession(arch_bd, bad_data_policy="identify")
        rep = session.process_frame(bad, truth=(pf.Vm, pf.Va))
        assert rep.bad_data.removed_global_rows == [row]
        assert rep.vm_rmse_vs_truth < 2e-3

    def test_identify_beats_off_under_corruption(self, arch_bd, frame_bd):
        pf, ms = frame_bd
        rng = np.random.default_rng(3)
        rows = [_internal_row(arch_bd.dec, ms, s) for s in (1, 7)]
        bad = inject_bad_data(ms, np.array(rows), magnitude_sigmas=30, rng=rng)
        off = DseSession(arch_bd).process_frame(bad, truth=(pf.Vm, pf.Va))
        fix = DseSession(arch_bd, bad_data_policy="identify").process_frame(
            bad, truth=(pf.Vm, pf.Va)
        )
        assert fix.vm_rmse_vs_truth <= off.vm_rmse_vs_truth

    def test_policy_validated(self, arch_bd):
        with pytest.raises(ValueError):
            DseSession(arch_bd, bad_data_policy="maybe")


class TestContingencyCli:
    def test_default_run(self, capsys):
        assert contingency_main(["--case", "case14"]) == 0
        out = capsys.readouterr().out
        assert "N-1" in out
        assert "worst" in out
        assert "(batch, 1 worker(s))" in out  # a DC sweep is one solve

    def test_static_scheme(self, capsys):
        """The drain is the method's, not a flag's: ``--scheme``,
        ``--workers`` and ``--batch`` are gone; an AC sweep on a pool runs
        the shared queue."""
        for flags in (["--scheme", "static"], ["--workers", "2"], ["--batch"]):
            with pytest.raises(SystemExit):
                contingency_main(["--case", "case14", *flags])
        capsys.readouterr()
        assert contingency_main(
            ["--case", "case14", "--method", "ac", "--executor", "processes:2",
             "--top", "2"]
        ) == 0
        assert "(dynamic, 2 worker(s))" in capsys.readouterr().out
