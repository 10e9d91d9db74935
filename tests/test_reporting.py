"""Tests for report rendering."""

import io

import numpy as np
import pytest

from repro.core.telemetry import FrameReport, PhaseBreakdown
from repro.reporting import (
    format_table,
    frame_table,
    session_summary,
    write_frames_csv,
)


def _fake_report(t=0.0, vm=1e-3):
    return FrameReport(
        t=t,
        noise_level=1.2,
        expected_iterations=9.8,
        mapping_step1={"a": [0, 1]},
        imbalance_step1=1.04,
        mapping_step2={"a": [0, 1]},
        imbalance_step2=1.06,
        edge_cut_step2=50,
        migrated_weight=3,
        rounds=2,
        bytes_exchanged=1024,
        timings=PhaseBreakdown(step1=0.01, redistribution=0.001,
                               exchange_per_round=[0.002, 0.002],
                               step2_per_round=[0.01, 0.01]),
        wall_time=0.5,
        vm_rmse_vs_truth=vm,
    )


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        # all lines equal width
        assert len({len(l) for l in lines}) == 1

    def test_header_included(self):
        out = format_table(["col"], [[42]])
        assert "col" in out
        assert "42" in out

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_format(self):
        out = format_table(["x"], [[0.123456789]], float_fmt="{:.2f}")
        assert "0.12" in out

    def test_bool_not_float_formatted(self):
        out = format_table(["ok"], [[True]])
        assert "True" in out


class TestFrameTable:
    def test_contains_core_columns(self):
        out = frame_table([_fake_report(), _fake_report(t=4.0)])
        assert "noise x" in out
        assert "Vm RMSE" in out
        assert out.count("\n") == 3  # header + rule + 2 rows

    def test_missing_truth_renders_dash(self):
        rep = _fake_report()
        rep.vm_rmse_vs_truth = None
        out = frame_table([rep])
        assert out.splitlines()[-1].rstrip().endswith("-")


class TestSessionSummary:
    def test_aggregates(self):
        reports = [_fake_report(t=0.0), _fake_report(t=4.0)]
        s = session_summary(reports)
        assert s["frames"] == 2
        assert s["total_bytes"] == 2048
        assert s["mean_sim_total"] == pytest.approx(0.035)
        assert s["total_migrated_weight"] == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            session_summary([])


class TestCsv:
    def test_stream_write(self):
        buf = io.StringIO()
        write_frames_csv([_fake_report()], buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("t,")

    def test_file_write(self, tmp_path):
        path = tmp_path / "frames.csv"
        write_frames_csv([_fake_report(), _fake_report(t=4.0)], path)
        content = path.read_text().strip().splitlines()
        assert len(content) == 3

    def test_end_to_end_with_session(self, tmp_path):
        from repro.core import ArchitecturePrototype, DseSession
        from repro.dse import dse_pmu_placement
        from repro.grid import run_ac_power_flow
        from repro.grid.cases import synthetic_grid
        from repro.measurements import full_placement, generate_measurements

        net = synthetic_grid(n_areas=3, buses_per_area=8, seed=0)
        pf = run_ac_power_flow(net, flat_start=True)
        arch = ArchitecturePrototype.assemble(net, m_subsystems=3, seed=0)
        plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
        ms = generate_measurements(
            net, plac, pf, rng=np.random.default_rng(0)
        )
        session = DseSession(arch)
        session.process_frame(ms, truth=(pf.Vm, pf.Va))
        out = frame_table(session.reports)
        assert "sim total" in out
        write_frames_csv(session.reports, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").exists()
