"""Golden-path integration: the whole system in one scenario.

A miniature of the paper's end-to-end story: grid → telemetry →
architecture session (mapping + DSE + simulated testbed + middleware) →
operational outputs → contingency screening → report rendering.  If any
layer's contract drifts, this test is the first to notice.
"""

import numpy as np
import pytest

from repro.contingency import ContingencyAnalyzer, enumerate_n1, run_parallel
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.dse import dse_pmu_placement
from repro.estimation import area_interchange, derive_outputs, estimate_state
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118
from repro.measurements import ScadaSystem, full_placement
from repro.reporting import frame_table, session_summary


def test_full_stack_golden_path(tmp_path):
    # --- the paper's system, the paper's decomposition sizes -------------
    net = case118()
    arch = ArchitecturePrototype.assemble(
        net, subsystem_sizes=(14, 13, 13, 13, 13, 12, 14, 13, 13), seed=0
    )
    assert tuple(arch.dec.sizes().tolist()) == (14, 13, 13, 13, 13, 12, 14, 13, 13)

    placement = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
    scada = ScadaSystem(net, placement, seed=0)
    session = DseSession(arch, bad_data_policy="identify")

    # --- three SCADA frames through the architecture -----------------
    frames = scada.frames(3)
    for frame in frames:
        rep = session.process_frame(
            frame.mset, t=frame.t, truth=(frame.pf.Vm, frame.pf.Va)
        )
        assert rep.vm_rmse_vs_truth < 3e-3
        assert rep.timings.total > 0
        # the mapping uses all three testbed clusters
        used = [c for c, subs in rep.mapping_step1.items() if subs]
        assert len(used) == 3

    summary = session_summary(session.reports)
    assert summary["frames"] == 3
    table = frame_table(session.reports)
    assert table.count("\n") == 4

    # --- the live runtime agrees with the in-process DSE -------------
    live = LiveDseRuntime(arch.dec, frames[-1].mset).run()
    assert live.errors == []
    err = live.state_error(frames[-1].pf.Vm, frames[-1].pf.Va)
    assert err["vm_rmse"] < 3e-3

    # --- operational outputs from the centralized estimate -----------
    est = estimate_state(net, frames[-1].mset)
    out = derive_outputs(net, est)
    pf = frames[-1].pf
    assert out.total_loss_p == pytest.approx(
        (pf.Pf + pf.Pt).sum(), rel=0.05
    )
    interchange = area_interchange(net, est)
    assert set(interchange) == {1, 2, 3}

    # --- contingency screening from that estimate --------------------
    analyzer = ContingencyAnalyzer.from_estimate(
        net, est, method="dc", rating_margin=1.5
    )
    safe, islanding = enumerate_n1(net)
    assert len(safe) + len(islanding) == net.n_branch
    report = run_parallel(
        analyzer, safe[:40], n_workers=4, scheme="dynamic"
    )
    assert len(report.results) == 40
    assert sum(report.per_worker_cases) == 40
