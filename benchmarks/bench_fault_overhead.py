"""Fault-injection hook overhead on the live DSE frame loop.

The fault layer must be free when unused: every instrumented call site
(transport sends, client dials, mux forwards, pool submissions) guards
itself with a single ``faults.active() is None`` check, and an installed
injector whose plan has no rules resolves each event with one dict
lookup.  This benchmark measures the live IEEE-118 values-only frame
loop — site threads, the mux hub, real wire bytes — in both
states: no injector installed vs an installed empty-plan injector.

The PR-5 acceptance gate pins the installed-but-idle overhead at ≤ 5% on
hosts with at least 2 cores; single-core hosts record the numbers
without evaluating the gate (timing noise under core contention swamps
a percent-level signal, the same policy as the PR-2/PR-3/PR-4 gates).
Estimator outputs must be bit-identical either way on every host.

Standalone::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import faults  # noqa: E402
from repro.core import LiveDseRuntime  # noqa: E402
from repro.dse import decompose, dse_pmu_placement  # noqa: E402
from repro.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402


def measure_fault_overhead(*, frames: int = 3, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing of ``frames`` live values-only DSE
    frames with and without an idle injector installed; returns timings,
    the relative overhead and the state parity check."""
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    z = ms.z.copy()

    with LiveDseRuntime(dec, ms) as live:
        live.run(z=z)  # warm the site caches outside the timed region

        idle = FaultInjector(FaultPlan(seed=0))  # no rules: nothing can fire

        def one_repeat() -> float:
            t0 = time.perf_counter()
            for _ in range(frames):
                live.run(z=z)
            return time.perf_counter() - t0

        # Interleave the two states so clock / cache drift over the run
        # biases neither (same discipline as bench_obs_overhead).
        t_off = t_on = float("inf")
        try:
            for _ in range(repeats):
                faults.uninstall()
                t_off = min(t_off, one_repeat())
                faults.install(idle)
                t_on = min(t_on, one_repeat())

            faults.uninstall()
            res_off = live.run(z=z)
            faults.install(idle)
            res_on = live.run(z=z)
        finally:
            faults.uninstall()

    return {
        "case": "ieee118-live",
        "frames_per_repeat": frames,
        "repeats": repeats,
        "uninstalled_time_s": t_off,
        "installed_idle_time_s": t_on,
        "overhead_frac": t_on / t_off - 1.0,
        "faults_fired": idle.total_fired(),
        "bit_identical": bool(
            not res_on.errors
            and not res_off.errors
            and np.array_equal(res_on.Vm, res_off.Vm)
            and np.array_equal(res_on.Va, res_off.Va)
        ),
    }


def main() -> int:
    rec = measure_fault_overhead()
    print(
        f"uninstalled {rec['uninstalled_time_s'] * 1e3:8.1f} ms   "
        f"idle injector {rec['installed_idle_time_s'] * 1e3:8.1f} ms   "
        f"overhead {rec['overhead_frac'] * 100:+.2f}%"
    )
    print(
        f"bit-identical outputs: {rec['bit_identical']}   "
        f"faults fired: {rec['faults_fired']}"
    )
    return 0 if rec["bit_identical"] and rec["faults_fired"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
