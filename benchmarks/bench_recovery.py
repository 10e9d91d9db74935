"""Recovery-plane overhead and frames-to-recovery on live DSE runs.

Two measurements back the PR-10 acceptance gate:

1. **Checkpoint overhead** — the live IEEE-118 values-only frame loop
   (site threads, mux hub, real wire bytes) with recovery off vs
   recovery on.  With no faults injected the recovery plane only packs
   and ships checkpoints and heartbeats; the gate pins that cost at
   ≤ 5% on hosts with at least 2 cores (single-core hosts record the
   numbers without evaluating the gate, the same policy as the
   PR-2..PR-9 gates).  Estimator outputs must be bit-identical either
   way on every host: a clean recovery-enabled run is bitwise inert.

2. **Frames to recovery** — a seeded ``FaultPlan`` hard-disconnects
   each site of a synthetic 3-area grid in turn; the run must declare
   exactly that site lost, promote its subsystem from the replicated
   checkpoint, and re-converge onto the uninterrupted run's state.
   Reported as mean/max frames from the kill to the first clean round
   (degradation is bounded by ``lease_rounds`` plus the promotion
   round).

Standalone::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import faults  # noqa: E402
from repro.cluster import RecoveryConfig  # noqa: E402
from repro.core import LiveDseRuntime  # noqa: E402
from repro.dse import decompose, dse_pmu_placement  # noqa: E402
from repro.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118, synthetic_grid  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402


def measure_recovery_overhead(*, frames: int = 3, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing of ``frames`` live values-only DSE
    frames with recovery off vs on (no faults); returns timings, the
    relative overhead and the state parity check."""
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    z = ms.z.copy()

    with LiveDseRuntime(dec, ms) as live_off, LiveDseRuntime(
        dec, ms, recovery=RecoveryConfig(lease_rounds=2)
    ) as live_on:
        live_off.run(z=z)  # warm the site caches outside the timed region
        live_on.run(z=z)

        def one_repeat(live: LiveDseRuntime) -> float:
            t0 = time.perf_counter()
            for _ in range(frames):
                live.run(z=z)
            return time.perf_counter() - t0

        # Interleave the two states so clock / cache drift over the run
        # biases neither (same discipline as bench_fault_overhead).
        t_off = t_on = float("inf")
        for _ in range(repeats):
            t_off = min(t_off, one_repeat(live_off))
            t_on = min(t_on, one_repeat(live_on))

        res_off = live_off.run(z=z)
        res_on = live_on.run(z=z)

    return {
        "case": "ieee118-live",
        "frames_per_repeat": frames,
        "repeats": repeats,
        "recovery_off_time_s": t_off,
        "recovery_on_time_s": t_on,
        "overhead_frac": t_on / t_off - 1.0,
        "bit_identical": bool(
            not res_off.errors
            and not res_on.errors
            and not res_on.lost_sites
            and np.array_equal(res_on.Vm, res_off.Vm)
            and np.array_equal(res_on.Va, res_off.Va)
        ),
    }


def measure_frames_to_recovery(*, lease_rounds: int = 2) -> dict:
    """Kill every site of a synthetic 3-area grid in turn and record
    how many frames each run spends degraded before failover lands."""
    net = synthetic_grid(n_areas=3, buses_per_area=10, seed=4)
    pf = run_ac_power_flow(net)
    dec = decompose(net, 3, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    rounds = max(1, dec.diameter()) + 20

    def run(plan=None):
        with LiveDseRuntime(
            dec, ms, recv_timeout=0.5, round_deadline=2.0,
            recovery=RecoveryConfig(lease_rounds=lease_rounds),
        ) as live:
            if plan is None:
                return live.run(rounds=rounds)
            with faults.injection(FaultInjector(plan)):
                return live.run(rounds=rounds)

    clean = run()
    kills = []
    for victim in range(dec.m):
        src = (victim + 1) % dec.m  # heartbeats give every pair traffic
        plan = FaultPlan(seed=2026).add(
            "mux.forward", "disconnect", key=(src, victim), count=1
        )
        t0 = time.perf_counter()
        res = run(plan)
        dt = time.perf_counter() - t0
        recovered = (
            res.lost_sites == [victim]
            and res.recovered_subsystems == [victim]
        )
        # The kill lands in round 0; degradation ends when the promoted
        # replica answers, so the last degraded round + 1 is the frame
        # count from loss to resumed Step 2.
        frames = (
            max(max(rs) for rs in res.degraded.values()) + 1
            if res.degraded else 0
        )
        parity = float(
            max(
                np.max(np.abs(res.Vm - clean.Vm)),
                np.max(np.abs(res.Va - clean.Va)),
            )
        )
        kills.append(
            {
                "victim": victim,
                "recovered": recovered,
                "frames_to_recovery": frames,
                "max_abs_state_delta": parity,
                "wall_time_s": dt,
            }
        )

    frames = [k["frames_to_recovery"] for k in kills]
    return {
        "case": "synthetic-3area-live",
        "rounds": rounds,
        "lease_rounds": lease_rounds,
        "kills": kills,
        "all_recovered": all(k["recovered"] for k in kills),
        "mean_frames_to_recovery": float(np.mean(frames)),
        "max_frames_to_recovery": int(max(frames)),
        "max_abs_state_delta": max(k["max_abs_state_delta"] for k in kills),
    }


def main() -> int:
    ov = measure_recovery_overhead()
    print(
        f"recovery off {ov['recovery_off_time_s'] * 1e3:8.1f} ms   "
        f"on {ov['recovery_on_time_s'] * 1e3:8.1f} ms   "
        f"overhead {ov['overhead_frac'] * 100:+.2f}%   "
        f"bit-identical {ov['bit_identical']}"
    )
    rec = measure_frames_to_recovery()
    for k in rec["kills"]:
        print(
            f"kill se{k['victim']}: recovered={k['recovered']}  "
            f"frames-to-recovery={k['frames_to_recovery']}  "
            f"state delta {k['max_abs_state_delta']:.1e}  "
            f"({k['wall_time_s'] * 1e3:.0f} ms)"
        )
    print(
        f"frames to recovery: mean {rec['mean_frames_to_recovery']:.1f}  "
        f"max {rec['max_frames_to_recovery']}  "
        f"(lease_rounds={rec['lease_rounds']})"
    )
    ok = (
        ov["bit_identical"]
        and rec["all_recovered"]
        and rec["max_abs_state_delta"] <= 1e-7
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
