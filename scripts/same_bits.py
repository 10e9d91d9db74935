#!/usr/bin/env python3
"""Same bits as another revision: one fixed matrix of estimates, hashed.

    scripts/same_bits.py <rev> [--tol 1e-9]

A change that claims to move no number — or to move the states by no more
than a stated tolerance — proves it here instead of with a hand-made
scratch script.  ``<rev>`` is extracted with ``pair_bench``'s
``git archive`` helper (committed files, fresh directory, nothing registered
in ``.git``); this file's matrix then runs once against that tree's ``src``
and once against the working tree's, each in its own interpreter, and the
rows are compared:

- IEEE-118 in-process DSE: Step 1 alone, then {serial, ``threads:2``,
  ``processes:2``} × {reference, condensed Step 2} × {cold run, two
  values-only frames};
- the 37-area 1 480-bus grid: {reference, condensed}, cold;
- ``LiveDseRuntime``: {in-proc, TCP} × {reference, condensed}, two frames,
  and a TCP frame screened by ``weights=`` (four rows at weight 0);
- ``BatchEstimator``: K ∈ {1, 6, 16} value frames, a chunk of six value
  frames with three branch-outage what-ifs, and a chunk of 16 what-ifs
  over every tenth safe N-1 branch;
- a slow-tail frame: IEEE-14 at 300 σ noise with three 1 000 σ gross
  errors, whose Gauss-Newton tail contracts slowly and unevenly enough that
  a held factor meets a step that does not contract and is re-factored
  (the frozen tail's fallback path);
- post-estimation statistics on IEEE-118, centrally and on subsystem 2's
  Step-1 problem: ``normalized_residuals`` (hashed in the ``Vm`` slot) and
  ``state_covariance`` (``vm_std‖va_std``);
- ``identify_bad_data`` and ``huber_estimate`` on a seeded 3-gross-error
  IEEE-118 set (identification also hashes ``removed_rows``),
  ``HierarchicalStateEstimator.run()``, and three frames through
  ``DseSession(bad_data_policy="identify")`` — clean, one 40 σ ``V_MAG``
  error inside subsystem 2, clean — hashing every frame's state plus its
  ``removed_global_rows``, on the reference session, a ``condense=True``
  one and an ``executor="threads:2"`` one.

One line per row: sha1 of ``Vm‖Va``, the Gauss-Newton iteration total, and
``equal`` or ``DIFFERENT`` — a differing row adds ``max|dVm|``, ``max|dVa|``
and both trees' iteration totals.  Exits non-zero on any difference; with
``--tol`` (default 0) a row whose states differ by no more than that,
whatever its iteration total, reads ``within tol`` and does not count.  The
matrix touches public API only, so it runs unchanged in both trees; it needs
a revision, which is why it is not part of ``scripts/verify.sh``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pair_bench import REPO, extract  # noqa: E402


# ---------------------------------------------------------------------
# the matrix (runs with one tree's ``src`` on PYTHONPATH)
# ---------------------------------------------------------------------
def matrix() -> None:
    """Print one JSON line per row: name, sha1, iterations, the states."""
    import numpy as np

    from repro import obs
    from repro.core import ArchitecturePrototype, DseSession
    from repro.contingency import enumerate_n1
    from repro.core.runtime import LiveDseRuntime
    from repro.dse import (
        DistributedStateEstimator,
        HierarchicalStateEstimator,
        decompose,
        decompose_by_areas,
        dse_pmu_placement,
    )
    from repro.estimation import (
        WlsEstimator,
        huber_estimate,
        identify_bad_data,
        normalized_residuals,
        state_covariance,
    )
    from repro.estimation.batch import BatchEstimator, BatchScenario
    from repro.grid import NetworkDelta, run_ac_power_flow
    from repro.grid.cases import case14, case118, synthetic_grid
    from repro.measurements import (
        MeasType,
        full_placement,
        generate_measurements,
        inject_bad_data,
    )

    def emit(name: str, states: list, iterations: int) -> None:
        x = np.concatenate([np.concatenate([vm, va]) for vm, va in states])
        print(json.dumps({
            "row": name,
            "sha1": hashlib.sha1(x.tobytes()).hexdigest(),
            "iterations": int(iterations),
            "vm": np.concatenate([vm for vm, _ in states]).tolist(),
            "va": np.concatenate([va for _, va in states]).tolist(),
        }), flush=True)

    def dse_iterations(res) -> int:
        return sum(
            r.step1_result.iterations + sum(e.iterations for e in r.step2_results)
            for r in res.records.values()
        )

    def case(net, dec, flat_start=False):
        pf = run_ac_power_flow(net, flat_start=flat_start)
        plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net, plac, pf, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        frames = [ms.z + ms.sigma * rng.standard_normal(len(ms)) for _ in range(2)]
        return ms, frames

    net = case118()
    dec = decompose(net, 9, seed=0)
    ms, frames = case(net, dec)
    modes = (("reference", False), ("condensed", True))

    res = DistributedStateEstimator(dec, ms).run(rounds=0)
    emit("ieee118 serial step 1 only", [(res.Vm, res.Va)], dse_iterations(res))
    for executor in ("serial", "threads:2", "processes:2"):
        for mode, condense in modes:
            dse = DistributedStateEstimator(
                dec, ms, executor=executor, condense=condense
            )
            try:
                res = dse.run()
                emit(f"ieee118 {executor} {mode} cold", [(res.Vm, res.Va)],
                     dse_iterations(res))
                states, iters = [], 0
                for z in frames:
                    res = dse.run(z=z, x0=(res.Vm, res.Va))
                    states.append((res.Vm, res.Va))
                    iters += dse_iterations(res)
                emit(f"ieee118 {executor} {mode} frames", states, iters)
            finally:
                dse.executor.shutdown()

    wecc = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    wdec = decompose_by_areas(wecc)
    wms, _ = case(wecc, wdec, flat_start=True)
    for mode, condense in modes:
        res = DistributedStateEstimator(wdec, wms, condense=condense).run()
        emit(f"wecc37 {mode} cold", [(res.Vm, res.Va)], dse_iterations(res))

    # live sites keep no per-solve record: count through the obs counter
    obs.configure(enabled=True)
    for plane, use_tcp in (("inproc", False), ("tcp", True)):
        for mode, condense in modes:
            obs.metrics().reset()
            with LiveDseRuntime(dec, ms, use_tcp=use_tcp, condense=condense) as live:
                states = [(r.Vm, r.Va) for r in (live.run(z=z) for z in frames)]
            iters = sum(
                m["value"] for m in obs.metrics().collect()
                if m["name"] == "wls.iterations_total"
            )
            emit(f"live {plane} {mode} frames", states, iters)
    # a screened frame: four rows 40 σ off and at weight 0.  A tree whose
    # LiveDseRuntime.run takes no weights= hashes the in-process frame in
    # its place, so the row reads equal exactly when the live screened
    # frame is the in-process one
    z = frames[0].copy()
    bad = np.random.default_rng(4).choice(len(ms), 4, replace=False)
    z[bad] += 40 * ms.sigma[bad]
    w = ms.weights.copy()
    w[bad] = 0.0
    obs.metrics().reset()
    with LiveDseRuntime(dec, ms, use_tcp=True) as live:
        try:
            res = live.run(z=z, weights=w)
        except TypeError:
            res = DistributedStateEstimator(dec, ms).run(z=z, weights=w)
    iters = sum(
        m["value"] for m in obs.metrics().collect()
        if m["name"] == "wls.iterations_total"
    )
    emit("live tcp reference screened frame", [(res.Vm, res.Va)], iters)
    obs.configure(enabled=False)

    central = generate_measurements(
        net, full_placement(net), run_ac_power_flow(net),
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(2)
    draws = [
        central.z + central.sigma * rng.standard_normal(len(central))
        for _ in range(16)
    ]
    batch = BatchEstimator(net, central, max_batch=16)
    chunks = {f"batch K={K} value frames": [BatchScenario(z=z) for z in draws[:K]]
              for K in (1, 6, 16)}
    chunks["batch 6 value + 3 what-if"] = [
        BatchScenario(z=z) for z in draws[:6]
    ] + [BatchScenario(delta=NetworkDelta.branch_outage(b)) for b in (0, 2, 40)]
    chunks["batch K=16 what-ifs"] = [
        BatchScenario(delta=NetworkDelta.branch_outage(c.branch))
        for c in enumerate_n1(net)[0][::10][:16]
    ]
    for name, scenarios in chunks.items():
        out = batch.estimate_batch(scenarios)
        emit(name, [(r.Vm, r.Va) for r in out], int(out.iterations.sum()))

    net14 = case14()
    ms14 = generate_measurements(
        net14, full_placement(net14), run_ac_power_flow(net14),
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(26)
    z14 = ms14.z + 300 * ms14.sigma * rng.standard_normal(len(ms14))
    gross = rng.choice(len(ms14), 3, replace=False)
    z14[gross] += rng.choice([-1.0, 1.0], 3) * 1000 * ms14.sigma[gross]
    res = WlsEstimator(net14, ms14).estimate(z=z14, max_iter=60)
    emit("ieee14 slow-tail frame", [(res.Vm, res.Va)], res.iterations)

    # post-estimation statistics, identification, Huber, the hierarchical
    # baseline and the screened session; lists of rows ride as float arrays
    none = np.zeros(0)
    bad = inject_bad_data(
        central, np.array([30, 150, 400]), magnitude_sigmas=25,
        rng=np.random.default_rng(3),
    )
    sub = DistributedStateEstimator(dec, ms).sub1[2]
    for name, est in (
        ("central", WlsEstimator(net, bad)),
        ("subsystem 2", WlsEstimator(sub[0], sub[3])),
    ):
        res = est.estimate()
        emit(f"normalized residuals {name}",
             [(normalized_residuals(est, res), none)], res.iterations)
        cov = state_covariance(est, res)
        emit(f"state covariance {name}", [(cov.vm_std, cov.va_std)], res.iterations)
    report = identify_bad_data(net, bad)
    emit("identify 3 gross errors",
         [(report.result.Vm, report.result.Va),
          (np.array(report.removed_rows, dtype=float), none)],
         report.result.iterations)
    res = huber_estimate(net, bad)
    emit("huber 3 gross errors", [(res.Vm, res.Va)], res.iterations)
    res = HierarchicalStateEstimator(dec, ms).run()
    emit("hierarchical", [(res.Vm, res.Va)], res.coordinator_iterations + sum(
        r.iterations for r in res.local_results.values()
    ))
    internal = set(dec.buses(2)) - set(dec.boundary_buses(2))
    vmag = next(
        row for row, m in enumerate(ms)
        if m.mtype == MeasType.V_MAG and m.element in internal
    )
    scans = [ms.with_values(z) for z in (*frames, frames[0])]
    scans[1] = inject_bad_data(
        scans[1], np.array([vmag]), magnitude_sigmas=40,
        rng=np.random.default_rng(4),
    )
    arch = ArchitecturePrototype.assemble(net, m_subsystems=9, seed=0)
    for label, opts in (
        ("", {}), (" condensed", dict(condense=True)),
        (" threads:2", dict(executor="threads:2")),
    ):
        session = DseSession(arch, bad_data_policy="identify", **opts)
        states = []
        try:
            for scan in scans:
                removed = session.process_frame(scan).bad_data.removed_global_rows
                # the session publishes no state; its tracking start is the
                # frame's
                states += [(session._prev_vm, session._prev_va),
                           (np.array(removed, dtype=float), none)]
        finally:
            session.executor.shutdown()
        emit(f"session identify 3 frames{label}", states,
             sum(r.rounds for r in session.reports))


# ---------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------
def run_matrix(tree: Path) -> dict[str, dict]:
    """The matrix's rows with ``tree/src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--matrix"],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{tree}: matrix failed (exit {proc.returncode})\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    rows = (
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")
    )
    return {row["row"]: row for row in rows}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="revision to compare the working tree with")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest |dVm| / |dVa| a differing row may show "
                         "and still pass (default 0: every bit)")
    ap.add_argument("--matrix", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.matrix:
        matrix()
        return 0
    if args.rev is None:
        ap.error("a revision is required")

    scratch = Path(tempfile.mkdtemp(prefix="same_bits_"))
    try:
        extract(args.rev, scratch)
        theirs = run_matrix(scratch / "parent")
        ours = run_matrix(REPO)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def gap(a: list, b: list) -> float:
        if len(a) != len(b):
            return float("inf")
        return max((abs(x - y) for x, y in zip(a, b)), default=0.0)

    different = 0
    for name, row in ours.items():
        ref = theirs.get(name)
        verdict = "equal"
        if ref is None:
            different += 1
            verdict = "DIFFERENT (row missing at the revision)"
        elif (ref["sha1"], ref["iterations"]) != (row["sha1"], row["iterations"]):
            d_vm, d_va = gap(ref["vm"], row["vm"]), gap(ref["va"], row["va"])
            inside = args.tol > 0 and max(d_vm, d_va) <= args.tol
            different += not inside
            verdict = (
                f"{'within tol' if inside else 'DIFFERENT'} "
                f"(max|dVm| {d_vm:.3e}, max|dVa| {d_va:.3e}, iterations "
                f"{ref['iterations']} -> {row['iterations']})"
            )
        print(f"{name:36s} {row['sha1'][:16]}  iters {row['iterations']:5d}  {verdict}")
    missing = sorted(set(theirs) - set(ours))
    for name in missing:
        print(f"{name:36s} missing in the working tree  DIFFERENT")
    return 1 if different or missing else 0


if __name__ == "__main__":
    sys.exit(main())
