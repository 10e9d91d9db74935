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

- IEEE-118 in-process DSE: Step 1 alone, then {reference, condensed
  Step 2} × {cold run, two values-only frames};
- the 37-area 1 480-bus grid: {reference, condensed}, cold, and three
  condensed values-only frames on the one warm estimator (the
  ``wecc37_condensed`` benchmark's op);
- ``LiveDseRuntime``: {in-proc, TCP} × {reference, condensed}, two frames,
  and a TCP frame screened by ``weights=`` (four rows at weight 0);
- one central IEEE-118 ``WlsEstimator`` solving the same frame twice from
  the flat start (the second solve's iteration 1 on the estimator's held
  flat-start factor: the row reads ``equal`` only if it is the first's
  bits);
- ``BatchEstimator``: K ∈ {1, 6, 16} value frames, a chunk of six value
  frames with three branch-outage what-ifs, and a chunk of 16 what-ifs
  over every tenth safe N-1 branch; and the six value frames as replicas
  of one ``WlsEstimator`` with per-replica ``weights=`` (two rows of one
  replica at weight 0);
- the served flush: a two-replica ``ShardRouter`` over
  ``ScenarioService(batch_solve=True)`` serving one fixed burst of six
  value frames, three what-ifs and four N-1 screenings, each replica's
  share one flush (hashing the states and the screenings' loadings);
- the N-1 sweeps on IEEE-118: ``analyze_batch`` over every safe outage and
  an AC ``run_parallel`` over the first 20 on ``executor="processes:2"``
  (each case's converged flag, then every violation's ``(branch, flow,
  rating)``, in the ``Vm`` slot; the max loadings in the ``Va`` slot);
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
  ``removed_global_rows``, on the reference session and a
  ``condense=True`` one;
- the session's mapping plane: 40 ``DseSession`` frames on IEEE-118/9 at
  noise levels that rise, fall and repeat, over a placement without branch
  0's meters, with branch 0 taken out by ``apply_branch_outage`` after
  frame 20 — hashing each frame's noise level, imbalances, Step-2 edge cut
  and migrated weight (``Vm`` slot) and both assignments (``Va`` slot).

One line per row: sha1 of ``Vm‖Va``, the Gauss-Newton iteration total, both
trees' factorization totals (the loop's ``wls.factorizations_total``
counter over the row; a process pool's workers are not counted), the
row's largest move between the trees — in pu / rad, except the session
mapping row, whose ``Vm`` slot (noise levels and the numbers derived from
them) moves relative to its value, since a noise level divides residuals
by σ and would read a 1e-11 state move as ~1e-8 — and ``equal`` or
``DIFFERENT``: a differing row adds ``max|dVm|``, ``max|dVa|`` (the same
units) and both trees' iteration totals.  Exits non-zero on any
difference; with ``--tol`` (default 0) a row whose move is no more than
that, whatever its iteration total, reads ``within tol`` and does not
count.  The
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
    from repro.core import ArchitecturePrototype, DseSession, apply_branch_outage
    from repro.contingency import ContingencyAnalyzer, enumerate_n1, run_parallel
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
    from repro.serving import (
        ContingencyRequest,
        EstimationRequest,
        ScenarioService,
        ShardRouter,
    )

    # every row's factorizations: the loop's counter since the last row
    obs.configure(enabled=True)

    def counted(name: str) -> float:
        return sum(m["value"] for m in obs.metrics().collect() if m["name"] == name)

    def emit(name: str, states: list, iterations: int, relative=False) -> None:
        x = np.concatenate([np.concatenate([vm, va]) for vm, va in states])
        factorizations = counted("wls.factorizations_total")
        obs.metrics().reset()
        print(json.dumps({
            "row": name,
            "relative": relative,
            "sha1": hashlib.sha1(x.tobytes()).hexdigest(),
            "iterations": int(iterations),
            "factorizations": int(factorizations),
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
    for mode, condense in modes:
        dse = DistributedStateEstimator(dec, ms, condense=condense)
        res = dse.run()
        emit(f"ieee118 serial {mode} cold", [(res.Vm, res.Va)],
             dse_iterations(res))
        states, iters = [], 0
        for z in frames:
            res = dse.run(z=z, x0=(res.Vm, res.Va))
            states.append((res.Vm, res.Va))
            iters += dse_iterations(res)
        emit(f"ieee118 serial {mode} frames", states, iters)

    wecc = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
    wdec = decompose_by_areas(wecc)
    wms, _ = case(wecc, wdec, flat_start=True)
    for mode, condense in modes:
        wdse = DistributedStateEstimator(wdec, wms, condense=condense)
        res = wdse.run()
        emit(f"wecc37 {mode} cold", [(res.Vm, res.Va)], dse_iterations(res))
    # the wecc37_condensed benchmark's op: values-only frames, one warm
    # estimator (the last one built, condensed)
    rng = np.random.default_rng(3)
    states, iters = [], 0
    for _ in range(3):
        res = wdse.run(z=wms.z + wms.sigma * rng.standard_normal(len(wms)))
        states.append((res.Vm, res.Va))
        iters += dse_iterations(res)
    emit("wecc37 condensed frames", states, iters)

    # live sites keep no per-solve record: count through the obs counter
    for plane, use_tcp in (("inproc", False), ("tcp", True)):
        for mode, condense in modes:
            obs.metrics().reset()
            with LiveDseRuntime(dec, ms, use_tcp=use_tcp, condense=condense) as live:
                states = [(r.Vm, r.Va) for r in (live.run(z=z) for z in frames)]
            emit(f"live {plane} {mode} frames", states,
                 counted("wls.iterations_total"))
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
    emit("live tcp reference screened frame", [(res.Vm, res.Va)],
         counted("wls.iterations_total"))

    central = generate_measurements(
        net, full_placement(net), run_ac_power_flow(net),
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(2)
    draws = [
        central.z + central.sigma * rng.standard_normal(len(central))
        for _ in range(16)
    ]
    est = WlsEstimator(net, central)
    twice = [est.estimate(z=draws[0]) for _ in range(2)]
    emit("central flat start, solved twice", [(r.Vm, r.Va) for r in twice],
         sum(r.iterations for r in twice))
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
    # six replicas with their own row weights, two rows of one of them at
    # weight 0: the replica loop a batch drains into, on a weight stack
    weights = [None] * 6
    weights[3] = central.weights.copy()
    weights[3][[10, 200]] = 0.0
    out = WlsEstimator(net, central).estimate_blocks(z=draws[:6], weights=weights)
    emit("batch 6 value frames, own weights", [(r.Vm, r.Va) for r in out],
         sum(r.iterations for r in out))

    # the served flush: two batched replicas behind the router, a fixed
    # burst; a long flush window with room for the whole burst makes each
    # replica's share one flush, so the flushes are the same in both trees
    safe = enumerate_n1(net)[0]
    burst = [EstimationRequest(z=z) for z in draws[:6]]
    burst += [EstimationRequest(delta=NetworkDelta.branch_outage(c.branch))
              for c in safe[::25][:3]]
    burst += [ContingencyRequest(c) for c in safe[1::20][:4]]
    burst = [burst[int(i)] for i in np.random.default_rng(5).permutation(len(burst))]
    with ShardRouter({
        name: ScenarioService(dec, central, batch_solve=True,
                              max_batch=len(burst), flush_latency=1.0)
        for name in ("s0", "s1")
    }) as router:
        served = [r.value for r in router.run(burst)]
    estimates = [v for v in served if not hasattr(v, "max_loading")]
    loadings = np.array([
        x for v in served if hasattr(v, "max_loading")
        for x in (v.max_loading, *(viol.loading for viol in v.violations))
    ])
    emit("served flush",
         [(r.Vm, r.Va) for r in estimates] + [(loadings, np.zeros(0))],
         sum(r.iterations for r in served))

    # the N-1 sweeps: DC batched over every safe outage, AC on a pool
    def sweep(name, results):
        flags = np.array([r.converged for r in results], dtype=float)
        loading = np.array([r.max_loading for r in results])
        viol = np.array([
            x for r in results for v in r.violations
            for x in (v.branch, v.flow, v.rating)
        ])
        emit(name, [(flags, loading), (viol, np.zeros(0))],
             sum(r.iterations for r in results))

    sweep("n-1 dc batch", ContingencyAnalyzer(net).analyze_batch(safe))
    sweep("n-1 ac pool", run_parallel(
        ContingencyAnalyzer(net, method="ac"), safe[:20],
        executor="processes:2",
    ).results)

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
    for label, opts in (("", {}), (" condensed", dict(condense=True))):
        session = DseSession(arch, bad_data_policy="identify", **opts)
        states = []
        for scan in scans:
            removed = session.process_frame(scan).bad_data.removed_global_rows
            # the session publishes no state; its tracking start is the
            # frame's
            states += [(session._prev_vm, session._prev_va),
                       (np.array(removed, dtype=float), none)]
        emit(f"session identify 3 frames{label}", states,
             sum(r.rounds for r in session.reports))

    # the mapping plane across frames and an outage repair; the placement
    # still fits the network with branch 0 out
    arch = ArchitecturePrototype.assemble(case118(), m_subsystems=9, seed=0)
    onet = arch.net
    plac = full_placement(onet).merged_with(dse_pmu_placement(arch.dec))
    plac = plac.subset(np.array([m.mtype.is_bus or m.element != 0 for m in plac]))
    session = DseSession(arch)
    pf, rng = run_ac_power_flow(onet), np.random.default_rng(6)

    def assignment(mapping: dict) -> np.ndarray:
        out = np.empty(arch.dec.m)
        for c, subs in enumerate(mapping.values()):
            out[subs] = c
        return out

    states = []
    for k, level in enumerate(np.tile([0.5, 1.0, 2.0, 4.0, 2.0, 1.0, 1.0, 0.5], 5)):
        if k == 20:
            apply_branch_outage(arch, 0)
            pf = run_ac_power_flow(onet)
        r = session.process_frame(
            generate_measurements(onet, plac, pf, noise_level=level, rng=rng)
        )
        states.append((
            np.array([r.noise_level, r.imbalance_step1, r.imbalance_step2,
                      r.edge_cut_step2, r.migrated_weight], dtype=float),
            np.concatenate([assignment(r.mapping_step1),
                            assignment(r.mapping_step2)]),
        ))
    emit("session mapping 40 frames", states, sum(r.rounds for r in session.reports),
         relative=True)


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

    def gap(a: list, b: list, relative=False) -> float:
        """Largest move from ``b`` (the revision's) to ``a``: absolute, or
        relative to ``b`` where it is not zero."""
        if len(a) != len(b):
            return float("inf")
        return max(
            (abs(x - y) / (abs(y) if relative and y else 1.0) for x, y in zip(a, b)),
            default=0.0,
        )

    different = 0
    for name, row in ours.items():
        ref = theirs.get(name)
        verdict, move = "equal", 0.0
        if ref is None:
            different += 1
            verdict = "DIFFERENT (row missing at the revision)"
        elif (ref["sha1"], ref["iterations"]) != (row["sha1"], row["iterations"]):
            d_vm = gap(row["vm"], ref["vm"], row["relative"])
            d_va = gap(row["va"], ref["va"])
            move = max(d_vm, d_va)
            inside = args.tol > 0 and move <= args.tol
            different += not inside
            verdict = (
                f"{'within tol' if inside else 'DIFFERENT'} "
                f"(max|dVm| {d_vm:.3e}, max|dVa| {d_va:.3e}, iterations "
                f"{ref['iterations']} -> {row['iterations']})"
            )
        facts = f"{ref.get('factorizations', '-')}" if ref else "-"
        unit = "rel" if row["relative"] else "pu/rad"
        print(f"{name:36s} {row['sha1'][:16]}  iters {row['iterations']:5d}  "
              f"factorizations {facts:>5s} -> {row['factorizations']:5d}  "
              f"move {move:.1e} {unit:6s}  {verdict}")
    missing = sorted(set(theirs) - set(ours))
    for name in missing:
        print(f"{name:36s} missing in the working tree  DIFFERENT")
    return 1 if different or missing else 0


if __name__ == "__main__":
    sys.exit(main())
