"""The traced run: per-layer numbers measured from outside the program.

Every span here is recorded by the harness around a call into a public
function of one layer (spans inside ``src/`` are a later issue).  A traced
run alternates, frame by frame, the untouched op with a *staged* version
of it that records spans; the end-to-end metrics never come from this run.

Three kinds of numbers come out, all medians over the traced ops:

- per-op stage times (``core.*``, ``dse.*``, ``cluster.*``, ``serving.*``)
  from the spans of the staged op, and exact counts from its result;
- per-call kernel times (``measurements.*_us``, ``estimation.*_us`` …)
  from a kernel pass over subsystem-sized public objects; their per-op
  share is *computed* (per-call time × exact call count) and reported
  separately, labelled so;
- raw ``bench.*`` numbers of the untouched op.

A metric reads 0 on a workload whose ops never enter that layer.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.executor import MessageSpec, TaskSpec
from repro.cluster.topology import pnnl_testbed
from repro.contingency import ContingencyAnalyzer
from repro.core import NoiseLevelEstimator
from repro.dse import (
    BYTES_PER_EXCHANGED_BUS,
    DistributedStateEstimator,
    assign_measurements,
    exchange_bus_sets,
    extract_subnetwork,
    localize_measurements,
)
from repro.estimation import build_gain
from repro.estimation.batch import BatchEstimator, BatchScenario
from repro.estimation.solvers import GainSolver, SchurGainSolver
from repro.estimation.wls import WlsEstimator
from repro.grid import run_ac_power_flow
from repro.measurements import MeasurementModel, generate_measurements
from repro.measurements.functions import JacobianStructure
from repro.middleware.message import pack_state_update, unpack_state_update
from repro.middleware.router import MiddlewareFabric
from repro.partition import partition_kway
from repro.serving import EstimationRequest

from workloads import DSE_VS_WLS_TOL
from yardstick import raw_numbers, tail_percentile

__all__ = ["TRACE_OPS", "UNITS", "PER_LAYER", "traced_run", "Tracer"]

#: op pairs (untouched + staged) per traced run, time permitting
TRACE_OPS = 30
WARMUP_PAIRS = 2

#: every per-layer metric: name -> (unit, better)
PER_LAYER = {
    "core.noise_ms": ("ms", "lower"),
    "core.map_step1_ms": ("ms", "lower"),
    "core.remap_step2_ms": ("ms", "lower"),
    "core.session_other_ms": ("ms", "lower"),
    "core.live_run_ms": ("ms", "lower"),
    "core.live_site_compute_ms": ("ms", "lower"),
    "core.live_overhead_ms": ("ms", "lower"),
    "partition.kway_ms": ("ms", "lower"),
    "dse.construct_ms": ("ms", "lower"),
    "dse.run_ms": ("ms", "lower"),
    "dse.step1_ms": ("ms", "lower"),
    "dse.step2_ms": ("ms", "lower"),
    "dse.run_other_ms": ("ms", "lower"),
    "dse.rounds": ("count", "lower"),
    "dse.wire_bytes_per_op": ("B", "lower"),
    "dse.condense_factor_ms": ("ms", "lower"),
    "dse.decompose_ms": ("ms", "lower"),
    "measurements.h_eval_us": ("us", "lower"),
    "measurements.jac_fill_us": ("us", "lower"),
    "measurements.jac_structure_ms": ("ms", "lower"),
    "measurements.generate_ms": ("ms", "lower"),
    "estimation.gain_build_us": ("us", "lower"),
    "estimation.gain_solve_us": ("us", "lower"),
    "estimation.gn_iters_per_op": ("count", "lower"),
    "estimation.schur_factor_ms": ("ms", "lower"),
    "estimation.schur_solve_us": ("us", "lower"),
    "estimation.batch16_ms": ("ms", "lower"),
    "estimation.wls_central_ms": ("ms", "lower"),
    "middleware.pack_us": ("us", "lower"),
    "middleware.unpack_us": ("us", "lower"),
    "middleware.fabric_start_ms": ("ms", "lower"),
    "middleware.fabric_rtt_us": ("us", "lower"),
    "middleware.live_msgs_per_op": ("count", "lower"),
    "middleware.live_bytes_per_op": ("B", "lower"),
    "cluster.sim_replay_ms": ("ms", "lower"),
    "serving.submit_us": ("us", "lower"),
    "serving.first_result_ms": ("ms", "lower"),
    "serving.req_p50_ms": ("ms", "lower"),
    "serving.req_tail_ms": ("ms", "lower"),
    "serving.mean_batch_size": ("count", "higher"),
    "serving.batches_per_op": ("count", "lower"),
    "serving.shard_imbalance": ("ratio", "lower"),
    "serving.shed_per_op": ("count", "lower"),
    "serving.direct_burst_ms": ("ms", "lower"),
    "contingency.batch_ms": ("ms", "lower"),
    "grid.fork_us": ("us", "lower"),
    "grid.powerflow_ms": ("ms", "lower"),
    "bench.op_p50_ms": ("ms", "lower"),
    "bench.op_p90_ms": ("ms", "lower"),
    "bench.op_tail_ms": ("ms", "lower"),
    "bench.ops_per_s": ("1/s", "higher"),
    "bench.cpu_ms_per_op": ("ms", "lower"),
    "bench.yardstick_p50_ms": ("ms", "lower"),
    "bench.yardstick_iqr_frac": ("ratio", "lower"),
    "bench.trace_coverage": ("ratio", "higher"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}
UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}


# ---------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------
class Tracer:
    """In-memory span log: ``(name, start, end, parent, op)`` records,
    written out once when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        rec = {"id": len(self.spans), "name": name, "op": op,
               "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()

    def derived(self, name: str, op: int, parent: int, seconds: float) -> None:
        """A child whose duration the program reported itself (e.g. the
        summed ``step1_time`` of a ``DseResult``); it has no own clock
        readings, so it is laid out from its parent's start."""
        start = self.spans[parent]["start"]
        self.spans.append({
            "id": len(self.spans), "name": name, "op": op, "parent": parent,
            "start": start, "end": start + seconds, "derived": True,
        })

    def duration(self, span_id: int) -> float:
        rec = self.spans[span_id]
        return rec["end"] - rec["start"]

    def children_total(self, span_id: int) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == span_id
        )

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _dse_numbers(result, run_seconds: float) -> dict:
    """Layer numbers a ``DseResult`` carries about its own run."""
    recs = result.records.values()
    step1 = sum(r.step1_time for r in recs)
    step2 = sum(sum(r.step2_times) for r in recs)
    iters = sum(
        r.step1_result.iterations + sum(e.iterations for e in r.step2_results)
        for r in recs
    )
    return {
        "dse.run_ms": run_seconds * 1e3,
        "dse.step1_ms": step1 * 1e3,
        "dse.step2_ms": step2 * 1e3,
        "dse.run_other_ms": (run_seconds - step1 - step2) * 1e3,
        "dse.rounds": result.rounds,
        "dse.wire_bytes_per_op": result.total_bytes_exchanged,
        "estimation.gn_iters_per_op": iters,
    }


# ---------------------------------------------------------------------
# staged ops: one per workload
# ---------------------------------------------------------------------
class Stager:
    """Runs one op under spans; returns ``(out, numbers, root_span)``."""

    def __init__(self, wl, tracer: Tracer):
        self.wl, self.tr = wl, tracer

    def staged(self, inp, op: int):
        raise NotImplementedError

    def check(self, inp, plain_out, staged_out):
        """The staged op's result must pass the workload's own check."""
        return self.wl.check(inp, staged_out)

    def close(self) -> None:
        pass


class SessionStager(Stager):
    """Re-enacts ``DseSession.process_frame`` stage by stage through the
    same public calls, carrying its own copy of the session's cross-frame
    state (noise history, previous solution) in lockstep with the real
    session, so both see identical inputs and must report identical
    accuracy."""

    def __init__(self, wl, tracer):
        super().__init__(wl, tracer)
        arch = wl.arch
        self.noise = NoiseLevelEstimator(arch.net)
        self.exchange_sets = exchange_bus_sets(arch.dec, threshold=0.5)
        self.prev = (np.ones(arch.net.n_bus), np.zeros(arch.net.n_bus))
        self.frame_no = 0
        # the frame ``setup`` already pushed through the real session
        self.staged(wl.ms, op=-WARMUP_PAIRS - 1)

    def staged(self, mset, op: int):
        arch, tr = self.wl.arch, self.tr
        dec = arch.dec
        with tr.span("session.frame(staged)", op) as root:
            with tr.span("core.noise", op, root) as s_noise:
                x = self.noise.update(mset, *self.prev)
                arch.iteration_model.iterations(x)
            with tr.span("core.map_step1", op, root) as s_map:
                map1 = arch.mapper.map_step1(dec, x)
            warm = self.prev if self.frame_no > 0 else None
            with tr.span("dse.construct", op, root) as s_con:
                dse = DistributedStateEstimator(dec, mset)
            with tr.span("dse.run", op, root) as s_run:
                result = dse.run(x0=warm)
            with tr.span("core.remap_step2", op, root) as s_remap:
                map2, _ = arch.mapper.remap_step2(dec, x, map1, self.exchange_sets)
            with tr.span("cluster.sim_replay", op, root) as s_sim:
                self._replay(result, map1, map2)
            err = result.state_error(*self.wl.truth)
        self.prev = (result.Vm, result.Va)
        self.frame_no += 1
        numbers = _dse_numbers(result, tr.duration(s_run))
        for name, span in (("core.noise_ms", s_noise), ("core.map_step1_ms", s_map),
                           ("core.remap_step2_ms", s_remap),
                           ("dse.construct_ms", s_con),
                           ("cluster.sim_replay_ms", s_sim)):
            numbers[name] = tr.duration(span) * 1e3
        numbers["_stages_s"] = tr.children_total(root)
        return (err, result), numbers, root

    def _replay(self, result, map1, map2) -> None:
        """One frame's task/message set on the simulated testbed — the
        same set ``DseSession`` replays."""
        dec, ex = self.wl.arch.dec, self.wl.arch.executor
        ex.run_phase([
            TaskSpec(f"se{s}.step1", map1.cluster_of(s), result.records[s].step1_time)
            for s in range(dec.m)
        ])
        ex.run_exchange([
            MessageSpec(
                map1.cluster_of(s), map2.cluster_of(s),
                result.records[s].n_buses * BYTES_PER_EXCHANGED_BUS * 4,
            )
            for s in range(dec.m) if map1.cluster_of(s) != map2.cluster_of(s)
        ])
        for r in range(result.rounds):
            msgs = []
            for s in range(dec.m):
                nbrs = dec.neighbors(s)
                share = result.records[s].bytes_sent_per_round[r] // max(1, len(nbrs))
                for nb in nbrs:
                    src, dst = map2.cluster_of(s), map2.cluster_of(int(nb))
                    if src != dst:
                        msgs.append(MessageSpec(src, dst, share))
            ex.run_exchange(msgs)
            ex.run_phase([
                TaskSpec(f"se{s}.step2.r{r}", map2.cluster_of(s),
                         result.records[s].step2_times[r])
                for s in range(dec.m)
            ])

    def check(self, mset, report, staged_out):
        err, result = staged_out
        chk = self.wl.check(mset, report)
        same = (
            err["vm_rmse"] == report.vm_rmse_vs_truth
            and err["va_rmse"] == report.va_rmse_vs_truth
            and result.total_bytes_exchanged == report.bytes_exchanged
        )
        if not same:
            chk.ok, chk.why = False, "staged frame differs from process_frame"
        return chk


class LiveStager(Stager):
    def __init__(self, wl, tracer):
        super().__init__(wl, tracer)
        self.inproc = DistributedStateEstimator(wl.dec, wl.ms)

    def staged(self, z, op: int):
        tr = self.tr
        with tr.span("core.live_run", op) as root:
            res = self.wl.live.run(z=z)
        sites = res.sites.values()
        # each site clocks its own solves on its own thread, GIL waits
        # included, so the sum over sites exceeds the run's wall time; the
        # span (and the coverage) use the mean site instead
        compute = sum(s.step1_time + sum(s.step2_times) for s in sites)
        tr.derived("core.live_site_compute(mean site)", op, root, compute / len(sites))
        # the same frame in-process: what the numerics alone cost
        with tr.span("dse.run(in-process reference)", op) as s_ref:
            ref = self.inproc.run(z=z)
        numbers = _dse_numbers(ref, tr.duration(s_ref))
        numbers.update({
            "core.live_run_ms": tr.duration(root) * 1e3,
            "core.live_site_compute_ms": compute * 1e3,
            "core.live_overhead_ms": (tr.duration(root) - tr.duration(s_ref)) * 1e3,
            "middleware.live_msgs_per_op": sum(s.messages_received for s in sites),
            "middleware.live_bytes_per_op": sum(s.bytes_sent for s in sites),
            "_stages_s": compute / len(sites),
        })
        return res, numbers, root


class WeccStager(Stager):
    def staged(self, z, op: int):
        tr = self.tr
        with tr.span("dse.run", op) as root:
            res = self.wl.dse.run(z=z)
        numbers = _dse_numbers(res, tr.duration(root))
        tr.derived("dse.step1", op, root, numbers["dse.step1_ms"] / 1e3)
        tr.derived("dse.step2", op, root, numbers["dse.step2_ms"] / 1e3)
        numbers["_stages_s"] = tr.children_total(root)
        return res, numbers, root


class ServeStager(Stager):
    """Submits the burst request by request with done-callbacks, so each
    request's completion time (from burst start) is seen from the caller's
    side; also runs the same burst on one direct replica, no router."""

    def __init__(self, wl, tracer):
        super().__init__(wl, tracer)
        self.direct = wl.replica()
        self._snap = wl.counters()

    def staged(self, burst, op: int):
        tr, router = self.tr, self.wl.router
        done_at = []   # list.append is atomic; order does not matter

        with tr.span("serving.burst", op) as root:
            t0 = time.perf_counter()
            with tr.span("serving.submit", op, root) as s_sub:
                futures = [router.submit(req) for req in burst]
            for fut in futures:
                fut.add_done_callback(lambda _f: done_at.append(time.perf_counter()))
            with tr.span("serving.wait", op, root):
                results = [fut.result() for fut in futures]
                while len(done_at) < len(futures):   # a waiter can wake
                    time.sleep(0)                    # before the callback ran
        lat_ms = sorted((t - t0) * 1e3 for t in done_at)
        with tr.span("serving.direct_burst", op) as s_dir:
            self.direct.run(burst)
        numbers = {
            "serving.submit_us": tr.duration(s_sub) / len(burst) * 1e6,
            "serving.first_result_ms": lat_ms[0],
            "serving.req_p50_ms": statistics.median(lat_ms),
            "serving.req_tail_ms": tail_percentile(lat_ms)[1],
            "serving.direct_burst_ms": tr.duration(s_dir) * 1e3,
            "estimation.gn_iters_per_op": sum(
                r.value.iterations for r in results
                if isinstance(r.request, EstimationRequest)
            ),
            "_stages_s": tr.children_total(root),
        }
        return results, numbers, root

    def totals(self, n_router_ops: int) -> dict:
        """Router/replica counters over every burst since construction."""
        now, was = self.wl.counters(), self._snap
        batches = now["batches"] - was["batches"]
        routed = [now["routed"].get(k, 0) - was["routed"].get(k, 0)
                  for k in now["routed"]]
        return {
            "serving.mean_batch_size": (now["requests"] - was["requests"]) / batches,
            "serving.batches_per_op": batches / n_router_ops,
            "serving.shard_imbalance": max(routed) / statistics.fmean(routed),
            "serving.shed_per_op": (now["shed"] - was["shed"]) / n_router_ops,
        }

    def close(self) -> None:
        self.direct.close()


STAGERS = {
    "ieee118_session": SessionStager,
    "ieee118_live_tcp": LiveStager,
    "wecc37_condensed": WeccStager,
    "serve_burst": ServeStager,
}


# ---------------------------------------------------------------------
# kernel pass
# ---------------------------------------------------------------------
def _time(fn, reps: int) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def _subsystem_models(wl):
    """Step-1-sized public objects of every subsystem: measurement model,
    Jacobian structure, a linearisation point and its residual."""
    net, dec, ms = wl.net, wl.dec, wl.ms
    assignment = assign_measurements(dec, ms)
    out = []
    for s in range(dec.m):
        own = dec.buses(s)
        subnet, bmap, brmap = extract_subnetwork(
            net, own, dec.internal_branches(s), reference_bus=int(own[0])
        )
        local = localize_measurements(ms, assignment.step1[s], bmap, brmap)
        model = MeasurementModel(subnet, local)
        Vm, Va = wl.pf.Vm[own], wl.pf.Va[own]
        boundary = bmap[dec.boundary_buses(s)]
        out.append({
            "model": model, "ms": local, "Vm": Vm, "Va": Va,
            "boundary_states": np.concatenate([boundary, boundary + len(own)]),
            "n_states": 2 * len(own),
        })
    return out


def kernel_pass(wl, problems: list) -> dict:
    """Per-call times of the public kernels this workload's ops enter;
    correctness violations seen on the way are appended to ``problems``."""
    net, dec, ms, name = wl.net, wl.dec, wl.ms, wl.name
    subs = _subsystem_models(wl)
    m = len(subs)
    out = {}

    def per_sub(fn, reps=20):
        """Median over reps of the mean per-subsystem call time."""
        return _time(lambda: [fn(sub) for sub in subs], reps) / m

    out["measurements.jac_structure_ms"] = per_sub(
        lambda sub: JacobianStructure(sub["model"]), reps=3) * 1e3
    for sub in subs:
        sub["structure"] = sub["model"].jacobian_structure()
        sub["H"] = sub["structure"].fill(sub["Vm"], sub["Va"])
        sub["r"] = sub["ms"].z - sub["model"].h(sub["Vm"], sub["Va"])
        sub["solver"] = GainSolver()
        sub["solver"].solve(sub["H"], sub["ms"].weights, sub["r"])   # warm
    out["measurements.h_eval_us"] = per_sub(
        lambda sub: sub["model"].h(sub["Vm"], sub["Va"])) * 1e6
    out["measurements.jac_fill_us"] = per_sub(
        lambda sub: sub["structure"].fill(sub["Vm"], sub["Va"])) * 1e6
    out["estimation.gain_build_us"] = per_sub(
        lambda sub: build_gain(sub["H"], sub["ms"].weights)) * 1e6
    out["estimation.gain_solve_us"] = per_sub(
        lambda sub: sub["solver"].solve(sub["H"], sub["ms"].weights, sub["r"])) * 1e6

    clusters = len(pnnl_testbed().clusters)
    graph = dec.quotient_graph()
    out["partition.kway_ms"] = _time(lambda: partition_kway(graph, clusters), 5) * 1e3
    out["dse.decompose_ms"] = _time(lambda: wl.decompose(net), 3) * 1e3
    out["grid.powerflow_ms"] = _time(
        lambda: run_ac_power_flow(net, flat_start=wl.flat_start), 3) * 1e3
    rng = np.random.default_rng(0)
    out["measurements.generate_ms"] = _time(
        lambda: generate_measurements(net, wl.plac, wl.pf, rng=rng), 3) * 1e3
    # the plain single-threaded baseline of the same problem; one call is
    # all the budget allows at WECC scale (5 s each, cold ~ warm)
    central = WlsEstimator(net, ms)
    baseline = []
    out["estimation.wls_central_ms"] = _time(
        lambda: baseline.append(central.estimate(z=ms.z)),
        3 if net.n_bus < 500 else 1) * 1e3
    cold_vm = getattr(wl.cold, "Vm", None)   # the set-up's DSE run on ``ms``
    if cold_vm is not None:
        gap = float(np.abs(cold_vm - baseline[-1].Vm).max())
        if gap > DSE_VS_WLS_TOL:
            problems.append(f"DSE vs centralized WLS: max|dVm|={gap:.3e}")
    if name != "ieee118_session":     # there it is a per-frame span
        out["dse.construct_ms"] = _time(
            lambda: DistributedStateEstimator(
                dec, ms, condense=(name == "wecc37_condensed")), 3) * 1e3

    if name == "wecc37_condensed":
        def factor(sub):
            sub["schur"] = SchurGainSolver(sub["boundary_states"], sub["n_states"])
            sub["schur"].factor(sub["H"], sub["ms"].weights)
        out["estimation.schur_factor_ms"] = per_sub(factor, reps=3) * 1e3
        for sub in subs:
            sub["rhs"] = sub["H"].T @ (sub["ms"].weights * sub["r"])
        out["estimation.schur_solve_us"] = per_sub(
            lambda sub: sub["schur"].solve(sub["rhs"])) * 1e6
        cold = DistributedStateEstimator(dec, ms, condense=True).run()
        out["dse.condense_factor_ms"] = sum(
            r.factor_time for r in cold.records.values()) * 1e3

    if name == "ieee118_live_tcp":
        ids = net.bus_ids[:24]
        Vm, Va = wl.pf.Vm[:24], wl.pf.Va[:24]
        frame = bytes(pack_state_update(ids, Vm, Va))
        out["middleware.pack_us"] = _time(
            lambda: pack_state_update(ids, Vm, Va), 200) * 1e6
        out["middleware.unpack_us"] = _time(
            lambda: unpack_state_update(frame), 200) * 1e6
        names = [f"se{s}" for s in range(dec.m)]
        pairs = [p for u, v in dec.quotient_edges()
                 for p in ((f"se{u}", f"se{v}"), (f"se{v}", f"se{u}"))]

        def fabric_cycle():
            fab = MiddlewareFabric(names, pairs, use_tcp=True, fast=True)
            fab.start()
            fab.stop()
        out["middleware.fabric_start_ms"] = _time(fabric_cycle, 5) * 1e3
        fab = MiddlewareFabric(names, pairs, use_tcp=True, fast=True)
        fab.start()
        try:
            src, dst = pairs[0]

            def rtt():
                fab.send(src, dst, frame)
                fab.recv(dst)
            rtt()
            out["middleware.fabric_rtt_us"] = _time(rtt, 200) * 1e6
        finally:
            fab.stop()

    if name == "serve_burst":
        batch = BatchEstimator(net, ms, max_batch=16)
        scenarios = [
            BatchScenario(z=ms.z + ms.sigma * rng.standard_normal(len(ms)))
            for _ in range(16)
        ]
        batch.estimate_batch(scenarios)
        out["estimation.batch16_ms"] = _time(
            lambda: batch.estimate_batch(scenarios), 3) * 1e3
        analyzer = ContingencyAnalyzer(net)
        analyzer.analyze_batch(wl.safe[:6])
        out["contingency.batch_ms"] = _time(
            lambda: analyzer.analyze_batch(wl.safe[:6]), 10) * 1e3
        out["grid.fork_us"] = _time(lambda: net.fork(wl.deltas[0]), 200) * 1e6
    return out


# ---------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------
@dataclass
class TraceResult:
    metrics: dict
    computed: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def traced_run(wl, yard, *, seconds: float, max_ops: int, out_dir: Path) -> TraceResult:
    tr = Tracer()
    stager = STAGERS[wl.name](wl, tr)
    res = TraceResult(metrics={k: 0.0 for k in PER_LAYER}, computed={})
    plain_s, plain_cpu, staged_s, yards = [], [], [], []
    per_op: dict[str, list] = {}
    router_ops = 0
    try:
        deadline = time.perf_counter() + seconds
        op = -WARMUP_PAIRS
        # at least two measured pairs: the quantiles below need them
        while op < max_ops and (op < 2 or time.perf_counter() < deadline):
            inp = wl.next_input()
            measured = op >= 0
            # alternate which side goes first, so drift favours neither
            order = ("plain", "staged") if op % 2 == 0 else ("staged", "plain")
            for side in order:
                if side == "plain":
                    c0, t0 = time.process_time(), time.perf_counter()
                    with tr.span(f"{wl.name}.op(untouched)", op):
                        out = wl.op(inp)
                    dt = time.perf_counter() - t0
                    if measured:
                        plain_s.append(dt)
                        plain_cpu.append(time.process_time() - c0)
                else:
                    s_out, numbers, root = stager.staged(inp, op)
                    if measured:
                        staged_s.append(tr.duration(root))
                        for k, v in numbers.items():
                            per_op.setdefault(k, []).append(v)
                router_ops += 1
            if measured:
                yards.append(yard.reading(1)[0])
            for chk in (wl.check(inp, out), stager.check(inp, out, s_out)):
                res.attempted += 1
                if not chk.ok:
                    res.failed += 1
                    res.problems.append(chk.why)
            op += 1

        m = res.metrics
        for k, vals in per_op.items():
            if not k.startswith("_"):
                m[k] = statistics.median(vals)
        if isinstance(stager, SessionStager):
            m["core.session_other_ms"] = statistics.median(
                (p - s) * 1e3 for p, s in zip(plain_s, per_op["_stages_s"])
            )
        if isinstance(stager, ServeStager):
            m.update(stager.totals(router_ops))
        m.update(kernel_pass(wl, res.problems))

        raw = raw_numbers(plain_s, plain_cpu, yards)
        m.update({k: v for k, v in raw.items() if k in PER_LAYER})
        m["bench.trace_coverage"] = statistics.median(
            st / tot for st, tot in zip(per_op["_stages_s"], staged_s)
        )
        m["bench.trace_overhead_frac"] = (
            statistics.median(staged_s) / statistics.median(plain_s) - 1.0
        )

        # computed, not measured: per-call kernel time × exact call count
        iters = m["estimation.gn_iters_per_op"]
        res.computed = {
            f"{k} x gn_iters_per_op": m[k] * iters / 1e3
            for k in ("measurements.h_eval_us", "measurements.jac_fill_us",
                      "estimation.gain_build_us", "estimation.gain_solve_us")
        } if wl.name != "serve_burst" else {}
        tr.write(out_dir / f"trace_{wl.name}.jsonl", {
            "workload": wl.name, "seed": wl.seed, "traced_ops": len(staged_s),
            "bench.op_samples": raw["bench.op_samples"],
            "bench.op_tail_percentile": raw["bench.op_tail_percentile"],
            "computed_per_op_ms": res.computed,
        })
    finally:
        stager.close()
    return res
