"""The four closed-loop workloads.

Each workload is one caller issuing one public call after another; the
call is ``op``.  Everything else here is harness work that stays outside
the timed region: drawing the next input from the seeded generator,
checking the result, and the heavier post-hoc verification against the
reference paths.  All planes that are off by default (obs, health, faults,
recovery, process pools) stay off.

The program only ever sees generated inputs: ``--seed`` drives every noise
draw and every burst's composition, nothing else.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.contingency import enumerate_n1
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.dse import (
    DistributedStateEstimator,
    decompose,
    decompose_by_areas,
    dse_pmu_placement,
)
from repro.estimation.wls import WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.grid.delta import NetworkDelta
from repro.measurements import (
    full_placement,
    generate_measurements,
    true_values,
)
from repro.serving import (
    ContingencyRequest,
    EstimationRequest,
    ScenarioService,
    ShardRouter,
)

__all__ = ["WORKLOADS", "Workload", "Checked"]

#: a per-op accuracy above this (pu / rad) is a wrong answer, not noise
RMSE_LIMIT = 5e-3
#: DSE vs centralized WLS on the same frame (max |ΔVm|, pu)
DSE_VS_WLS_TOL = 5e-3


@dataclass
class Checked:
    """Outcome of checking one op: pass/fail plus its accuracy sample."""

    ok: bool
    vm_rmse: float | None = None
    va_rmse: float | None = None
    why: str = ""


def _accuracy_ok(err: dict) -> bool:
    return (
        np.isfinite(err["vm_rmse"]) and np.isfinite(err["va_rmse"])
        and err["vm_rmse"] < RMSE_LIMIT and err["va_rmse"] < RMSE_LIMIT
    )


class Workload:
    """Base class: a seeded input stream, a timed ``op`` and its checks.

    Subclasses implement ``setup`` (the whole from-scratch path down to the
    first cold op), ``next_input``, ``op``, ``check`` and ``verify``.
    """

    name = ""
    why = ""
    #: from-scratch set-ups per run (their median is ``setup_s``); set-up
    #: is the noisiest thing measured — threads, sockets, cold code — so it
    #: is repeated as often as the time budget allows
    setup_repeats = 9
    #: kernel runs per yardstick reading (more for long ops)
    yard_reps = 1
    #: every n-th measured op is kept for post-hoc verification
    verify_every = 8
    #: the AC power flow of the base case starts flat
    flat_start = False

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    # -- shared helpers -------------------------------------------------
    def _draw_z(self) -> np.ndarray:
        """One telemetry scan: true values + nominal meter noise."""
        return self.z_true + self.plac.sigma * self.rng.standard_normal(
            len(self.z_true)
        )

    def decompose(self, net):
        """The workload's decomposition (``assemble`` computes the same)."""
        return decompose(net, 9, seed=0)

    def _prepare_case(self, net, dec) -> None:
        self.net, self.dec = net, dec
        self.pf = run_ac_power_flow(net, flat_start=self.flat_start)
        self.plac = full_placement(net).merged_with(dse_pmu_placement(dec))
        self.ms = generate_measurements(net, self.plac, self.pf, rng=self.rng)
        self.z_true = true_values(net, self.plac, self.pf)
        self.truth = (self.pf.Vm, self.pf.Va)

    def _dse_vs_wls(self, Vm, mset, z=None) -> list[str]:
        """A DSE solution must sit within tolerance of the centralized
        estimate of the same frame (``mset``, or ``z`` over it)."""
        central = WlsEstimator(self.net, mset).estimate(z=z)
        gap = float(np.abs(Vm - central.Vm).max())
        if not central.converged or gap > DSE_VS_WLS_TOL:
            return [f"DSE vs centralized WLS: max|dVm|={gap:.3e}"]
        return []

    # -- interface --------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Checked:
        raise NotImplementedError

    def verify(self, kept: list) -> list[str]:
        """Post-hoc checks on the kept ``(inp, out)`` pairs against the
        reference paths; returns one message per violation."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started (threads, sockets)."""


class Ieee118Session(Workload):
    name = "ieee118_session"
    why = (
        "The paper's Fig. 6 cycle: noise, Step-1 map, estimator build, Step 1, "
        "3 reference Step-2 rounds, remap, testbed replay; no middleware, no serving"
    )

    def setup(self) -> None:
        net = case118()
        self.arch = ArchitecturePrototype.assemble(net, m_subsystems=9)
        self._prepare_case(net, self.arch.dec)
        self.session = DseSession(self.arch)
        self.cold = self.op(self.ms)

    def next_input(self):
        return self.plac.with_values(self._draw_z())

    def op(self, mset):
        return self.session.process_frame(mset, truth=self.truth)

    def check(self, mset, report) -> Checked:
        err = {
            "vm_rmse": report.vm_rmse_vs_truth,
            "va_rmse": report.va_rmse_vs_truth,
        }
        ok = (
            not report.degraded_subsystems
            and report.rounds == 3
            and _accuracy_ok(err)
        )
        return Checked(ok, err["vm_rmse"], err["va_rmse"], "degraded/rounds/accuracy")

    def verify(self, kept) -> list[str]:
        # FrameReport carries no state vector, so the DSE-vs-WLS gap is
        # checked on the same frames through the estimator directly
        out = []
        for mset, _ in kept[:3]:
            res = DistributedStateEstimator(self.arch.dec, mset).run()
            out += self._dse_vs_wls(res.Vm, mset)
        return out


class Ieee118LiveTcp(Workload):
    name = "ieee118_live_tcp"
    why = (
        "Same numerics, real delivery: 9 site threads, localhost TCP mux hub, "
        "pack-wire-unpack, 4 barriers; the only workload where middleware works"
    )

    def setup(self) -> None:
        net = case118()
        self._prepare_case(net, self.decompose(net))
        self.live = LiveDseRuntime(self.dec, self.ms, use_tcp=True)
        self.cold = self.live.run()

    def next_input(self):
        return self._draw_z()

    def op(self, z):
        return self.live.run(z=z)

    def check(self, z, res) -> Checked:
        err = res.state_error(*self.truth)
        ok = (
            not res.errors and not res.degraded_subsystems
            and not res.lost_sites and res.rounds == 3 and _accuracy_ok(err)
        )
        return Checked(ok, err["vm_rmse"], err["va_rmse"], f"errors={res.errors[:1]}")

    def verify(self, kept) -> list[str]:
        out = []
        inproc = DistributedStateEstimator(self.dec, self.ms)
        for z, res in kept:
            ref = inproc.run(z=z)
            if not (np.array_equal(res.Vm, ref.Vm) and np.array_equal(res.Va, ref.Va)):
                out.append("live result differs from the in-process DSE")
        z, res = kept[0]
        return out + self._dse_vs_wls(res.Vm, self.ms, z)


class Wecc37Condensed(Workload):
    name = "wecc37_condensed"
    why = (
        "Scale (37 areas, 1480 buses, 7 rounds) and the Schur-condensed Step 2 "
        "with its compact wire form; splits from ieee118_session when only one path moves"
    )
    setup_repeats = 4
    yard_reps = 3
    verify_every = 1_000_000   # one frame: the reference run costs 1.5 s
    flat_start = True

    def decompose(self, net):
        return decompose_by_areas(net)

    def setup(self) -> None:
        net = synthetic_grid(n_areas=37, buses_per_area=40, seed=11)
        self._prepare_case(net, self.decompose(net))
        self.dse = DistributedStateEstimator(self.dec, self.ms, condense=True)
        self.cold = self.dse.run()

    def next_input(self):
        return self._draw_z()

    def op(self, z):
        return self.dse.run(z=z)

    def check(self, z, res) -> Checked:
        err = res.state_error(*self.truth)
        ok = not res.degraded_subsystems and res.rounds == 7 and _accuracy_ok(err)
        return Checked(ok, err["vm_rmse"], err["va_rmse"], "degraded/rounds/accuracy")

    def verify(self, kept) -> list[str]:
        out = []
        z, res = kept[0]
        ref = DistributedStateEstimator(self.dec, self.ms).run(z=z)
        gap = max(
            float(np.abs(res.Vm - ref.Vm).max()),
            float(np.abs(res.Va - ref.Va).max()),
        )
        if gap > 1e-8:
            out.append(f"condensed vs reference Step 2: max gap {gap:.3e}")
        # the centralized-WLS comparison costs 5 s at this scale; the
        # traced run makes it (layers.kernel_pass)
        return out


class ServeBurst(Workload):
    name = "serve_burst"
    why = (
        "The served what-if path: hash route, queue, coalesce, batched WLS / DC "
        "compensation, reply; the only workload where serving, contingency, grid.delta work"
    )
    verify_every = 10

    N_FRAMES, N_WHATIF, N_CONTINGENCY = 12, 6, 6

    def setup(self) -> None:
        net = case118()
        self._prepare_case(net, self.decompose(net))
        self.safe, _ = enumerate_n1(net)
        self.deltas = [
            NetworkDelta.branch_outage(c.branch, label=c.label) for c in self.safe
        ]
        self.router = ShardRouter(
            {name: self.replica() for name in ("s0", "s1")}, grid="ieee118"
        )
        burst = self.next_input()
        self.cold = self.op(burst)

    def replica(self) -> ScenarioService:
        return ScenarioService(
            self.dec, self.ms, executor="serial", batch_solve=True,
            max_batch=16, flush_latency=2e-3,
        )

    def next_input(self):
        """24 requests: 12 values-only frames, 6 what-if branch outages and
        6 N-1 screenings over safe branches, in seeded order.  The counts
        are fixed (the mix's proportions, not a draw from them) so every
        burst is the same amount of work."""
        rng = self.rng
        reqs = [EstimationRequest(z=self._draw_z()) for _ in range(self.N_FRAMES)]
        reqs += [
            EstimationRequest(delta=self.deltas[int(i)])
            for i in rng.integers(len(self.deltas), size=self.N_WHATIF)
        ]
        reqs += [
            ContingencyRequest(self.safe[int(i)])
            for i in rng.integers(len(self.safe), size=self.N_CONTINGENCY)
        ]
        return [reqs[int(i)] for i in rng.permutation(len(reqs))]

    def op(self, burst):
        return self.router.run(burst)

    def check(self, burst, results) -> Checked:
        errs = []
        ok = len(results) == len(burst)
        for req, res in zip(burst, results):
            ok = ok and res.request is req and bool(res.value.converged)
            if isinstance(req, EstimationRequest) and req.delta is None:
                errs.append(res.value.state_error(*self.truth))
        shed = self.counters()["shed"]
        vm = float(np.mean([e["vm_rmse"] for e in errs]))
        va = float(np.mean([e["va_rmse"] for e in errs]))
        ok = ok and shed == 0 and all(_accuracy_ok(e) for e in errs)
        return Checked(ok, vm, va, f"shed={shed}")

    def counters(self) -> dict:
        """Cumulative router/replica counters (requests, batches, shed,
        per-shard routed)."""
        snap = self.router.stats_snapshot()
        shards = snap["shards"].values()
        return {
            "requests": sum(s["n_requests"] for s in shards),
            "batches": sum(s["n_batches"] for s in shards),
            "shed": snap["router"]["shed"] + sum(s["n_shed"] for s in shards),
            "routed": dict(snap["router"]["routed"]),
        }

    def verify(self, kept) -> list[str]:
        out = []
        base = WlsEstimator(self.net, self.ms)
        analyzer = self.router.live_items()[0][1].analyzer
        for burst, results in kept:
            for req, res in zip(burst, results):
                if isinstance(req, ContingencyRequest):
                    ref = analyzer.analyze(req.contingency)
                    gap = abs(res.value.max_loading - ref.max_loading)
                    if gap > 1e-9:
                        out.append(f"served contingency loading off by {gap:.3e}")
                    continue
                if req.delta is None:
                    ref = base.estimate(z=req.z)
                else:
                    ref = WlsEstimator(self.net.fork(req.delta), self.ms).estimate()
                gap = float(np.abs(res.value.Vm - ref.Vm).max())
                if gap > 1e-10:
                    out.append(f"batched frame off the serial WLS by {gap:.3e}")
        return out

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close()
            self.router = None


WORKLOADS = {
    cls.name: cls
    for cls in (Ieee118Session, Ieee118LiveTcp, Wecc37Condensed, ServeBurst)
}
