"""DSE sessions on the architecture prototype.

``DseSession`` executes the full per-frame pipeline of the paper's Figure 6
on an :class:`~repro.core.architecture.ArchitecturePrototype`:

1. estimate the frame's noise level ``x = f(δt)``;
2. map subsystems to clusters for Step 1 (compute balance);
3. run every subsystem's Step-1 WLS (real computation, wall-clocked);
4. update weights, remap for Step 2, charge the data redistribution;
5. run the Step-2 exchange + re-evaluation rounds;
6. aggregate the solution and replay all measured durations on the
   simulated cluster testbed to obtain the distributed execution timeline.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..cluster.executor import MessageSpec, TaskSpec
from ..dse.algorithm import (
    BYTES_PER_EXCHANGED_BUS,
    DistributedStateEstimator,
    check_run_args,
)
from ..measurements.types import MeasurementSet
from ..parallel import make_executor
from .architecture import ArchitecturePrototype
from .noise import NoiseLevelEstimator
from .telemetry import FrameReport, PhaseBreakdown

__all__ = ["DseSession"]


class DseSession:
    """Processes telemetry frames through the architecture.

    Parameters
    ----------
    arch:
        The assembled architecture.
    sensitivity_threshold:
        Threshold for the sensitive-internal-bus analysis.
    executor:
        Fan-out backend for the per-subsystem solves (see
        :class:`repro.parallel.SubsystemExecutor`); shared by every frame's
        DSE run.
    reuse_structures, warm_start, degrade_on_failure, condense:
        Hot-path / robustness knobs forwarded to
        :class:`~repro.dse.algorithm.DistributedStateEstimator`
        (``condense`` switches Step 2 to the Schur-complement condensed
        mode: boundary-sized solves, compact per-neighbour wire frames).
    """

    def __init__(
        self,
        arch: ArchitecturePrototype,
        *,
        sensitivity_threshold: float = 0.5,
        bad_data_policy: str = "off",
        executor=None,
        reuse_structures: bool = True,
        warm_start: bool = True,
        degrade_on_failure: bool = False,
        condense: bool = False,
    ):
        if bad_data_policy not in ("off", "detect", "identify"):
            raise ValueError("bad_data_policy must be off|detect|identify")
        self.arch = arch
        self.sensitivity_threshold = sensitivity_threshold
        self.bad_data_policy = bad_data_policy
        self.executor = make_executor(executor)
        self.reuse_structures = reuse_structures
        self.warm_start = warm_start
        self.degrade_on_failure = degrade_on_failure
        self.condense = condense
        self.noise_estimator = NoiseLevelEstimator(arch.net)
        self._prev_vm = np.ones(arch.net.n_bus)
        self._prev_va = np.zeros(arch.net.n_bus)
        self._frame_no = 0
        self._prev_degraded: set[int] = set()
        # the estimator kept across frames (see _estimator_for)
        self._dse: DistributedStateEstimator | None = None
        self.reports: list[FrameReport] = []

    # ------------------------------------------------------------------
    def scenario_service(self, mset: MeasurementSet, **kwargs):
        """Build a batched :class:`~repro.serving.ScenarioService` over this
        session's decomposition and executor.

        ``mset`` fixes the template measurement placement; estimation
        requests then carry values-only ``z`` frames over it.  The session's
        sensitivity threshold and executor are forwarded (the
        service shares — and does not shut down — the session's pool);
        keyword arguments override any service option.
        """
        from ..serving import ScenarioService

        opts = dict(
            executor=self.executor,
            sensitivity_threshold=self.sensitivity_threshold,
        )
        opts.update(kwargs)
        return ScenarioService(self.arch.dec, mset, **opts)

    # ------------------------------------------------------------------
    def process_frame(
        self,
        mset: MeasurementSet,
        *,
        t: float | None = None,
        rounds: int | None = None,
        truth: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> FrameReport:
        """Run the full DSE pipeline on one measurement frame."""
        check_run_args(rounds)      # before the frame touches any state
        if not obs.enabled():
            return self._process_frame_impl(mset, t=t, rounds=rounds, truth=truth)
        with obs.span("session.frame", frame=self._frame_no) as sp:
            report = self._process_frame_impl(mset, t=t, rounds=rounds, truth=truth)
            sp.set_attr("rounds", report.rounds)
            sp.set_attr("bytes_exchanged", report.bytes_exchanged)
        reg = obs.metrics()
        reg.counter("session.frames_total").inc()
        reg.histogram("session.frame.seconds").observe(report.wall_time)
        return report

    def _process_frame_impl(
        self,
        mset: MeasurementSet,
        *,
        t: float | None,
        rounds: int | None,
        truth: tuple[np.ndarray, np.ndarray] | None,
    ) -> FrameReport:
        arch = self.arch
        dec = arch.dec
        if t is None:
            t = float(self._frame_no)

        # (0) optional distributed bad-data screening on the raw frame, on
        # the placement's kept estimator; a removed row is a zero weight of
        # the frame, so neither a clean nor a screened frame constructs
        bad_data_report = screened = weights = None
        if self.bad_data_policy != "off":
            from ..dse.baddata import distributed_bad_data

            with obs.span("session.bad_data", policy=self.bad_data_policy):
                screened = self._estimator_for(mset)
                bad_data_report = distributed_bad_data(
                    screened[0],
                    mset.z if screened[1] else None,
                    identify=(self.bad_data_policy == "identify"),
                )
                removed = bad_data_report.removed_global_rows
                if removed:
                    weights = mset.weights
                    weights[removed] = 0.0

        # (1) noise level for this time frame
        with obs.span("session.noise_estimate"):
            x = self.noise_estimator.update(
                mset, self._prev_vm, self._prev_va, weights=weights
            )
            ni = arch.iteration_model.iterations(x)

        # (2) Step-1 mapping: balance compute
        with obs.span("partition.map_step1"):
            map1 = arch.mapper.map_step1(dec, x)

        # (3-5) run the DSE (functionally) and wall-clock it; after the
        # first frame, warm-start from the tracked state (the mechanism
        # behind the paper's iteration model)
        warm = (self._prev_vm, self._prev_va) if self._frame_no > 0 else None
        wall_t0 = time.perf_counter()
        dse, values_only = screened or self._estimator_for(mset)
        z = mset.z if values_only else None
        result = dse.run(rounds=rounds, x0=warm, z=z, weights=weights)
        wall_elapsed = time.perf_counter() - wall_t0
        degraded = set(result.degraded_subsystems)

        # (4) Step-2 remapping with updated weights
        with obs.span("partition.remap"):
            map2, moved = arch.mapper.remap_step2(
                dec, x, map1, dse.exchange_sets
            )

        # (6) replay on the simulated testbed
        with obs.span("session.replay_sim"):
            timings = self._replay(result, map1, map2, moved)

        report = FrameReport(
            t=t,
            noise_level=x,
            expected_iterations=ni,
            mapping_step1=map1.as_dict(),
            imbalance_step1=map1.imbalance,
            mapping_step2=map2.as_dict(),
            imbalance_step2=map2.imbalance,
            edge_cut_step2=map2.edge_cut,
            migrated_weight=moved,
            rounds=result.rounds,
            bytes_exchanged=result.total_bytes_exchanged,
            timings=timings,
            wall_time=wall_elapsed,
        )
        if truth is not None:
            err = result.state_error(*truth)
            report.vm_rmse_vs_truth = err["vm_rmse"]
            report.va_rmse_vs_truth = err["va_rmse"]
        report.bad_data = bad_data_report
        report.degraded_subsystems = sorted(degraded)
        # a subsystem degraded last frame that completed cleanly this
        # frame has recovered (failover promotion, or the fault cleared)
        recovered = sorted(self._prev_degraded - degraded)
        report.recovered_subsystems = recovered
        self._prev_degraded = set(degraded)
        if degraded and obs.enabled():
            obs.metrics().counter("session.degraded_frames_total").inc()
        if degraded and obs.health_enabled():
            obs.health().frame_degraded(
                "session", frame=self._frame_no,
                subsystems=sorted(degraded),
            )
        if recovered and obs.enabled():
            obs.metrics().counter("session.recovered_frames_total").inc()
        if recovered and obs.health_enabled():
            obs.health().site_recovered(
                "session", frame=self._frame_no, subsystems=recovered,
            )

        self._prev_vm = result.Vm
        self._prev_va = result.Va
        self._frame_no += 1
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    def _estimator_for(
        self, mset: MeasurementSet
    ) -> tuple[DistributedStateEstimator, bool]:
        """The frame's estimator and whether it serves ``mset`` values-only.

        Subproblems, Jacobian structures and normal-equation kernels depend
        on the decomposition and the measurement placement only, so the
        estimator built for one frame serves every later frame with the
        same (type, element, sigma) rows through ``run(z=)`` while
        ``arch.dec`` stays the decomposition it was built on (an outage
        repair replaces it).  Anything else builds a new one, which
        replaces the kept one; ``reuse_structures=False`` keeps nothing.
        """
        dse = self._dse
        if dse is not None and dse.dec is self.arch.dec and dse.mset.same_structure(mset):
            return dse, True
        dse = DistributedStateEstimator(
            self.arch.dec,
            mset,
            sensitivity_threshold=self.sensitivity_threshold,
            executor=self.executor,
            reuse_structures=self.reuse_structures,
            warm_start=self.warm_start,
            degrade_on_failure=self.degrade_on_failure,
            condense=self.condense,
        )
        if self.reuse_structures:
            self._dse = dse
        return dse, False

    # ------------------------------------------------------------------
    def _replay(self, result, map1, map2, moved_weight) -> PhaseBreakdown:
        """Replay measured per-subsystem durations on the simulated testbed."""
        arch = self.arch
        dec = arch.dec
        ex = arch.executor

        breakdown = PhaseBreakdown()

        # Step 1 compute phase under mapping 1.
        tasks1 = [
            TaskSpec(
                name=f"se{s}.step1",
                cluster=map1.cluster_of(s),
                duration=result.records[s].step1_time,
            )
            for s in range(dec.m)
        ]
        breakdown.step1 = ex.run_phase(tasks1).makespan

        # Data redistribution between mappings (section IV-C): migrated
        # subsystems ship their raw measurements to the new cluster.
        redis_msgs = []
        for s in range(dec.m):
            if map1.cluster_of(s) != map2.cluster_of(s):
                nbytes = result.records[s].n_buses * BYTES_PER_EXCHANGED_BUS * 4
                redis_msgs.append(
                    MessageSpec(map1.cluster_of(s), map2.cluster_of(s), nbytes)
                )
        breakdown.redistribution = ex.run_exchange(redis_msgs).makespan

        # Step-2 rounds under mapping 2: exchange then compute.
        for r in range(result.rounds):
            msgs = []
            for s in range(dec.m):
                rec = result.records[s]
                # Actual packed bytes this subsystem put on the wire in
                # round r (condensation-aware), split per neighbour.
                nbrs = dec.neighbors(s)
                per_neighbor = rec.bytes_sent_per_round[r] // max(1, len(nbrs))
                for nb in nbrs:
                    src = map2.cluster_of(s)
                    dst = map2.cluster_of(int(nb))
                    if src != dst:
                        msgs.append(MessageSpec(src, dst, per_neighbor))
            breakdown.exchange_per_round.append(ex.run_exchange(msgs).makespan)

            tasks2 = [
                TaskSpec(
                    name=f"se{s}.step2.r{r}",
                    cluster=map2.cluster_of(s),
                    duration=result.records[s].step2_times[r],
                )
                for s in range(dec.m)
            ]
            breakdown.step2_per_round.append(ex.run_phase(tasks2).makespan)
        return breakdown

    # ------------------------------------------------------------------
    def centralized_sim_time(self, wall_time: float, *, cluster: str | None = None) -> float:
        """Simulated time of the centralized alternative: the whole-system
        estimation on one cluster (no distribution, no exchange)."""
        arch = self.arch
        cname = cluster or arch.topology.clusters[0].name
        phase = arch.executor.run_phase(
            [TaskSpec(name="centralized", cluster=cname, duration=wall_time)]
        )
        return phase.makespan
