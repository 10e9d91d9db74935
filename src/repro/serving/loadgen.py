"""Open-loop load generation against the serving tier.

Capacity is measured the way the serving literature measures it: an
**open-loop** arrival process (requests arrive on a schedule that does
not slow down when the system does — the "millions of users" shape)
offered at a controlled rate, with the client recording what actually
came back.  A closed loop would hide saturation: blocked callers stop
offering load exactly when the interesting regime starts.

``LoadGenerator`` drives any submit-compatible target — a
:class:`~repro.serving.service.ScenarioService` directly or a
:class:`~repro.serving.shard.ShardRouter` — with seeded Poisson arrivals
over a mixed workload (:class:`ScenarioMix`: values-only frames, what-if
scenario deltas, N-1 screenings), optionally under a PR-5
:class:`~repro.faults.plan.FaultPlan`.  Everything is deterministic per
seed: the arrival schedule, the request mix and (with a plan) the fault
sequence replay bit-for-bit.

The resulting :class:`LoadReport` is the row of a capacity curve:
offered rate, achieved scenarios/s, client-view p50/p99 latency and the
typed shed split — what ``benchmarks/bench_serving_capacity.py`` sweeps.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..middleware.errors import DeadlineExceeded
from .requests import (
    ContingencyRequest,
    EstimationRequest,
    ReplicaLost,
    ServiceOverloaded,
)

__all__ = ["ScenarioMix", "LoadReport", "LoadGenerator", "poisson_arrivals"]


def poisson_arrivals(
    rate: float, n: int, *, seed: int = 0
) -> np.ndarray:
    """Arrival offsets (seconds from start) for ``n`` events of a Poisson
    process at ``rate`` events/s — i.i.d. exponential gaps, seeded."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass(frozen=True)
class ScenarioMix:
    """A weighted workload mix over one monitored system.

    ``frames`` draw values-only estimation requests (fresh ``z`` =
    template values + seeded gaussian noise); ``scenarios`` draw one of
    the prepared deltas (what-if frames); ``contingencies`` draw one of
    the prepared N-1 cases.  Weights are relative; entries with no
    material (empty deltas/cases) are excluded automatically.
    """

    mset: object
    deltas: tuple = ()
    contingencies: tuple = ()
    frame_weight: float = 1.0
    scenario_weight: float = 0.0
    contingency_weight: float = 0.0
    noise: float = 0.002

    def _kinds(self) -> tuple[list[str], np.ndarray]:
        kinds, weights = [], []
        if self.frame_weight > 0:
            kinds.append("frame")
            weights.append(self.frame_weight)
        if self.scenario_weight > 0 and self.deltas:
            kinds.append("scenario")
            weights.append(self.scenario_weight)
        if self.contingency_weight > 0 and self.contingencies:
            kinds.append("contingency")
            weights.append(self.contingency_weight)
        if not kinds:
            raise ValueError("the mix has no drawable request kind")
        w = np.asarray(weights, dtype=float)
        return kinds, w / w.sum()

    def make(self, rng: np.random.Generator):
        """Draw one request (deterministic given the generator state)."""
        kinds, probs = self._kinds()
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "contingency":
            idx = int(rng.integers(len(self.contingencies)))
            return ContingencyRequest(self.contingencies[idx])
        if kind == "scenario":
            idx = int(rng.integers(len(self.deltas)))
            return EstimationRequest(delta=self.deltas[idx])
        z = self.mset.z + self.noise * self.mset.sigma * rng.standard_normal(
            len(self.mset)
        )
        return EstimationRequest(z=z)


@dataclass
class LoadReport:
    """One point of a capacity curve (client-side view)."""

    offered_rate: float
    n_offered: int
    n_completed: int = 0
    n_shed_queue_full: int = 0
    n_shed_deadline: int = 0
    n_shed_lost: int = 0
    n_failed: int = 0
    n_hung: int = 0
    duration_s: float = 0.0
    latencies_s: list = field(default_factory=list, repr=False)
    faults_fired: dict | None = None

    @property
    def achieved_rate(self) -> float:
        """Completed scenarios per second of offered-load wall time."""
        return self.n_completed / self.duration_s if self.duration_s else 0.0

    @property
    def shed_rate(self) -> float:
        shed = (self.n_shed_queue_full + self.n_shed_deadline
                + self.n_shed_lost)
        return shed / self.n_offered if self.n_offered else 0.0

    def latency_percentile(self, p: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(self.latencies_s, p))

    def to_dict(self) -> dict:
        return {
            "offered_rate": self.offered_rate,
            "n_offered": self.n_offered,
            "n_completed": self.n_completed,
            "n_shed_queue_full": self.n_shed_queue_full,
            "n_shed_deadline": self.n_shed_deadline,
            "n_shed_lost": self.n_shed_lost,
            "n_failed": self.n_failed,
            "n_hung": self.n_hung,
            "duration_s": self.duration_s,
            "achieved_rate": self.achieved_rate,
            "shed_rate": self.shed_rate,
            "latency_p50_s": self.latency_percentile(50),
            "latency_p99_s": self.latency_percentile(99),
        }


class LoadGenerator:
    """Offers seeded open-loop load to a submit-compatible target.

    ``target`` needs only ``submit(request) -> Future``; both
    :class:`~repro.serving.service.ScenarioService` and
    :class:`~repro.serving.shard.ShardRouter` qualify.
    """

    def __init__(self, target, mix: ScenarioMix, *, seed: int = 0):
        self.target = target
        self.mix = mix
        self.seed = int(seed)

    def run(
        self,
        *,
        rate: float,
        n_requests: int | None = None,
        duration: float | None = None,
        fault_plan=None,
        wait_timeout: float = 60.0,
    ) -> LoadReport:
        """Offer one load point and wait for every outcome.

        Exactly one of ``n_requests`` / ``duration`` sizes the run
        (``duration`` seconds at ``rate`` ≈ ``rate * duration`` events).
        With ``fault_plan`` set, the run executes under an installed
        :class:`~repro.faults.injector.FaultInjector` and the report
        carries the fired-fault summary (deterministic per plan seed).
        Every offered request must resolve within ``wait_timeout`` of the
        last arrival or it is counted ``n_hung`` — the invariant chaos
        tests pin to zero.
        """
        if (n_requests is None) == (duration is None):
            raise ValueError("size the run with n_requests XOR duration")
        if n_requests is None:
            n_requests = max(1, int(round(rate * duration)))
        arrivals = poisson_arrivals(rate, n_requests, seed=self.seed)
        rng = np.random.default_rng(self.seed + 1)
        requests = [self.mix.make(rng) for _ in range(n_requests)]

        report = LoadReport(offered_rate=float(rate), n_offered=n_requests)
        done_at: dict[int, float] = {}
        sent_at: dict[int, float] = {}

        def _offer():
            futures = []
            t0 = time.perf_counter()
            for i, (offset, req) in enumerate(zip(arrivals, requests)):
                delay = t0 + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at[i] = time.perf_counter()
                fut = self.target.submit(req)
                fut.add_done_callback(
                    lambda f, i=i: done_at.setdefault(i, time.perf_counter())
                )
                futures.append(fut)
            return t0, futures

        if fault_plan is not None:
            with faults.injection(fault_plan) as inj:
                t0, futures = _offer()
                self._await(futures, report, wait_timeout)
                report.faults_fired = {
                    repr(k): v for k, v in inj.fired_summary().items()
                }
        else:
            t0, futures = _offer()
            self._await(futures, report, wait_timeout)

        for i, fut in enumerate(futures):
            if fut.done() and not fut.exception() and i in done_at:
                report.latencies_s.append(done_at[i] - sent_at[i])
        end = max(done_at.values(), default=time.perf_counter())
        report.duration_s = max(end - t0, arrivals[-1])
        return report

    @staticmethod
    def _await(futures, report: LoadReport, wait_timeout: float) -> None:
        deadline = time.perf_counter() + wait_timeout
        for fut in futures:
            remaining = deadline - time.perf_counter()
            try:
                fut.result(timeout=max(0.0, remaining))
            except ServiceOverloaded:
                report.n_shed_queue_full += 1
            except ReplicaLost:
                report.n_shed_lost += 1
            except DeadlineExceeded:
                report.n_shed_deadline += 1
            except (TimeoutError, FuturesTimeout):
                report.n_hung += 1
            except BaseException:
                report.n_failed += 1
            else:
                report.n_completed += 1
