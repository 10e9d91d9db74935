"""Task executor for the simulated clusters.

:class:`SimExecutor` replays a computation/communication plan on a
:class:`~repro.cluster.topology.ClusterTopology` in virtual time — compute
phases schedule tasks onto cluster cores (LPT greedy), exchange phases move
messages over the links (optionally through the middleware relay).  Real
callables run on :mod:`repro.parallel`'s backends instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costmodel import MiddlewareCostModel
from .topology import ClusterTopology

__all__ = [
    "TaskSpec",
    "MessageSpec",
    "PhaseTiming",
    "ExchangeTiming",
    "SimExecutor",
]


@dataclass(frozen=True)
class TaskSpec:
    """A compute task pinned to a cluster."""

    name: str
    cluster: str
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class MessageSpec:
    """A message between clusters."""

    src: str
    dst: str
    nbytes: float

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass
class PhaseTiming:
    """Timing of one compute phase."""

    makespan: float
    per_cluster: dict[str, float]
    task_finish: dict[str, float] = field(default_factory=dict)


@dataclass
class ExchangeTiming:
    """Timing of one exchange phase."""

    makespan: float
    per_pair: dict[tuple[str, str], float]
    total_bytes: float


class SimExecutor:
    """Deterministic analytic executor over a cluster topology."""

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        middleware: MiddlewareCostModel | None = None,
    ):
        self.topology = topology
        self.middleware = middleware or MiddlewareCostModel()

    # ------------------------------------------------------------------
    def run_phase(self, tasks: list[TaskSpec]) -> PhaseTiming:
        """Schedule tasks onto cluster cores (longest-processing-time greedy).

        Tasks on the same cluster share its cores; different clusters run
        fully in parallel.  Returns per-cluster makespans and per-task
        finish times.
        """
        by_cluster: dict[str, list[TaskSpec]] = {}
        for t in tasks:
            self.topology.cluster(t.cluster)  # validate name
            by_cluster.setdefault(t.cluster, []).append(t)

        per_cluster: dict[str, float] = {}
        finish: dict[str, float] = {}
        for cname, ts in by_cluster.items():
            cores = self.topology.cluster(cname).total_cores
            loads = [0.0] * min(cores, max(len(ts), 1))
            for t in sorted(ts, key=lambda t: -t.duration):
                i = loads.index(min(loads))
                loads[i] += t.duration
                finish[t.name] = loads[i]
            per_cluster[cname] = max(loads) if loads else 0.0
        makespan = max(per_cluster.values(), default=0.0)
        return PhaseTiming(makespan=makespan, per_cluster=per_cluster,
                           task_finish=finish)

    # ------------------------------------------------------------------
    def run_exchange(
        self, messages: list[MessageSpec], *, use_middleware: bool = True
    ) -> ExchangeTiming:
        """Move messages between clusters.

        Messages sharing an (unordered) cluster pair serialise on that link;
        distinct pairs proceed in parallel.  ``use_middleware`` charges the
        relay cost on top of the wire time (the architecture's data path).
        """
        per_pair: dict[tuple[str, str], float] = {}
        total = 0.0
        for m in messages:
            link = self.topology.link(m.src, m.dst)
            if use_middleware:
                dt = self.middleware.relayed_time(m.nbytes, link)
            else:
                dt = self.middleware.direct_time(m.nbytes, link)
            key = (m.src, m.dst) if m.src <= m.dst else (m.dst, m.src)
            per_pair[key] = per_pair.get(key, 0.0) + dt
            total += m.nbytes
        makespan = max(per_pair.values(), default=0.0)
        return ExchangeTiming(makespan=makespan, per_pair=per_pair,
                              total_bytes=total)
