"""Request / result / statistics containers for the scenario service.

A *scenario* is one unit of serving work against the monitored system:

- :class:`EstimationRequest` — estimate the state, optionally from fresh
  measured values (``z``, canonical order of the service's template
  measurement set) and/or on a what-if network (``delta``);
- :class:`ContingencyRequest` — screen a single branch outage against the
  service's analyzer.

Results stream back as :class:`ScenarioResult` records carrying the solved
value plus serving metadata (queue-to-resolution latency, the size of the
batch the request was coalesced into).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..contingency.screening import Contingency
from ..grid.delta import NetworkDelta
from ..obs.metrics import Histogram

__all__ = [
    "EstimationRequest",
    "ContingencyRequest",
    "ScenarioRequest",
    "ScenarioResult",
    "ServiceStats",
    "ServiceOverloaded",
    "ReplicaLost",
]


class ServiceOverloaded(RuntimeError):
    """The service shed the request at admission: its queue is at
    ``max_queue`` and accepting more would only grow latency unboundedly."""


class ReplicaLost(RuntimeError):
    """The replica serving the request died (aborted service, crashed
    worker pool) before the request resolved.  The shard router treats
    this as an infrastructure failure and re-hashes the request to the
    next replica on the ring; callers only ever see it when no replica
    is left to inherit the key."""


@dataclass(frozen=True)
class EstimationRequest:
    """One estimation frame.

    ``z`` optionally carries fresh measured values over the service's
    template placement (values-only frame — the warm cached structures are
    reused); ``None`` re-estimates the template snapshot.

    ``delta`` optionally makes the frame a *what-if scenario*: a
    copy-on-write :class:`~repro.grid.delta.NetworkDelta` against the
    service's base network (branch flips, injection overrides, warm
    starts).  Every frame, what-if or not, is one replica block of the
    service's batched estimator; ``tol`` is its convergence tolerance.
    """

    z: np.ndarray | None = None
    tol: float = 1e-8
    delta: NetworkDelta | None = None


@dataclass(frozen=True)
class ContingencyRequest:
    """One N-1 branch-outage screening case."""

    contingency: Contingency


#: Anything the service accepts through ``submit``.
ScenarioRequest = EstimationRequest | ContingencyRequest


@dataclass
class ScenarioResult:
    """A served scenario: the solved value plus serving metadata."""

    request: "ScenarioRequest"
    value: object
    latency: float
    batch_size: int
    #: name of the replica that served the request (set by ``ShardRouter``;
    #: ``None`` when the request went to a service directly)
    shard: str | None = None


@dataclass
class ServiceStats:
    """Aggregate serving statistics (updated as batches resolve).

    Internally thread-safe: results resolve on the dispatcher thread while
    callers read from theirs, so every mutation goes through
    :meth:`record_request` / :meth:`record_batch` under the stats' own
    lock, and the derived readers snapshot under it.

    Latency is tracked twice on purpose: the exact sample list feeds
    :meth:`latency_percentile` (small closed workloads, tests), and a
    streaming-quantile :class:`~repro.obs.metrics.Histogram` — the same
    geometric-bucket structure ``obsreport`` renders — feeds :attr:`p50`
    / :attr:`p99`, so a capacity run of millions of requests reads its
    quantiles from the one bounded source of truth."""

    n_requests: int = 0
    n_batches: int = 0
    #: requests shed before execution (queue overload or deadline expiry)
    n_shed: int = 0
    #: shed counts split by cause (``queue_full`` / ``deadline`` / ...)
    shed_causes: dict = field(default_factory=dict)
    batch_sizes: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: streaming request-latency quantiles (seconds); bounded memory
    latency_hist: Histogram = field(
        default_factory=lambda: Histogram("serving.latency.seconds"),
        repr=False, compare=False,
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_request(self, latency: float) -> None:
        with self._lock:
            self.n_requests += 1
            self.latencies.append(float(latency))
        self.latency_hist.observe(latency)  # own lock; keep them disjoint

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.n_batches += 1
            self.batch_sizes.append(int(size))

    def record_shed(self, cause: str = "other") -> None:
        with self._lock:
            self.n_shed += 1
            self.shed_causes[cause] = self.shed_causes.get(cause, 0) + 1

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            sizes = list(self.batch_sizes)
        return float(np.mean(sizes)) if sizes else 0.0

    def latency_percentile(self, p: float) -> float:
        """Exact latency percentile in seconds (``p`` in [0, 100]) over
        the retained sample list."""
        with self._lock:
            lat = list(self.latencies)
        if not lat:
            return 0.0
        return float(np.percentile(lat, p))

    @property
    def p50(self) -> float:
        """Streaming p50 request latency in seconds."""
        return self.latency_hist.quantile(0.50)

    @property
    def p99(self) -> float:
        """Streaming p99 request latency in seconds."""
        return self.latency_hist.quantile(0.99)

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the shape the capacity bench records)."""
        with self._lock:
            n_requests = self.n_requests
            n_batches = self.n_batches
            n_shed = self.n_shed
            shed_causes = dict(self.shed_causes)
        return {
            "n_requests": n_requests,
            "n_batches": n_batches,
            "n_shed": n_shed,
            "shed_causes": shed_causes,
            "mean_batch_size": self.mean_batch_size,
            "latency_p50_s": self.p50,
            "latency_p99_s": self.p99,
        }
