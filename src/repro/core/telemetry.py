"""Telemetry records for architecture sessions.

:class:`FrameReport` / :class:`PhaseBreakdown` carry the per-frame numbers
and serialize to plain dicts (:meth:`FrameReport.to_dict`), the schema the
JSONL exporter in :mod:`repro.obs.export` writes.  Timing itself is
:func:`repro.obs.span`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseBreakdown", "FrameReport"]


@dataclass
class PhaseBreakdown:
    """Simulated-testbed timing of one DSE execution."""

    step1: float = 0.0
    redistribution: float = 0.0
    exchange_per_round: list[float] = field(default_factory=list)
    step2_per_round: list[float] = field(default_factory=list)

    @property
    def exchange(self) -> float:
        return sum(self.exchange_per_round)

    @property
    def step2(self) -> float:
        return sum(self.step2_per_round)

    @property
    def total(self) -> float:
        return self.step1 + self.redistribution + self.exchange + self.step2

    def to_dict(self) -> dict:
        """JSON-ready dict (derived totals included for readers that do not
        want to recompute them; :meth:`from_dict` ignores them)."""
        return {
            "step1": float(self.step1),
            "redistribution": float(self.redistribution),
            "exchange_per_round": [float(v) for v in self.exchange_per_round],
            "step2_per_round": [float(v) for v in self.step2_per_round],
            "exchange": float(self.exchange),
            "step2": float(self.step2),
            "total": float(self.total),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseBreakdown":
        return cls(
            step1=float(d.get("step1", 0.0)),
            redistribution=float(d.get("redistribution", 0.0)),
            exchange_per_round=[float(v) for v in d.get("exchange_per_round", [])],
            step2_per_round=[float(v) for v in d.get("step2_per_round", [])],
        )


@dataclass
class FrameReport:
    """Everything recorded about one processed time frame."""

    t: float
    noise_level: float
    expected_iterations: float
    mapping_step1: dict[str, list[int]]
    imbalance_step1: float
    mapping_step2: dict[str, list[int]]
    imbalance_step2: float
    edge_cut_step2: int
    migrated_weight: int
    rounds: int
    bytes_exchanged: int
    timings: PhaseBreakdown
    wall_time: float
    vm_rmse_vs_truth: float | None = None
    va_rmse_vs_truth: float | None = None
    centralized_sim_time: float | None = None
    bad_data: object | None = None  # DistributedBadDataReport when enabled
    #: subsystems whose solve failed this frame and fell back to their
    #: prior state (``degrade_on_failure``); empty on a clean frame
    degraded_subsystems: list = field(default_factory=list)
    #: subsystems that were degraded last frame and completed cleanly this
    #: frame (the fault cleared)
    recovered_subsystems: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready dict; ``bad_data`` is flattened to its summary
        fields (the full per-subsystem report does not round-trip)."""
        bad = self.bad_data
        if bad is not None and not isinstance(bad, dict):
            bad = {
                "suspect_subsystems": [int(s) for s in bad.suspect_subsystems],
                "removed_global_rows": [
                    int(r) for r in bad.removed_global_rows
                ],
                "clean_after_identification": bool(
                    bad.clean_after_identification
                ),
            }
        return {
            "t": float(self.t),
            "noise_level": float(self.noise_level),
            "expected_iterations": float(self.expected_iterations),
            "mapping_step1": {
                k: [int(s) for s in v] for k, v in self.mapping_step1.items()
            },
            "imbalance_step1": float(self.imbalance_step1),
            "mapping_step2": {
                k: [int(s) for s in v] for k, v in self.mapping_step2.items()
            },
            "imbalance_step2": float(self.imbalance_step2),
            "edge_cut_step2": int(self.edge_cut_step2),
            "migrated_weight": float(self.migrated_weight),
            "rounds": int(self.rounds),
            "bytes_exchanged": int(self.bytes_exchanged),
            "timings": self.timings.to_dict(),
            "wall_time": float(self.wall_time),
            "vm_rmse_vs_truth": self.vm_rmse_vs_truth,
            "va_rmse_vs_truth": self.va_rmse_vs_truth,
            "centralized_sim_time": self.centralized_sim_time,
            "bad_data": bad,
            "degraded_subsystems": [int(s) for s in self.degraded_subsystems],
            "recovered_subsystems": [
                int(s) for s in self.recovered_subsystems
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrameReport":
        return cls(
            t=float(d["t"]),
            noise_level=float(d["noise_level"]),
            expected_iterations=float(d["expected_iterations"]),
            mapping_step1={k: list(v) for k, v in d["mapping_step1"].items()},
            imbalance_step1=float(d["imbalance_step1"]),
            mapping_step2={k: list(v) for k, v in d["mapping_step2"].items()},
            imbalance_step2=float(d["imbalance_step2"]),
            edge_cut_step2=int(d["edge_cut_step2"]),
            migrated_weight=d["migrated_weight"],
            rounds=int(d["rounds"]),
            bytes_exchanged=int(d["bytes_exchanged"]),
            timings=PhaseBreakdown.from_dict(d.get("timings", {})),
            wall_time=float(d["wall_time"]),
            vm_rmse_vs_truth=d.get("vm_rmse_vs_truth"),
            va_rmse_vs_truth=d.get("va_rmse_vs_truth"),
            centralized_sim_time=d.get("centralized_sim_time"),
            bad_data=d.get("bad_data"),
            degraded_subsystems=[
                int(s) for s in d.get("degraded_subsystems", [])
            ],
            recovered_subsystems=[
                int(s) for s in d.get("recovered_subsystems", [])
            ],
        )
