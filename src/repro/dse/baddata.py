"""Distributed bad-data detection.

One operational advantage of distributing the estimation is *locality*: a
gross error in one subsystem's telemetry fails that subsystem's chi-square
test without contaminating the others, and identification runs on the
small local problem instead of the interconnection-wide one.  The screen is
the DSE's own Step 1 (its estimators, executor and values-only frame path)
plus a chi-square test per subsystem; identification masks rows of the
suspect subsystem's Step-1 estimator, and the frame then runs without the
removed rows as zero weights (``dse.run(z=, weights=)``).  Nothing is
built per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..estimation.baddata import chi_square_test, identify_rows
from ..estimation.wls import EstimationError
from .stepper import SubsystemStepper

__all__ = ["SubsystemBadData", "DistributedBadDataReport", "distributed_bad_data"]


@dataclass
class SubsystemBadData:
    """Per-subsystem detection outcome."""

    s: int
    initially_passed: bool
    passes_chi_square: bool
    objective: float
    dof: int
    removed_local_rows: list[int] = field(default_factory=list)
    removed_global_rows: list[int] = field(default_factory=list)


@dataclass
class DistributedBadDataReport:
    """System-wide view of the per-subsystem detections."""

    subsystems: dict[int, SubsystemBadData]

    @property
    def suspect_subsystems(self) -> list[int]:
        """Subsystems whose initial chi-square test failed."""
        return sorted(
            s for s, r in self.subsystems.items() if not r.initially_passed
        )

    @property
    def clean_after_identification(self) -> bool:
        """True when every subsystem passes after removals."""
        return all(r.passes_chi_square for r in self.subsystems.values())

    @property
    def removed_global_rows(self) -> list[int]:
        out: list[int] = []
        for r in self.subsystems.values():
            out.extend(r.removed_global_rows)
        return sorted(out)


def distributed_bad_data(
    dse,
    z: np.ndarray | None = None,
    *,
    alpha: float = 0.01,
    identify: bool = True,
) -> DistributedBadDataReport:
    """Run chi-square detection (and optional LNR identification) on every
    subsystem's Step-1 problem of ``dse``, a
    :class:`~repro.dse.algorithm.DistributedStateEstimator`.

    ``z`` is a values-only frame over the estimator's measurement set
    (default: the set's own values).  ``removed_global_rows`` refer to rows
    of that set, so the caller runs the cleaned frame on the same
    estimator with those rows at weight 0: ``dse.run(z=z, weights=w)``,
    ``w`` being the set's ``weights`` with the removed rows zeroed.
    """
    z = dse._frame_z(z)
    stepper = SubsystemStepper(dse, range(dse.dec.m), z=z)
    stepper.step1()
    out: dict[int, SubsystemBadData] = {}
    for s, record in stepper.records.items():
        result = record.step1_result
        if result is None:      # degraded: there is no estimate to test
            raise EstimationError(record.failures[-1])
        passes = chi_square_test(result, alpha=alpha)
        rec = out[s] = SubsystemBadData(
            s=s,
            initially_passed=passes,
            passes_chi_square=passes,
            objective=result.objective,
            dof=result.dof,
        )
        if not passes and identify:
            rows, perm = dse._z_index[s][:2]
            rec.removed_local_rows, _, rec.passes_chi_square = identify_rows(
                dse._est1[s],
                z=None if z is None else dse._step1_z(s, z),
                alpha=alpha,
                result=result,      # the screen's: its first pass
            )
            # local row i is global row rows[perm][i] (the DSE's own
            # values-only permutation)
            rec.removed_global_rows = sorted(
                rows[perm][rec.removed_local_rows].tolist()
            )
    return DistributedBadDataReport(subsystems=out)
