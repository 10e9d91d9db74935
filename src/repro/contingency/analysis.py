"""Post-contingency power flow analysis and violation screening.

Each contingency is evaluated by re-solving the power flow with the branch
out and comparing post-contingency branch loadings against ratings.  The
bundled IEEE cases carry no thermal ratings, so ratings default to a margin
above the base-case flow (`rating_margin`), which is the standard trick for
screening studies on rating-free test systems.

``analyze_from_estimate`` ties the module to the paper's pipeline: the
*estimated* state (not raw telemetry) seeds the loading baseline, which is
exactly why state estimation must finish in real time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..estimation.results import EstimationResult
from ..grid.delta import NetworkDelta
from ..grid.network import Network
from ..grid.powerflow import (
    DcCompensationSolver,
    PowerFlowError,
    run_ac_power_flow,
    run_dc_power_flow,
)
from .screening import (
    Contingency,
    apply_outage,
    islanding_branches,
    outage_delta,
)

__all__ = ["Violation", "ContingencyResult", "ContingencyAnalyzer"]


@dataclass(frozen=True)
class Violation:
    """A post-contingency branch overload."""

    branch: int
    flow: float
    rating: float

    @property
    def loading(self) -> float:
        """Loading as a fraction of the rating (> 1 means overload)."""
        return abs(self.flow) / self.rating


@dataclass
class ContingencyResult:
    """Outcome of analysing one contingency."""

    contingency: Contingency
    converged: bool
    violations: list[Violation] = field(default_factory=list)
    max_loading: float = 0.0
    iterations: int = 0

    @property
    def secure(self) -> bool:
        """True when the outage causes no overloads and the PF converged."""
        return self.converged and not self.violations


class ContingencyAnalyzer:
    """N-1 analysis against ratings derived from a base operating point.

    Parameters
    ----------
    net:
        The monitored network.
    ratings:
        Per-branch MVA-class ratings in per-unit; derived from the base
        case when omitted.
    rating_margin:
        Ratings default to ``max(rating_floor, margin * |base flow|)``.
    method:
        ``"dc"`` (fast screening) or ``"ac"`` (full Newton re-solve).

    An outage that islands the network (:func:`islanding_branches`,
    decided once from the topology) comes back ``converged=False`` on
    every path, without a solve: neither the DC reduced system nor its
    compensation detects a split reliably in floating point.
    """

    def __init__(
        self,
        net: Network,
        *,
        ratings: np.ndarray | None = None,
        rating_margin: float = 1.3,
        rating_floor: float = 0.2,
        method: str = "dc",
    ):
        if method not in ("dc", "ac"):
            raise ValueError("method must be 'dc' or 'ac'")
        self.net = net
        self.method = method
        base = run_dc_power_flow(net) if method == "dc" else run_ac_power_flow(net)
        self.base = base
        if ratings is None:
            ratings = np.maximum(rating_floor, rating_margin * np.abs(base.Pf))
        self.ratings = np.asarray(ratings, dtype=float)
        if len(self.ratings) != net.n_branch:
            raise ValueError("ratings length mismatch")
        self._islanding = islanding_branches(net)

    # ------------------------------------------------------------------
    def _screen(
        self, contingency: Contingency, pf, live: np.ndarray
    ) -> ContingencyResult:
        """Screen one solved post-contingency flow state for overloads."""
        signed = pf.Pf[live]
        flows = np.abs(signed)
        rate = self.ratings[live]
        # Single fancy-index pass over the overloaded rows; ``tolist``
        # yields python scalars directly instead of per-element casts.
        over = np.flatnonzero(flows > rate)
        violations = [
            Violation(branch=b, flow=f, rating=r)
            for b, f, r in zip(
                live[over].tolist(), signed[over].tolist(), rate[over].tolist()
            )
        ]
        max_loading = float((flows / rate).max()) if len(live) else 0.0
        return ContingencyResult(
            contingency=contingency,
            converged=True,
            violations=violations,
            max_loading=max_loading,
            iterations=pf.iterations,
        )

    def analyze(self, contingency: Contingency) -> ContingencyResult:
        """Re-solve with the branch out and screen for overloads."""
        if contingency.branch in self._islanding:
            return ContingencyResult(contingency=contingency, converged=False)
        outaged = apply_outage(self.net, contingency)
        try:
            if self.method == "dc":
                pf = run_dc_power_flow(outaged)
            else:
                pf = run_ac_power_flow(outaged)
        except PowerFlowError:
            return ContingencyResult(contingency=contingency, converged=False)
        return self._screen(contingency, pf, outaged.live_branches())

    # ------------------------------------------------------------------
    def analyze_batch(
        self, contingencies: list[Contingency]
    ) -> list[ContingencyResult]:
        """Analyse a whole contingency list with one batched solve.

        With ``method="dc"`` the sweep runs through a cached
        :class:`~repro.grid.powerflow.DcCompensationSolver`: the base
        susceptance matrix is factored once (and reused across calls on
        this analyzer) and every outage is a rank-1 compensation against
        that factorization — one batched solve instead of N matrix
        rebuilds.  This is the one DC sweep
        (:func:`~repro.contingency.parallel.run_parallel` and
        :meth:`analyze_all` drain through it): it matches :meth:`analyze`
        per contingency to floating-point round-off, so a flow sitting
        *exactly* on its rating can flip in or out of the violation list
        (the screening comparison is strict).  Islanding outages, and any
        the compensation flags as singular, come back ``converged=False``.
        ``"ac"`` has no batched kernel and runs the per-contingency loop.
        """
        if self.method != "dc":
            return [self.analyze(c) for c in contingencies]
        solver = getattr(self, "_dc_solver", None)
        if solver is None:
            solver = self._dc_solver = DcCompensationSolver(self.net)
        keep = [
            i for i, c in enumerate(contingencies)
            if c.branch not in self._islanding
        ]
        deltas = [outage_delta(contingencies[i]) for i in keep]
        out: list[ContingencyResult | None] = [None] * len(contingencies)
        for i, d, pf in zip(keep, deltas, solver.solve(deltas)):
            if pf.converged:
                live = np.flatnonzero(d.branch_status_of(self.net) > 0)
                out[i] = self._screen(contingencies[i], pf, live)
        return [
            r if r is not None
            else ContingencyResult(contingency=c, converged=False)
            for r, c in zip(out, contingencies)
        ]

    def analyze_all(
        self, contingencies: list[Contingency], *, executor=None
    ) -> list[ContingencyResult]:
        """Analyse a contingency list through
        :func:`repro.contingency.parallel.run_parallel`: one
        :meth:`analyze_batch` solve for ``"dc"``; for ``"ac"`` an in-order
        loop, or one task per case when ``executor`` is (or names) a
        :class:`~repro.parallel.ProcessPoolBackend` — same results either
        way.
        """
        from .parallel import run_parallel

        return run_parallel(self, contingencies, executor=executor).results

    # ------------------------------------------------------------------
    @classmethod
    def from_estimate(
        cls,
        net: Network,
        estimate: EstimationResult,
        **kwargs,
    ) -> "ContingencyAnalyzer":
        """Build the analyzer around an *estimated* operating point.

        The estimated voltages seed the stored profile, so the base-case
        flows (and hence derived ratings) reflect what the estimator — not
        an oracle — believes the system is doing.  The seeded network is a
        copy-on-write fork of ``net`` (only the voltage-profile columns are
        new arrays).
        """
        seeded = net.fork(
            NetworkDelta.v0_seed(Vm=estimate.Vm, Va=estimate.Va, label="estimate")
        )
        return cls(seeded, **kwargs)
