"""Schur-complement boundary condensation for DSE Step 2.

The reference Step 2 re-evaluates each subsystem's *full* extended network
every round, so the per-round solve scales with subsystem size even though
only the boundary couples neighbours.  Condensation freezes the extended
gain matrix ``G = Hᵀ W H`` at a linearization point and eliminates the
interior states onto the boundary once per frame
(:class:`~repro.estimation.solvers.SchurGainSolver`):

.. code-block:: text

    S = G_BB − G_BI G_II⁻¹ G_IB          once per frame
    dx_B = S⁻¹ (rhs_B − G_IBᵀ G_II⁻¹ rhs_I)   per iteration (boundary-sized)
    dx_I = G_II⁻¹ rhs_I − W dx_B              local back-substitution

Each iteration still evaluates the *exact* residual and Jacobian at the
current state — ``rhs = H(x)ᵀ W (z − h(x))`` — so the fixed point of the
iteration is the exact WLS stationary point (``H(x*)ᵀ W r(x*) = 0``);
freezing only the gain operator turns Gauss-Newton into a quasi-Newton
scheme with linear convergence.  How fast it contracts depends on how far
the frozen point is from where the iteration runs, so the operator is
frozen *there*: round 0 of a frame is the wrapped estimator's exact
Gauss-Newton solve, and every later round iterates with the gain
condensed at that round-0 solution (3–5e-3 pu closer than the Step-1
publication, which on stiff areas is the difference between a contraction
of 0.7 and one of 0.06–0.12 per iteration).  The iteration runs to a
tighter internal tolerance to keep final-state parity with the reference
path at ≤1e-8, and falls back to the exact solve on the rare round where
the frozen operator does not contract fast enough.

The iteration itself is not written here: it is the one masked
Gauss-Newton loop (:meth:`WlsEstimator.estimate_blocks`) given each
block's frozen operator as data.  :func:`frozen_round` runs it for any
number of subsystems in lock step — over the union of their estimators on
a serial host, over one estimator everywhere else — and a block's bits do
not depend on how many ride along.

The linearization point must be *history-free* for the repo's
bit-identical-across-executors property to survive condensation: a process
worker may first touch a subsystem's cache on any round, so an operator
frozen "at the first state seen" would differ between serial and pooled
runs.  The round-0 solution is a function of the frame's inputs alone —
the same arrays on every executor and host — and the stepper passes it as
an explicit ``lin_point`` with every later call.  :func:`condense` refactors
a subsystem only when the point, or the frame's row weights, actually
change (exact array match), so all frozen rounds of a frame share one
factorization, repeated identical frames reuse it, and tracking frames
refactor once per frame — every subsystem that does, from one gain pass
over the stack.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..estimation.results import EstimationResult
from ..estimation.solvers import GainSolveError, SchurGainSolver
from ..estimation.wls import EstimationError, WlsEstimator
from .decomposition import Decomposition

__all__ = ["CondensedStep2", "condense", "frozen_round", "neighbor_publication_sets"]

#: A frozen-gain block stops on ``step < tol * FROZEN_TOL_SCALE``, tighter
#: than the reference's ``step < tol``, so its linear tail still lands
#: within reference parity.
FROZEN_TOL_SCALE = 0.1
#: Iteration cap of a frozen-gain round (above Gauss-Newton's, each
#: iteration being much cheaper); a block that has not converged inside it
#: falls back to the wrapped exact estimator.
FROZEN_MAX_ITER = 150


def neighbor_publication_sets(dec: Decomposition) -> dict[int, dict[int, np.ndarray]]:
    """Per-neighbour condensed publication sets.

    ``out[s][n]`` holds the sorted global buses of subsystem ``s`` that are
    endpoints of ``s``–``n`` tie lines — exactly the subset of ``s``'s
    boundary that appears in ``n``'s extended network, i.e. everything
    ``n``'s Step-2 solve can consume from ``s``.  Sensitive-internal
    publications only refresh ``s``'s *own* entries in the global state
    (an update-scope concern) and are never read by a neighbour's solve,
    so under condensation they stay off the wire.
    """
    net = dec.net
    out: dict[int, dict[int, np.ndarray]] = {}
    for s in range(dec.m):
        ties = dec.incident_tie_lines(s)
        f, t = net.f[ties], net.t[ties]
        f_ours = dec.part[f] == s
        ours = np.where(f_ours, f, t)
        theirs = np.where(f_ours, t, f)
        out[s] = {
            int(nb): np.unique(ours[dec.part[theirs] == nb])
            for nb in dec.neighbors(s)
        }
    return out


class CondensedStep2:
    """Condensed drop-in for the cached Step-2 :class:`WlsEstimator`.

    Wraps the warm extended-network estimator of one subsystem and exposes
    the same ``estimate(x0=, tol=, z=)`` call surface, so the in-process
    algorithm, the process-pool task functions and the live runtime use it
    unchanged through ``_step2_cache``.  It owns the subsystem's Schur
    operator, the linearization point it was factored at and the fallback
    count; the iteration is :func:`frozen_round`.

    Parameters
    ----------
    est:
        The subsystem's cached extended-network estimator (owns the
        Jacobian pattern and the normal-equation kernel the condensed
        operator is factored through, and solves round 0 and fallbacks).
    boundary_buses_local:
        Local bus indices of the coupling set — the subsystem's own
        boundary buses plus the external boundary buses; both of each
        bus's states (Va, Vm) become boundary states of the Schur split.

    ``max_iter`` (:data:`FROZEN_MAX_ITER`) is this subsystem's frozen-round
    cap.
    """

    def __init__(
        self,
        est: WlsEstimator,
        boundary_buses_local: np.ndarray,
    ):
        self.est = est
        n = est.net.n_bus
        pos = -np.ones(2 * n, dtype=np.int64)
        pos[est._keep] = np.arange(est.n_states)
        b = np.unique(np.asarray(boundary_buses_local, dtype=np.int64))
        cand = np.concatenate([b, n + b])  # Va states, then Vm states
        bpos = pos[cand]
        self.boundary_states = np.sort(bpos[bpos >= 0])
        self.schur = SchurGainSolver(self.boundary_states, est.n_states)
        self.max_iter = FROZEN_MAX_ITER
        self.factor_time = 0.0
        self.factor_count = 0
        self.fallbacks = 0
        self._lin_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- sizes ----------------------------------------------------------
    @property
    def n_boundary_states(self) -> int:
        return self.schur.n_boundary

    @property
    def n_interior_states(self) -> int:
        return self.schur.n_interior

    # ------------------------------------------------------------------
    def lin_point_cached(self, lin_point: tuple, weights=None) -> bool:
        """True when ``lin_point`` and ``weights`` exactly match the
        operator already factored, i.e. :meth:`estimate` would reuse the
        factorization.

        The recovery plane leans on this: a checkpointed linearisation
        point round-trips the ``FLAG_CHECKPOINT`` wire form bit-exactly
        (float64 both sides), so a failover successor restoring a donor's
        checkpoint hits the cache instead of re-condensing the subsystem.
        """
        cached = self._lin_cache
        return cached is not None and all(
            a is b or np.array_equal(a, b)     # None matches None only
            for a, b in zip(cached, (*lin_point, weights))
        )

    def _factor(self, gain: np.ndarray, lin_point: tuple, weights) -> None:
        """Condense this subsystem's gain values ``gain`` (on its
        estimator's kernel pattern), assembled at ``lin_point`` with row
        weights ``weights`` (:func:`condense`), and key the operator by
        those.  A gain that does not condense raises
        :class:`GainSolveError` and leaves no key, so the next round tries
        again."""
        self._lin_cache = None
        self.schur.factor_gain(self.est._kernel(), gain)
        self.factor_count += 1
        if obs.enabled():
            obs.metrics().counter("dse.condensation.factorizations_total").inc()
        self._lin_cache = tuple(
            None if a is None else np.array(a, dtype=float, copy=True)
            for a in (*lin_point, weights)
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        *,
        x0: tuple[np.ndarray, np.ndarray] | None = None,
        tol: float = 1e-8,
        max_iter: int | None = None,
        reference_angle: float = 0.0,
        z: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        lin_point: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> EstimationResult:
        """One Step-2 re-evaluation of the subsystem.

        Mirrors :meth:`WlsEstimator.estimate` (same signature, same
        :class:`EstimationResult`) plus ``lin_point``, the linearization
        point of the frozen-gain iteration (refactors only when it or
        ``weights`` changes; ``max_iter`` overrides that iteration's cap).
        Without one — round 0 of a frame, before there is a solution to
        freeze at — the call is the wrapped estimator's exact Gauss-Newton
        solve.  Raises :class:`EstimationError` on a failed solve.
        """
        if lin_point is None:
            return self.est.estimate(
                x0=x0, tol=tol, reference_angle=reference_angle, z=z, weights=weights
            )
        (res,) = frozen_round(
            self.est, [self], x0=[x0], z=[z], weights=[weights],
            lin_points=[lin_point], tol=tol, max_iter=max_iter,
            reference_angle=reference_angle,
        )
        if isinstance(res, EstimationError):
            raise res
        return res


def condense(
    stack: WlsEstimator, conds: list[CondensedStep2], lin_points: list, weights: list
) -> float:
    """Refactor every ``conds[b]`` whose ``(lin_points[b], weights[b])``
    moved, from one gain pass over ``stack`` (:meth:`WlsEstimator.gain_at`
    restricted to those blocks), each condensing its own segment of the
    gain values — bit for bit the gain its own estimator assembles.
    Returns the seconds the whole refactorisation took: each refactored
    subsystem's ``factor_time`` gains its own Schur factorisation and a
    share of the gain pass in proportion to its gain entries (apportioned,
    not timed alone), so the shares sum to this wall.  A subsystem whose
    gain does not condense keeps no operator: its block fails in the loop.
    """
    stale = [
        b for b, (cond, lin, w) in enumerate(zip(conds, lin_points, weights))
        if not cond.lin_point_cached(lin, w)
    ]
    if not stale:
        return 0.0
    t0 = time.perf_counter()
    n = stack.net.n_bus
    Vm, Va, w = np.ones(n), np.zeros(n), None
    for b in stale:
        blk = stack._blocks[b]
        Vm[blk.buses], Va[blk.buses] = lin_points[b]
        if weights[b] is not None:
            if w is None:
                w = stack.mset.weights.copy()
            w[blk.rows] = weights[b]
    kernel, _, gain = stack.gain_at(Vm, Va, w, parts=stale)
    segments = [slice(*kernel.blocks[b][2]) for b in stale]
    sizes = np.array([g.stop - g.start for g in segments], dtype=float)
    t = time.perf_counter()
    shares = (t - t0) * sizes / sizes.sum()
    for b, g, share in zip(stale, segments, shares):
        try:
            conds[b]._factor(gain[g], lin_points[b], weights[b])
        except GainSolveError:
            pass    # the unfactored operator fails its own block in the loop
        t, t_prev = time.perf_counter(), t
        conds[b].factor_time += float(share) + (t - t_prev)
    return t - t0


def frozen_round(
    stack: WlsEstimator,
    conds: list[CondensedStep2],
    *,
    x0: list,
    z: list,
    weights: list,
    lin_points: list,
    tol: float = 1e-8,
    max_iter: int | None = None,
    reference_angle: float = 0.0,
) -> list[EstimationResult | EstimationError]:
    """One frozen-gain re-evaluation of every ``conds[b]``, in lock step.

    ``stack`` holds the wrapped estimators as its blocks — their
    :meth:`WlsEstimator.stacked` union, or for one subsystem its estimator
    itself — and runs them through the one masked loop
    (:meth:`WlsEstimator.estimate_blocks`) with each block's condensed
    operator, frozen at ``lin_points[b]`` with row weights ``weights[b]``
    (``None``: the set's own; refactored by :func:`condense` where that
    key moved), in place of the gain: every iteration evaluates the exact
    right-hand side of the still-running blocks once and asks each of
    their own operators for its step, so a block's iterates are the same
    bits however many blocks ride along.  A block
    stops on ``step < tol * FROZEN_TOL_SCALE``.  One that has not
    converged inside its own ``max_iter``, or trips the divergence guard,
    is re-solved alone by its exact estimator (``fallbacks``) — a
    deterministic function of the same ``(x0, z, weights, tol)``, so
    parity and cross-executor determinism survive the fallback.  One
    outcome per block, a failed block's :class:`EstimationError` in its
    place.
    """
    condense(stack, conds, lin_points, weights)
    limits = [c.max_iter if max_iter is None else max_iter for c in conds]
    results = stack.estimate_blocks(
        x0=x0, z=z, weights=weights, tol=tol * FROZEN_TOL_SCALE,
        max_iter=max(limits), reference_angle=reference_angle,
        operators=[c.schur for c in conds],
    )
    for b, (cond, res) in enumerate(zip(conds, results)):
        if isinstance(res, EstimationError) or (
            res.converged and res.iterations <= limits[b]
        ):
            continue
        # Stiff frame: the frozen operator is not contracting fast enough.
        cond.fallbacks += 1
        if obs.enabled():
            obs.metrics().counter("dse.condensation.fallbacks_total").inc()
        (results[b],) = cond.est.estimate_blocks(
            x0=[x0[b]], z=[z[b]], weights=[weights[b]], tol=tol,
            reference_angle=reference_angle,
        )
    return results
