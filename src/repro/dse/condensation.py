"""Boundary condensation of DSE Step 2: a compact boundary wire form and a
frozen-gain iteration on a held factor.

The reference Step 2 re-evaluates each subsystem's *full* extended network
every round with exact Gauss-Newton — each round starting from the gain
factor the one before last took (:meth:`WlsEstimator.estimate_blocks`'
``carried``), and refactoring
when its steps stop contracting — and broadcasts its whole exchange set to
every neighbour.  Condensation changes both halves.  On the wire, a
subsystem sends each neighbour only the tie-endpoint buses that
neighbour's solve reads (:func:`neighbor_publication_sets`).  In the
solve, the gain is frozen at a linearization point, factored once per
frame (the same fixed-pattern Cholesky the Gauss-Newton loop uses) and
held:

.. code-block:: text

    G(x_lin) = L Lᵀ                          once per frame
    dx = L⁻ᵀ L⁻¹ H(x)ᵀ W (z − h(x))          per iteration (held back-substitution)

The held factor is the loop's own frozen-tail operator
(:class:`~repro.estimation.solvers._HeldFactor`).  A Schur split of the
gain onto the boundary would pay only if the interior right-hand side
stayed fixed; here it changes every iteration, so the split would cost an
interior solve, a boundary solve and two dense products per step.

Each iteration evaluates the exact residual and gradient (reverse mode
through h); the Jacobian is filled only where a gain is factored.  The
gradient ``rhs = H(x)ᵀ W (z − h(x))`` at the current state
(:meth:`~repro.measurements.functions.MeasurementModel.gradient`) is all
a held factor needs, so the fixed point of the iteration is the exact
WLS stationary point (``H(x*)ᵀ W r(x*) = 0``);
freezing only the gain operator turns Gauss-Newton into a quasi-Newton
scheme with linear convergence.  How fast it contracts depends on how far
the frozen point is from where the iteration runs, so the operator is
frozen *there*: round 0 of a frame is the wrapped estimator's exact
Gauss-Newton solve, and every later round iterates
with the gain frozen where that loop last factored it — in its linear
tail, within a step below √tol of the round-0 solution, and so 3–5e-3 pu
closer than the Step-1 publication, which on stiff areas is the
difference between a contraction of 0.7 and one of 0.06–0.12 per
iteration.  The iteration runs to a
tighter internal tolerance to keep final-state parity with the reference
path at ≤1e-8, and falls back to the exact solve on the rare round where
the frozen operator does not contract fast enough.

The iteration itself is not written here: it is the one masked
Gauss-Newton loop (:meth:`WlsEstimator.estimate_blocks`) given each
block's frozen operator as data.  :func:`frozen_round` runs it for any
number of subsystems in lock step — over the union of their estimators on
a serial host, over one estimator everywhere else — and a block's bits do
not depend on how many ride along.

The linearization point must be *history-free* for every hosting of a
frame to agree bit for bit: a live site promoted by failover may first
touch a subsystem's cache on any round, so an operator frozen "at the
first state seen" would differ between the donor and its successor.  The
state round 0 last factored at (the result's ``factored_at``) is a
function of the frame's inputs alone — the exact loop is deterministic,
the same arrays on every host — and the stepper passes it as an explicit
point with every later call.  The factor itself is a lookup in the
subsystem estimator's store of held factors
(:class:`~repro.estimation.wls.HeldFactors`, keyed by point and row
weights, exact array match), filled one of two ways on the same bits.
The host that ran round 0 *adopted* it there: that loop's last
factorization is the gain at ``factored_at``, still in the block's kernel
factor, so a clean frame assembles and factors no condensed gain at all.
A host that did not run the round — a failover successor in another
process — misses, and the misses of a stage are refactored in one gain
pass over the stack: the stack's gain at the point is, block by block,
bit for bit the gain the member's loop assembled there.  All frozen
rounds of a frame share one factor and repeated identical frames reuse
it.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..estimation.results import EstimationResult
from ..estimation.solvers import GainSolveError, _HeldFactor
from ..estimation.wls import EstimationError, WlsEstimator
from .decomposition import Decomposition

__all__ = ["CondensedStep2", "frozen_round", "neighbor_publication_sets"]

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


class _Unfactored:
    """The frozen operator of a subsystem whose gain did not factor: its
    block fails alone in the loop, with ``reason``."""

    def __init__(self, reason: str):
        self.reason = reason

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        raise GainSolveError(self.reason)


class CondensedStep2:
    """What a subsystem's condensed Step 2 keeps beside its cached
    extended-network estimator ``est`` (whose :class:`HeldFactors` hold the
    frozen gain factor): the coupling set's size, the frozen-round cap
    ``max_iter`` (:data:`FROZEN_MAX_ITER`) and the fallback count.  It is
    ``_step2_cache[s][0]`` of a condensed DSE.

    Parameters
    ----------
    est:
        The subsystem's cached extended-network estimator (owns the
        Jacobian pattern, the normal-equation kernel and the store of held
        factors, and solves round 0 and fallbacks).
    boundary_buses_local:
        Local bus indices of the coupling set — the subsystem's own
        boundary buses plus the external boundary buses; both of each
        bus's states (Va, Vm) are its ``boundary_states``, reported in
        the records' sizes.
    """

    def __init__(self, est: WlsEstimator, boundary_buses_local: np.ndarray):
        self.est = est
        n = est.net.n_bus
        pos = -np.ones(2 * n, dtype=np.int64)
        pos[est._keep] = np.arange(est.n_states)
        b = np.unique(np.asarray(boundary_buses_local, dtype=np.int64))
        cand = np.concatenate([b, n + b])  # Va states, then Vm states
        bpos = pos[cand]
        self.boundary_states = np.sort(bpos[bpos >= 0])
        self.max_iter = FROZEN_MAX_ITER
        self.fallbacks = 0

    # -- sizes ----------------------------------------------------------
    @property
    def n_boundary_states(self) -> int:
        return len(self.boundary_states)

    @property
    def n_interior_states(self) -> int:
        return self.est.n_states - len(self.boundary_states)


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
    (:meth:`WlsEstimator.estimate_blocks`) with each block's held gain
    factor, frozen at ``lin_points[b]`` with row weights ``weights[b]``
    (``None``: the set's own; the misses refactored in one gain pass, and
    a gain that does not factor failing its block alone), in place of the
    gain: every iteration evaluates the exact
    gradient over the stack once, without a Jacobian, and asks each
    still-running block's own operator for its step, so a block's
    iterates are the same bits however many blocks ride along.  A block
    stops on ``step < tol * FROZEN_TOL_SCALE``.  One that has not
    converged inside its own ``max_iter``, or trips the divergence guard,
    is re-solved alone by its exact estimator (``fallbacks``) — a
    deterministic function of the same ``(x0, z, weights, tol)``, so
    parity and cross-host determinism survive the fallback.  One
    outcome per block, a failed block's :class:`EstimationError` in its
    place.
    """
    operators = [
        op if isinstance(op, _HeldFactor) else _Unfactored(f"frozen gain: {op}")
        for op in stack._held(lin_points, weights)
    ]
    limits = [c.max_iter if max_iter is None else max_iter for c in conds]
    results = stack.estimate_blocks(
        x0=x0, z=z, weights=weights, tol=tol * FROZEN_TOL_SCALE,
        max_iter=max(limits), reference_angle=reference_angle,
        operators=operators,
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
