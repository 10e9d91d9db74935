"""Boundary condensation of DSE Step 2: a compact boundary wire form and a
frozen-gain iteration on a held factor.

The reference Step 2 re-evaluates each subsystem's *full* extended network
every round with exact Gauss-Newton — each round starting from the gain
factor the one before last took (:class:`CarriedStep2`), and refactoring
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
Gauss-Newton solve (:func:`exact_round`), and every later round iterates
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
``lin_point`` with every later call.  The factor itself comes one of two
ways, on the same bits.  The host that ran round 0 *adopts* it
(:meth:`CondensedStep2.adopt`): that loop's last factorization is the
gain at ``factored_at``, still in the block's kernel factor, so a clean
frame assembles and factors no condensed gain at all.  A host that did
not run the round — a failover successor, a checkpoint restore — holds no
such factor, and :func:`condense` refactors the subsystem at the point:
the stack's gain at ``lin_point`` is, block by block, bit for bit the
gain the member's loop assembled there.  :func:`condense` refactors only
when the point, or the frame's row weights, actually change (exact array
match), so all frozen rounds of a frame share one factorization and
repeated identical frames reuse it; the subsystems it does refactor come
from one gain pass over the stack.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..estimation.results import EstimationResult
from ..estimation.solvers import GainSolveError, _HeldFactor, _SpdFactor
from ..estimation.wls import EstimationError, WlsEstimator
from .decomposition import Decomposition

__all__ = [
    "CarriedStep2", "CondensedStep2", "condense", "exact_round", "frozen_round",
    "neighbor_publication_sets",
]

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
    """The frozen operator of a subsystem whose gain has not factored: its
    block fails alone in the loop, with ``reason``."""

    def __init__(self, reason: str):
        self.reason = reason

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        raise GainSolveError(self.reason)


class CarriedStep2:
    """One subsystem's cached Step-2 estimator and the gain factor its
    rounds carry from one to the next.

    Every Step-2 round of a frame starts from the estimator's exact
    Gauss-Newton loop (:func:`exact_round`).  Its block's gain
    ``G = Hᵀ W H`` depends on the state and the row weights, never on the
    pseudo-measurement values, so a round that starts where the previous
    round stopped, on the same weights, starts within √tol of the state
    where that round last factored — and takes its first step from that
    factor.  The factor is held here as ``operator`` (a
    :class:`~repro.estimation.solvers._HeldFactor`), keyed by the point it
    was taken at and the row weights (:meth:`lin_point_cached`).  The host
    that ran the round *adopts* it from the kernel the round's loop left it
    in (:meth:`adopt`); any other host refactors at the point from one
    gain pass (:func:`condense`), on the same bits.

    Parameters
    ----------
    est:
        The subsystem's cached extended-network estimator (owns the
        Jacobian pattern and the normal-equation kernel every factor is
        assembled and factored through).
    """

    #: what the held factor is called in an error of its block
    kind = "carried gain"
    #: rounds with a point run the frozen-gain iteration (condensed)
    frozen = False

    def __init__(self, est: WlsEstimator):
        self.est = est
        self.operator: _HeldFactor | _Unfactored = _Unfactored(
            f"the {self.kind} was never factored"
        )
        self.factor_time = 0.0
        self.factor_count = 0
        self._lin_cache: tuple[np.ndarray, np.ndarray] | None = None
        #: ``(factor, factored_at, weights)`` of the last exact round: the
        #: kernel factor its loop left holding the gain at ``factored_at``
        self._last_exact: tuple | None = None

    def lin_point_cached(self, lin_point: tuple, weights=None) -> bool:
        """True when ``lin_point`` and ``weights`` exactly match the
        operator already factored, i.e. a round at that point reuses the
        factorization.

        The recovery plane leans on this: a checkpointed point round-trips
        the ``FLAG_CHECKPOINT`` wire form bit-exactly (float64 both sides),
        so a failover successor restoring a donor's checkpoint in the same
        process hits the cache instead of refactoring the subsystem.
        """
        cached = self._lin_cache
        return cached is not None and all(
            a is b or np.array_equal(a, b)     # None matches None only
            for a, b in zip(cached, (*lin_point, weights))
        )

    def _factor(
        self, spd: _SpdFactor, gain: np.ndarray, lin_point: tuple, weights
    ) -> None:
        """Factor this subsystem's gain values ``gain`` (on its estimator's
        kernel pattern), assembled at ``lin_point`` with row weights
        ``weights`` (:func:`condense`), through ``spd`` — a factor of that
        pattern — and hold it (:meth:`_hold`).  A gain that does not factor
        raises :class:`GainSolveError` and leaves an operator that fails its
        block and no key, so the next round tries again."""
        self._lin_cache = None
        try:
            spd.factor(gain)
        except GainSolveError as exc:
            self.operator = _Unfactored(f"{self.kind}: {exc}")
            raise
        if obs.enabled():
            obs.metrics().counter("dse.condensation.factorizations_total").inc()
        self._hold(spd, lin_point, weights)

    def _hold(self, spd: _SpdFactor, lin_point: tuple, weights) -> None:
        """Hold ``spd``'s factor — the gain at ``lin_point`` with row
        weights ``weights`` — as the operator, keyed by those."""
        self.operator = _HeldFactor(spd)
        self.factor_count += 1
        self._lin_cache = tuple(
            None if a is None else np.array(a, dtype=float, copy=True)
            for a in (*lin_point, weights)
        )

    def adopt(self, lin_point: tuple) -> bool:
        """Take the factor the last exact round's loop left in its kernel
        as the operator, when ``lin_point`` is that round's
        ``factored_at`` (the very arrays its result reports), keyed by it
        and the round's weights — the factor :func:`condense` would make
        there, bit for bit, without the gain pass (an operator already
        keyed there is kept).  Returns whether it holds that factor now;
        the record is consumed either way, and a point that is not the
        round's leaves the refactorisation to :func:`condense`."""
        last, self._last_exact = self._last_exact, None
        if last is None or last[1] is not lin_point:
            return False
        if self.lin_point_cached(*last[1:]):
            return True     # a repeated frame: the operator is these bits
        t0 = time.perf_counter()
        self._hold(*last)
        self.factor_time += time.perf_counter() - t0
        return True

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
        :class:`EstimationResult`) plus ``lin_point``, the point of the
        factor the round carries in (refactored only when it or ``weights``
        moved): the exact loop's first step solves against it.  Without
        one the round starts fresh.  On a :class:`CondensedStep2` a point
        turns the round into the frozen-gain iteration
        (:func:`frozen_round`; ``max_iter`` overrides its cap).  Raises
        :class:`EstimationError` on a failed solve.
        """
        inputs = dict(
            x0=[x0], z=[z], weights=[weights], tol=tol,
            reference_angle=reference_angle, lin_points=[lin_point],
        )
        if self.frozen and lin_point is not None:
            (res,) = frozen_round(self.est, [self], max_iter=max_iter, **inputs)
        else:
            (res,) = exact_round(self.est, [self], **inputs)
        if isinstance(res, EstimationError):
            raise res
        return res


class CondensedStep2(CarriedStep2):
    """Condensed drop-in for the cached Step-2 :class:`WlsEstimator`.

    A :class:`CarriedStep2` whose carried factor is frozen: the frame's
    first round is exact, and every later round iterates with the gain
    held where that round last factored it (:func:`frozen_round`), so the
    in-process algorithm and the live runtime use it unchanged through
    ``_step2_cache``.  It owns the subsystem's frozen operator
    (``operator``: the held Cholesky factor of its extended gain), the
    linearization point it was factored at and the fallback count.

    Parameters
    ----------
    est:
        The subsystem's cached extended-network estimator (owns the
        Jacobian pattern and the normal-equation kernel the frozen gain is
        assembled and factored through, and solves round 0 and fallbacks).
    boundary_buses_local:
        Local bus indices of the coupling set — the subsystem's own
        boundary buses plus the external boundary buses; both of each
        bus's states (Va, Vm) are its ``boundary_states``, reported in
        the records' sizes.

    ``max_iter`` (:data:`FROZEN_MAX_ITER`) is this subsystem's frozen-round
    cap.
    """

    kind = "frozen gain"
    frozen = True

    def __init__(
        self,
        est: WlsEstimator,
        boundary_buses_local: np.ndarray,
    ):
        super().__init__(est)
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


def condense(
    stack: WlsEstimator, conds: list[CarriedStep2], lin_points: list, weights: list
) -> float:
    """Refactor every ``conds[b]`` given a point whose ``(lin_points[b],
    weights[b])`` moved (a ``None`` point asks for no factor), from one
    gain pass over ``stack`` (:meth:`WlsEstimator.gain_at`
    restricted to those blocks), each factoring its own segment of the
    gain values — bit for bit the gain its own estimator assembles — with
    its block's fixed-pattern factor in the stack's kernel.  Returns the
    seconds the whole refactorisation took: each refactored subsystem's
    ``factor_time`` gains its own factorisation and a share of the gain
    pass in proportion to its gain entries (apportioned, not timed alone),
    so the shares sum to this wall.  A subsystem whose gain does not
    factor keeps an operator that fails its block in the loop.
    """
    stale = [
        b for b, (cond, lin, w) in enumerate(zip(conds, lin_points, weights))
        if lin is not None and not cond.lin_point_cached(lin, w)
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
    blocks = kernel.blocks
    segments = [slice(*blocks[b][2]) for b in stale]
    sizes = np.array([g.stop - g.start for g in segments], dtype=float)
    t = time.perf_counter()
    shares = (t - t0) * sizes / sizes.sum()
    for b, g, share in zip(stale, segments, shares):
        try:
            conds[b]._factor(blocks[b][0], gain[g], lin_points[b], weights[b])
        except GainSolveError:
            pass    # the unfactored operator fails its own block in the loop
        t, t_prev = time.perf_counter(), t
        conds[b].factor_time += float(share) + (t - t_prev)
    return t - t0


def exact_round(
    stack: WlsEstimator,
    conds: list[CarriedStep2],
    *,
    x0: list,
    z: list,
    weights: list,
    lin_points: list | None = None,
    tol: float = 1e-8,
    reference_angle: float = 0.0,
) -> list[EstimationResult | EstimationError]:
    """The exact Gauss-Newton round of every ``conds[b]`` over ``stack``
    (as :func:`frozen_round` takes it), in lock step.

    A block given a point (``lin_points[b]``, ``None``: none) carries its
    subsystem's factor at that point with its weights into the round —
    refactored by :func:`condense` where the subsystem does not hold it —
    and takes its first step from it, keeping it while its steps contract
    (:meth:`WlsEstimator.estimate_blocks`' ``carried``).  Afterwards each
    subsystem notes the factor its block's loop left in ``stack``'s kernel
    — the gain at the result's ``factored_at`` — for
    :meth:`CarriedStep2.adopt`."""
    carried = None
    if lin_points is not None and any(p is not None for p in lin_points):
        condense(stack, conds, lin_points, weights)
        carried = [
            None if p is None else c.operator for c, p in zip(conds, lin_points)
        ]
    results = stack.estimate_blocks(
        x0=x0, z=z, weights=weights, tol=tol, reference_angle=reference_angle,
        carried=carried,
    )
    blocks = stack._kernel().blocks
    for cond, (spd, _, _), res, w in zip(conds, blocks, results, weights):
        cond._last_exact = (
            None if isinstance(res, EstimationError) or res.factored_at is None
            else (spd, res.factored_at, w)
        )
    return results


def frozen_round(
    stack: WlsEstimator,
    conds: list[CarriedStep2],
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
    (``None``: the set's own; refactored by :func:`condense` where that
    key moved), in place of the gain: every iteration evaluates the exact
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
    condense(stack, conds, lin_points, weights)
    limits = [c.max_iter if max_iter is None else max_iter for c in conds]
    results = stack.estimate_blocks(
        x0=x0, z=z, weights=weights, tol=tol * FROZEN_TOL_SCALE,
        max_iter=max(limits), reference_angle=reference_angle,
        operators=[c.operator for c in conds],
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
