"""Weighted-least-squares state estimation (Gauss-Newton).

The estimator solves ``min_x (z - h(x))ᵀ W (z - h(x))`` over the polar state
``x = [Va; Vm]`` by iterating the normal equations (Abur & Expósito, ch. 2;
the paper's section IV-C).  The angle reference is handled by eliminating
the slack bus angle column unless the measurement set contains synchronized
PMU angles, in which case the state is fully determined and no column is
dropped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasType, MeasurementSet
from .results import EstimationResult
from .solvers import GainSolveError, GainSolver, NormalEquations, _HeldFactor

__all__ = [
    "EstimationError", "HeldFactors", "InputError", "WlsEstimator",
    "check_rows", "check_tol", "estimate_state",
]


class EstimationError(RuntimeError):
    """Raised when the estimator cannot produce a solution."""


def check_tol(tol) -> None:
    """Refuse a ``tol`` that is not finite and > 0 before anything runs (an
    infinite one stops a solve after one step, marked converged; zero,
    negative or NaN never stops it).  A scalar check — the scenario service
    calls this on its submit path, where a ufunc would drop the interpreter
    lock (see the ``z`` check there)."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


class InputError(EstimationError, ValueError):
    """A frame refused before anything runs (:func:`check_rows`); in a
    multi-block solve it is the offending block's outcome alone, and
    ``block`` its index."""

    block: int | None = None


def check_rows(z=None, weights=None, block=None) -> None:
    """Refuse a frame's measured values ``z`` when one is not finite, and
    its row ``weights`` when one is negative or not finite: raises
    :class:`InputError` (a ``ValueError``) naming the first offending row,
    in the block's own row order, with ``block`` as its ``block``.  The
    message leaves the block out: a block's failure reads the same however
    its solve was stacked."""
    bad = None
    if z is not None and not (ok := np.isfinite(z)).all():
        row = int(np.argmin(ok))
        bad = f"z row {row} is non-finite ({float(z[row])!r})"
    elif weights is not None and not (ok := (weights >= 0) & (weights < np.inf)).all():
        row = int(np.argmin(ok))
        bad = f"weights must be finite and >= 0; row {row} is {float(weights[row])!r}"
    if bad is not None:
        exc = InputError(bad)
        exc.block = block
        raise exc


class HeldFactors:
    """The gain factors one estimator holds past the solve that made them.

    A factor is keyed by ``(point, weights)``, matched on exact values: the
    state its gain ``Hᵀ W H`` was assembled at — ``(Vm, Va)`` in the
    estimator's bus order, or ``(angle,)`` for the flat start at that
    reference angle (``Vm = 1``, the base topology) — and the row weights
    (``None``: the set's own).  One factor is held per kind of point: the
    flat start's, in the form the live factor solves with (a step from it
    is a fresh factor's bits), and the last ``(Vm, Va)`` one's — the
    factor a Step-2 round carries — held packed
    (:class:`~repro.estimation.solvers._HeldFactor`).  ``count`` is the
    factors taken, ``seconds`` the wall time taking them: gain passes and
    factorizations on a miss (:meth:`WlsEstimator._held`), and adoptions
    of a loop's last factor (:meth:`WlsEstimator.estimate_blocks`'
    ``carried``).
    """

    def __init__(self):
        self._held: dict[int, tuple] = {}      # len(point) -> (key, factor)
        self.count = 0
        self.seconds = 0.0

    def get(self, point: tuple, weights=None) -> _HeldFactor | None:
        """The factor held at ``(point, weights)``, or ``None``."""
        key, factor = self._held.get(len(point), ((), None))
        same = all(                 # None matches None only
            a is b or np.array_equal(a, b) for a, b in zip(key, (*point, weights))
        )
        return factor if same else None

    def take(self, point: tuple, weights, spd) -> _HeldFactor:
        """Hold ``spd``'s factor — the gain at ``(point, weights)`` — in
        place of the one held for that kind of point (a factor held at
        this key already is kept)."""
        if self.get(point, weights) is None:
            key = tuple(None if a is None else np.array(a) for a in (*point, weights))
            self._held[len(point)] = (key, _HeldFactor(spd, live_form=len(point) == 1))
            self.count += 1
        return self._held[len(point)][1]


@dataclass(frozen=True)
class _Block:
    """Where one member of an estimator sits in its model: its buses, its
    measurement rows, its free states, and the bus whose angle it pins as
    reference (``None`` when synchronized angles determine it).  A plain
    estimator has one, spanning everything; its replicas share it."""

    buses: slice
    rows: slice | np.ndarray
    n_rows: int
    states: slice
    pinned: int | None

    @property
    def n_states(self) -> int:
        return self.states.stop - self.states.start


class WlsEstimator:
    """Gauss-Newton WLS estimator over a fixed network + measurement set.

    Parameters
    ----------
    net:
        The (sub)network being estimated.
    mset:
        Measurements; must make the network observable.
    reference_bus:
        Bus index whose angle is fixed when no PMU angles are present
        (default: the network's first slack bus).

    An estimator solves one or more independent *blocks* in one
    Gauss-Newton loop (:meth:`estimate_blocks`).  The constructor builds
    the one-block case, which also answers for K *replicas* of itself — K
    starts, measurement vectors and branch-status vectors on its one
    model; :meth:`stacked` joins several estimators into the disjoint
    union of their problems, one block per member.
    """

    def __init__(
        self,
        net: Network,
        mset: MeasurementSet,
        *,
        reference_bus: int | None = None,
    ):
        self.net = net
        self.mset = mset
        self.model = MeasurementModel(net, mset)
        self.has_pmu_angles = mset.count(MeasType.PMU_VA) > 0
        if reference_bus is None:
            slacks = net.slack_buses
            reference_bus = int(slacks[0]) if len(slacks) else 0
        self.reference_bus = int(reference_bus)

        n = net.n_bus
        if self.has_pmu_angles:
            self._keep = np.arange(2 * n)
        else:
            self._keep = np.delete(np.arange(2 * n), self.reference_bus)
        self._gain_solver = GainSolver()
        self._keep_all = self.has_pmu_angles
        self.factors = HeldFactors()
        self._stores = [self.factors]
        self._blocks = [
            _Block(
                buses=slice(0, n),
                rows=slice(None),
                n_rows=len(mset),
                states=slice(0, len(self._keep)),
                pinned=None if self.has_pmu_angles else self.reference_bus,
            )
        ]

    @classmethod
    def stacked(cls, members: "list[WlsEstimator]") -> "WlsEstimator":
        """The disjoint union of ``members`` as one estimator, one block
        per member.

        The members' networks and measurement sets are concatenated (bus
        and branch indices offset) into one model, the free states kept
        block-contiguous in member order, and the normal-equation kernel is
        composed from the members' own kernels
        (:meth:`NormalEquations.stacked`), which this call builds if they
        are not built yet.  :meth:`estimate_blocks` then advances every
        member with one evaluation of h(x) and of the gradient, one
        Jacobian fill and one gain assembly per iteration; the fill and
        ``W H`` run over the entries of the members that factor in that
        iteration only (:meth:`JacobianStructure.split`), so a member that
        has finished or holds its factor fills nothing.
        Every sum a member's solve takes is taken over the same terms in the
        same order, so each block's result is bit for bit the member's own
        :meth:`estimate`.  The stack holds no factor of its own: each block
        reads and fills its member's :class:`HeldFactors`.
        """
        if not members:
            raise ValueError("stacked() needs at least one estimator")
        if any(len(m._blocks) != 1 or not m.n_states for m in members):
            raise ValueError("members must be plain, non-empty estimators")
        net = Network.disjoint_union([m.net for m in members], name="stack")
        bus_at = np.cumsum([0] + [m.net.n_bus for m in members])
        branch_at = np.cumsum([0] + [m.net.n_branch for m in members])
        n = int(bus_at[-1])

        # the members' rows with their elements moved by the offsets
        columns = [m.mset.column_arrays() for m in members]
        mset, rows = MeasurementSet.from_columns(
            np.concatenate([tpos for tpos, _, _ in columns]),
            np.concatenate(
                [
                    elem + np.where(is_bus, bus_at[b], branch_at[b])
                    for b, (_, elem, is_bus) in enumerate(columns)
                ]
            ),
            np.concatenate([m.mset.z for m in members]),
            np.concatenate([m.mset.sigma for m in members]),
        )
        rows = np.split(rows, np.cumsum([len(m.mset) for m in members])[:-1])

        self = cls.__new__(cls)
        self.net, self.mset = net, mset
        self.model = MeasurementModel(net, mset)
        self.has_pmu_angles = all(m.has_pmu_angles for m in members)
        self.reference_bus = None
        # member states [Va; Vm] -> union columns, member after member
        self._keep = np.concatenate(
            [
                np.where(
                    m._keep < m.net.n_bus,
                    m._keep + bus_at[b],
                    m._keep - m.net.n_bus + n + bus_at[b],
                )
                for b, m in enumerate(members)
            ]
        )
        self._keep_all = False      # kept, but member after member
        state_at = np.cumsum([0] + [m.n_states for m in members])
        self._blocks = [
            _Block(
                buses=slice(int(bus_at[b]), int(bus_at[b + 1])),
                rows=rows[b],
                n_rows=len(rows[b]),
                states=slice(int(state_at[b]), int(state_at[b + 1])),
                pinned=(
                    None
                    if m.has_pmu_angles
                    else int(bus_at[b]) + m.reference_bus
                ),
            )
            for b, m in enumerate(members)
        ]
        structure = self.model.jacobian_structure(self._keep)
        structure.split(bus_at, branch_at, state_at)
        self._gain_solver = GainSolver()
        self._gain_solver.kernel = NormalEquations.stacked(
            [m._kernel() for m in members], rows, *structure.pattern
        )
        self.factors, self._stores = None, [m.factors for m in members]
        return self

    @property
    def n_states(self) -> int:
        """Number of free state variables."""
        return len(self._keep)

    def _jacobian_at(self, Vm: np.ndarray, Va: np.ndarray):
        """The reduced Jacobian at (Vm, Va) as a sparse matrix."""
        return self.model.jacobian_reduced(Vm, Va, self._keep)

    def _advance(self, Vm: np.ndarray, Va: np.ndarray, dx: np.ndarray) -> None:
        """Add the reduced step ``dx`` to the state, in place (one state,
        or a stack of them along a trailing axis)."""
        n = len(Vm)
        if self._keep_all:          # dx is [dVa; dVm] as it stands
            Va += dx[:n]
            Vm += dx[n:]
        else:
            full_dx = np.zeros((2 * n, *dx.shape[1:]))
            full_dx[self._keep] = dx
            Va += full_dx[:n]
            Vm += full_dx[n:]

    def _kernel(self) -> NormalEquations:
        """The normal-equation kernel for this estimator's Jacobian
        pattern, built on first use."""
        solver = self._gain_solver
        solver.kernel = NormalEquations.cached(
            solver.kernel, *self.model.jacobian_structure(self._keep).pattern
        )
        return solver.kernel

    def gain_at(
        self, Vm: np.ndarray, Va: np.ndarray, weights=None, parts=None
    ) -> tuple:
        """``(kernel, data, gain)`` at ``(Vm, Va)``: this estimator's kernel,
        the reduced Jacobian's CSC ``data`` and the values of ``G = Hᵀ W H``
        on the kernel's gain pattern (``weights``: ``W``'s diagonal, default
        the set's own).  Numeric-only: no matrix, no symbolic pass.  On a
        stacked estimator the arguments are the union's, and ``parts``
        (ascending block indices) evaluates those blocks alone: ``data``
        holds their entries back to back and the other blocks' gain values
        are left unset.  Block ``b``'s gain values are
        ``gain[slice(*kernel.blocks[b][2])]``, bit for bit its member's
        own."""
        kernel = self._kernel()
        data = self.model.jacobian_structure(self._keep).fill_data(
            np.asarray(Vm, dtype=float), np.asarray(Va, dtype=float), parts=parts
        )
        w = self.mset.weights if weights is None else weights
        wdata = kernel.weighted(data, w, parts)
        return kernel, data, kernel.gain(data, wdata, parts, parts)

    def factor_at(self, Vm: np.ndarray, Va: np.ndarray, weights=None) -> tuple:
        """``(factor, H)``: the kernel's factor holding :meth:`gain_at`'s
        ``G``, and the reduced Jacobian — what the residual and state
        covariances solve against.  It is the factor the Gauss-Newton loop
        uses, valid until this estimator's next solve; a gain that is not
        positive definite raises ``GainSolveError``."""
        if len(self._blocks) != 1:
            raise TypeError("a stacked estimator has one factor per member")
        kernel, data, gain = self.gain_at(Vm, Va, weights)
        kernel.spd.factor(gain)
        H = sp.csc_matrix((data, kernel.indices, kernel.indptr), shape=kernel.shape)
        return kernel.spd, H

    def _held(self, points: list, weights: list) -> list:
        """Block ``b``'s held factor of its gain at ``points[b]`` on row
        weights ``weights[b]`` (:class:`HeldFactors` keys; a ``None`` point
        asks for none): its store's, or on a miss factored now — the
        misses of every block in one gain pass (:meth:`gain_at` restricted
        to them), each through its kernel block's factor, sharing the
        pass's wall equally.  A gain that does not factor gives its
        ``GainSolveError`` in its place and is not keyed."""
        stores = self._stores
        out = [
            None if p is None else store.get(p, w)
            for store, p, w in zip(stores, points, weights)
        ]
        miss = [b for b, p in enumerate(points) if p is not None and out[b] is None]
        if not miss:
            return out
        t0 = time.perf_counter()
        n = self.net.n_bus
        Vm, Va, w = np.ones(n), np.zeros(n), None
        for b in miss:
            buses = self._blocks[b].buses
            if len(points[b]) == 1:
                Va[buses] = points[b][0]
            else:
                Vm[buses], Va[buses] = points[b]
            if weights[b] is not None:
                if w is None:
                    w = self.mset.weights.copy()
                w[self._blocks[b].rows] = weights[b]
        kernel, _, gain = self.gain_at(
            Vm, Va, w, parts=miss if len(self._blocks) > 1 else None
        )
        for b in miss:
            spd, _, g = kernel.blocks[b]
            try:
                spd.factor(gain[slice(*g)])
            except GainSolveError as exc:
                out[b] = exc
                continue
            out[b] = stores[b].take(points[b], weights[b], spd)
            if obs.enabled() and len(points[b]) == 2:
                obs.metrics().counter("dse.condensation.factorizations_total").inc()
        share = (time.perf_counter() - t0) / len(miss)
        for b in miss:
            stores[b].seconds += share
        return out

    def estimate(
        self,
        *,
        x0: tuple[np.ndarray, np.ndarray] | None = None,
        tol: float = 1e-8,
        max_iter: int = 25,
        reference_angle: float = 0.0,
        z: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> EstimationResult:
        """Run Gauss-Newton from ``x0`` (default flat start).

        ``z`` optionally overrides the measured values of the estimator's
        measurement set (same canonical order, e.g. a fresh telemetry scan
        or updated pseudo measurements over an unchanged structure), and
        ``weights`` its row weights ``1/σ²`` (a zero removes the row; see
        :meth:`estimate_blocks`).

        Returns an :class:`EstimationResult`; raises
        :class:`EstimationError` on a failed normal-equation solve (e.g.
        unobservable network).
        """
        if len(self._blocks) != 1:
            raise TypeError("a stacked estimator answers estimate_blocks()")
        (res,) = self.estimate_blocks(
            x0=[x0], z=[z], weights=[weights], tol=tol, max_iter=max_iter,
            reference_angle=reference_angle,
        )
        if isinstance(res, EstimationError):
            raise res
        return res

    def estimate_blocks(
        self,
        *,
        x0: list | None = None,
        z: list | None = None,
        status: list | None = None,
        weights: list | None = None,
        tol: float | list[float] = 1e-8,
        max_iter: int = 25,
        reference_angle: float = 0.0,
        carried: list | None = None,
    ) -> list[EstimationResult | EstimationError]:
        """One Gauss-Newton loop over every block; one outcome per block.

        ``x0[b]`` / ``z[b]`` are block ``b``'s warm start and measured
        values (``None`` entries, or ``None`` for the whole list: flat
        start / the set's own values), in the block's own bus and row
        order.  On a stacked estimator the blocks are its members.  On a
        plain one they are K *replicas* of its one problem, K being the
        lists' length: the states become ``(n, K)`` stacks on the one
        model and Jacobian pattern, and ``status[b]`` may give replica
        ``b`` its own branch-status vector (a what-if on the base
        topology's pattern; ``None``: the network's own).

        ``weights[b]`` is block ``b``'s row weights, data of the call like
        its ``z`` (``None``: the set's own ``1/σ²``) — a reweighting scheme
        (Huber) or a row mask (bad-data removal) is a caller passing other
        data to the same loop.  A zero removes its row: it adds nothing to
        gain, right-hand side or objective and is not counted in ``dof`` or
        in the underdetermined check; its residual is still reported.

        Blocks iterate in lock step and are judged separately: a block
        stops — and leaves the loop: it is no longer factored or solved, a
        union block's Jacobian entries are no longer filled and a replica
        is no longer evaluated (h(x), the currents and the gradient stay
        union-wide) — the iteration its own step norm falls below ``tol``
        (one value, or one per block), and keeps its own iteration count,
        step norms and ``converged`` flag; one that is underdetermined,
        whose gain does not factor or whose step is non-finite yields its
        :class:`EstimationError` in place of a result while the others
        carry on.  While no replica carries a branch status, a replica
        gives bit for bit what :meth:`estimate` gives for its ``x0`` /
        ``z``; once one does, every replica — one on the network's own
        topology too — is evaluated on per-replica admittances
        (:meth:`MeasurementModel.admittance_stack`), which moves a
        base-topology replica by an ulp or so.

        Every right-hand side ``HᵀW r`` is the gradient, taken in reverse
        mode through h (:meth:`MeasurementModel.gradient`) with no H built;
        the Jacobian is filled and weighted only for the blocks — a union's
        members, a stack's replicas — that factor a gain in that iteration
        (:meth:`NormalEquations.step_blocks`).

        *Frozen tail.*  Gauss-Newton on a problem with non-zero residuals
        ends in a linear tail, where the gain barely moves between
        iterations.  A block whose step — from a fresh factor — falls
        below ``√tol`` and below its previous step keeps that factor, and
        its later iterations take the exact right-hand side but fill no
        Jacobian and assemble and factor no gain: the held operator is
        O(√tol) from the current gain, so it moves each later step by
        O(tol) and leaves the fixed point where it was.  A held block whose
        step stops contracting drops the factor and re-factors on its next
        iteration.  ``factorizations`` on a result counts the iterations
        that did factor, and ``factored_at`` is the block's state at the
        last of them (``None`` when it factored none) — the state whose
        gain the block's factor in the kernel holds when the call returns.

        *Held factors.*  Iteration 1 of a block may solve against a
        factor its estimator holds (:class:`HeldFactors`, one per plain
        estimator; a stack's blocks use their members'), with no fill,
        gain or factorization, which ``factorizations`` does not count;
        the misses are factored in one gain pass (:meth:`_held`).  A block
        that starts flat with no ``weights`` and no ``status`` of its own
        takes the gain at the flat start (``Vm = 1``, ``Va =
        reference_angle``, the set's own weights, the base topology) — a
        constant of the estimator, one for all replicas — on the same bits
        as a fresh factor gives, and the loop runs on from iteration 2 as
        it would have.  ``carried[b]`` (``None``: none) is a point ``(Vm,
        Va)`` in block ``b``'s bus order where the caller knows the block's
        gain was last factored, within √tol of ``x0[b]`` — the
        ``factored_at`` of the DSE Step-2 round before, which it
        warm-starts from: the block takes the factor held there on
        ``weights[b]`` and keeps it as a tail factor while its steps
        contract, re-factoring when they stop; ``factored_at`` is ``None``
        until the block factors.  A call given ``carried`` carries factors
        on: afterwards each block's store adopts the factor the loop left
        in the block's kernel factor, keyed at its ``factored_at`` on its
        weights — the point of the next call.

        A ``tol`` (or a per-block one) that is not finite and > 0, or a
        negative ``max_iter``, raises ``ValueError`` before anything runs;
        ``max_iter=0`` returns the start's residuals unsolved.  A block
        whose ``z`` is not finite or whose weights are negative or not
        finite is refused before any factor is taken: its outcome is the
        :class:`InputError` of :func:`check_rows`.
        """
        t_start = time.perf_counter() if obs.enabled() else 0.0
        model, ms, net = self.model, self.mset, self.net
        n, blocks = net.n_bus, self._blocks
        given = [v for v in (x0, z, status, weights) if v is not None]
        if len(blocks) == 1 and given:
            blocks = blocks * len(given[0])
        nb = len(blocks)
        if not nb or any(len(v) != nb for v in given):
            raise ValueError(f"need one x0/z/status/weights entry per block ({nb})")
        x0, z, status, weights = (
            [None] * nb if v is None else v for v in (x0, z, status, weights)
        )
        whatif = any(s is not None for s in status)
        if whatif and len(self._blocks) != 1:
            raise ValueError("branch status is per replica of a plain estimator")
        replicas = whatif or nb > len(self._blocks)
        if carried is not None and (replicas or len(carried) != nb):
            raise ValueError("need one carried point per block, no replicas")
        tols = [tol] * nb if np.ndim(tol) == 0 else list(tol)
        if len(tols) != nb:
            raise ValueError(f"need one tol, or one per block ({nb})")
        for t in tols:
            check_tol(t)
        if max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")

        # Where a block lives.  A union is one (n,) state and its blocks are
        # bus / row slices of it; replicas are the columns of an (n, K)
        # stack — column j is block active[j], the stack closing up as
        # replicas finish — and index as (slice, *at) with at = (j,).
        results: list[EstimationResult | EstimationError | None] = [None] * nb
        Vm = np.ones((n, nb) if replicas else n)
        Va = np.full(Vm.shape, reference_angle)
        zz = ms.z
        if replicas:
            zz = np.repeat(zz[:, None], nb, axis=1)
        elif any(v is not None for v in z):
            zz = zz.copy()
        w = ms.weights
        if any(v is not None for v in weights):
            w = np.repeat(w[:, None], nb, axis=1) if replicas else w.copy()
        used = [blk.n_rows for blk in blocks]   # rows of non-zero weight
        for b, blk in enumerate(blocks):
            at = (b,) if replicas else ()
            if weights[b] is not None:
                if len(weights[b]) != blk.n_rows:
                    raise ValueError("weights length mismatch")
                w[(blk.rows, *at)] = weights[b]
                used[b] = int(np.count_nonzero(weights[b]))
            if used[b] < blk.n_states:
                results[b] = EstimationError(
                    f"underdetermined: {used[b]} measurements for "
                    f"{blk.n_states} states"
                )
                continue
            if z[b] is not None:
                if len(z[b]) != blk.n_rows:
                    raise ValueError("z override length mismatch")
                zz[(blk.rows, *at)] = z[b]
            if x0[b] is not None:
                Vm[(blk.buses, *at)], Va[(blk.buses, *at)] = x0[b]
            if blk.pinned is not None:
                Va[(blk.pinned, *at)] = reference_angle
        # bad rows: one test over every block, the culprits named on a miss
        if not (np.isfinite(zz).all() and ((w >= 0) & (w < np.inf)).all()):
            for b, blk in enumerate(blocks):
                at = (b,) if replicas else ()
                wb = w[(blk.rows, *at)] if w.ndim == 2 else w[blk.rows]
                try:
                    if results[b] is None:
                        check_rows(zz[(blk.rows, *at)], wb, b)
                except InputError as exc:
                    results[b] = exc
        # per-replica admittances only when some replica flips a branch;
        # otherwise the model's own operators serve every column
        adm = None
        if whatif:
            adm = model.admittance_stack(np.array(
                [net.br_status if s is None else s for s in status], dtype=float
            ))

        # Every right-hand side is the gradient, taken in reverse mode
        # through h; the Jacobian — a data vector on the structure's fixed
        # pattern, never a sparse matrix — is filled only for the blocks
        # that factor this iteration.
        structure = model.jacobian_structure(self._keep)
        kernel = self._kernel()
        state_starts = [blk.states.start for blk in self._blocks]
        step_norms: list[list[float]] = [[] for _ in range(nb)]
        factorizations = [0] * nb
        # where each block's last factorization was taken: a snapshot of
        # the states and the block's column in it (replicas)
        factored: list[tuple | None] = [None] * nb
        # Held gain factors by block: a store's for iteration 1 (a carried
        # point's or the flat start's), or a block's own held through its
        # linear tail.
        ops = {}
        roots = [float(np.sqrt(t)) for t in tols]
        flat = set()
        if max_iter:
            points = list(carried or [None] * nb)
            for b in range(nb):
                if results[b] is not None:
                    points[b] = None
                elif points[b] is None and all(
                    v[b] is None for v in (x0, weights, status)
                ):
                    points[b] = (reference_angle,)
                    flat.add(b)
            if replicas:        # one problem, one store: the flat start's
                (op,) = self._held([(reference_angle,) if flat else None], [None])
                held = [op if b in flat else None for b in range(nb)]
            else:
                held = self._held(points, weights)
            ops.update((b, op) for b, op in enumerate(held) if isinstance(op, _HeldFactor))

        def finish(b: int, converged: bool) -> None:
            blk = blocks[b]
            at = (active.index(b),) if replicas else ()
            rb = r[(blk.rows, *at)]
            wb = w[(blk.rows, *at)] if w.ndim == 2 else w[blk.rows]
            if replicas:    # a strided dot product sums in another order
                rb = rb.copy()
            lin = None
            if factored[b] is not None:
                (sVm, sVa), col = factored[b]
                lin = (sVm[(blk.buses, *col)].copy(), sVa[(blk.buses, *col)].copy())
            # copies: the other blocks keep iterating on Vm / Va
            results[b] = EstimationResult(
                converged=converged,
                iterations=it,
                Vm=Vm[(blk.buses, *at)].copy(),
                Va=Va[(blk.buses, *at)].copy(),
                residuals=rb,
                objective=float(rb @ (wb * rb)),
                dof=used[b] - blk.n_states,
                step_norms=step_norms[b],
                factorizations=factorizations[b],
                factored_at=lin,
            )

        active = [b for b in range(nb) if results[b] is None]
        if replicas and len(active) < nb:
            # the stack starts over the replicas that run
            Vm, Va, zz, adm = (a if a is None else a[:, active] for a in (Vm, Va, zz, adm))
            if w.ndim == 2:
                w = w[:, active]
        it = 0
        # Currents are evaluated once per state — initially, and after
        # every update — and serve the residual there and the next
        # iteration's gradient and Jacobian; the final iteration's
        # post-update residual is the reported one.
        cur = model.currents(Vm, Va, adm)
        r = zz - model.h(Vm, Va, cur)
        while active and it < max_iter:
            it += 1
            u = w * r if w.ndim == r.ndim else w[:, None] * r
            rhs = model.gradient(Vm, Va, cur, u, adm)[self._keep]
            # a block either solves against a factor it holds, or factors
            # afresh and keeps that factor if its step comes out below √tol
            # and below its last one (hold: block → that bound)
            factoring = [b for b in active if b not in ops]
            hold = {
                b: min(roots[b], step_norms[b][-1])
                for b in factoring
                if step_norms[b]
            }
            data = w_f = None
            if factoring and not replicas:
                # a union's factoring blocks alone, back to back
                data, w_f = structure.fill_data(Vm, Va, cur, None, factoring), w
            elif factoring:
                # the factoring replicas' columns, to the kernel as rows
                # (.T of one state's vectors is the vectors)
                cols = [active.index(b) for b in factoring]
                Vm_f, Va_f, adm_f, *cur_f = (
                    a if a is None or len(cols) == len(active) else a[:, cols]
                    for a in (Vm, Va, adm, *cur)
                )
                data = np.ascontiguousarray(
                    structure.fill_data(Vm_f, Va_f, cur_f, adm_f).T
                )
                w_f = w if w.ndim == 1 else w[:, cols].T
            if factoring:
                snap = (Vm.copy(), Va.copy())
                for b in factoring:
                    factorizations[b] += 1
                    factored[b] = (snap, (active.index(b),) if replicas else ())
            try:
                dx, errors = kernel.step_blocks(
                    rhs.T if replicas else rhs, active, ops, data, w_f, hold
                )
                if replicas:
                    dx = dx.T
            except Exception as exc:
                dx = np.zeros((self.n_states, *Vm.shape[1:]))
                errors = dict.fromkeys(active, exc)
            if it == 1:
                for b in flat:      # the flat factors serve iteration 1 alone
                    ops.pop(b, None)
            for b, exc in errors.items():
                results[b] = EstimationError(
                    f"normal-equation solve failed: {exc}"
                )
                results[b].__cause__ = exc
            if len(errors) == len(active):
                active = []
                break

            self._advance(Vm, Va, dx)
            cur = model.currents(Vm, Va, adm)
            r = zz - model.h(Vm, Va, cur)
            if not len(dx):
                steps = dict.fromkeys(active, 0.0)
            elif replicas:
                steps = dict(zip(active, np.abs(dx).max(axis=0).tolist()))
            else:
                steps = np.maximum.reduceat(np.abs(dx), state_starts).tolist()
            running = []
            for b in active:
                if b in errors:
                    continue
                step_norms[b].append(steps[b])
                if steps[b] < tols[b]:
                    finish(b, True)
                else:
                    running.append(b)
            # a held factor lives while its block runs and contracts (a
            # carried one has no step to contract from after iteration 1)
            for b in list(ops):
                if b not in running or (
                    b not in factoring and len(step_norms[b]) > 1
                    and step_norms[b][-1] >= step_norms[b][-2]
                ):
                    del ops[b]
            if replicas and len(running) < len(active):
                # the stack closes up over the replicas still running
                cols = [active.index(b) for b in running]
                Vm, Va, zz, r, adm, *cur = (
                    a if a is None else a[:, cols]
                    for a in (Vm, Va, zz, r, adm, *cur)
                )
                if w.ndim == 2:
                    w = w[:, cols]
            active = running
        for b in active:
            finish(b, False)
        if carried is not None:
            # each block's store adopts the factor the loop left in its
            # kernel factor, keyed at factored_at: the next call's point
            for b, (spd, _, _) in enumerate(kernel.blocks):
                res = results[b]
                if isinstance(res, EstimationResult) and res.factored_at is not None:
                    t0 = time.perf_counter()
                    self._stores[b].take(res.factored_at, weights[b], spd)
                    self._stores[b].seconds += time.perf_counter() - t0

        if obs.enabled():
            reg = obs.metrics()
            reg.histogram("wls.estimate.seconds", solver="lu").observe(
                time.perf_counter() - t_start
            )
            done = [res for res in results if isinstance(res, EstimationResult)]
            reg.counter("wls.iterations_total", solver="lu").inc(
                sum(res.iterations for res in done)
            )
            reg.counter("wls.factorizations_total", solver="lu").inc(
                sum(res.factorizations for res in done)
            )
        return results


def estimate_state(
    net: Network, mset: MeasurementSet, **kwargs
) -> EstimationResult:
    """One-call WLS estimation (constructs a :class:`WlsEstimator`)."""
    return WlsEstimator(net, mset).estimate(**kwargs)
