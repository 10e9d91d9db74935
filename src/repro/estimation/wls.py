"""Weighted-least-squares state estimation (Gauss-Newton).

The estimator solves ``min_x (z - h(x))ᵀ W (z - h(x))`` over the polar state
``x = [Va; Vm]`` by iterating the normal equations (Abur & Expósito, ch. 2;
the paper's section IV-C).  The angle reference is handled by eliminating
the slack bus angle column unless the measurement set contains synchronized
PMU angles, in which case the state is fully determined and no column is
dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..grid.network import Network
from ..measurements.functions import MeasurementModel
from ..measurements.types import MeasType, MeasurementSet
from .results import EstimationResult
from .solvers import GainSolver, NormalEquations

__all__ = ["DIVERGED", "EstimationError", "WlsEstimator", "estimate_state"]

#: A frozen-gain block whose step norm (pu / rad) passes this is diverging:
#: its operator is too far from where the iteration runs to contract.
DIVERGED = 1e3


class EstimationError(RuntimeError):
    """Raised when the estimator cannot produce a solution."""


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
        member with one evaluation of h(x), one Jacobian fill and one gain
        assembly per iteration; a member that has finished leaves the
        evaluation — the fill, ``W H`` and ``Hᵀ W r`` run over the running
        members' entries and columns only (:meth:`JacobianStructure.split`).
        Every sum a member's solve takes is taken over the same terms in the
        same order, so each block's result is bit for bit the member's own
        :meth:`estimate`.
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
        operators: list | None = None,
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
        union block's Jacobian entries, ``W H`` and right-hand side are no
        longer computed and a replica is no longer evaluated (h(x) and the
        currents stay union-wide) — the iteration its own step norm falls
        below ``tol``
        (one value, or one per block), and keeps its own iteration count,
        step norms and ``converged`` flag; one that is underdetermined,
        whose gain does not factor or whose step is non-finite yields its
        :class:`EstimationError` in place of a result while the others
        carry on.  A replica on the network's own topology gives bit for
        bit what :meth:`estimate` gives for its ``x0`` / ``z``.

        *Frozen tail.*  Gauss-Newton on a problem with non-zero residuals
        ends in a linear tail, where the gain barely moves between
        iterations.  A block whose step — from a fresh factor — falls
        below ``√tol`` and below its previous step keeps that factor, and
        its later iterations evaluate the exact right-hand side ``HᵀW r``
        but assemble and factor no gain: the held operator is O(√tol) from
        the current gain, so it moves each later step by O(tol) and leaves
        the fixed point where it was.  A held block whose step stops
        contracting drops the factor and re-factors on its next iteration.
        ``factorizations`` on a result counts the iterations that did
        factor.

        ``operators`` turns the loop into the frozen-gain iteration of the
        condensed DSE Step 2: one factored
        :class:`~repro.estimation.solvers.SchurGainSolver` per block (a
        union's members, or a plain estimator's one problem) supplies the
        block's step from the exact right-hand side, so an iteration
        assembles and factors no gain.  Convergence is then linear, and a
        block whose step norm passes :data:`DIVERGED` stops unconverged
        (the caller owns the fallback).  Given and held operators are one
        mapping to the kernel (:meth:`NormalEquations.solve_blocks`).
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
        if operators is not None and (replicas or len(operators) != nb):
            raise ValueError("need one frozen operator per block, no replicas")
        tols = [tol] * nb if np.ndim(tol) == 0 else list(tol)
        if len(tols) != nb:
            raise ValueError(f"need one tol, or one per block ({nb})")

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
        # per-replica admittances only when some replica flips a branch;
        # otherwise the model's own operators serve every column
        adm = None
        if whatif:
            adm = model.admittance_stack(np.array(
                [net.br_status if s is None else s for s in status], dtype=float
            ))

        # The Jacobian is a data vector on the structure's fixed pattern
        # and never becomes a sparse matrix; the kernel works block by block.
        structure = model.jacobian_structure(self._keep)
        kernel = self._kernel()
        state_starts = [blk.states.start for blk in self._blocks]
        step_norms: list[list[float]] = [[] for _ in range(nb)]
        factorizations = [0] * nb
        # Frozen gain operators by block, one mapping for the kernel: the
        # caller's (a condensed round's, stopped at DIVERGED) and the
        # loop's own, a block's factor held through its linear tail.
        ops = {} if operators is None else dict(enumerate(operators))
        given = set(ops)
        roots = [float(np.sqrt(t)) for t in tols]

        def finish(b: int, converged: bool) -> None:
            blk = blocks[b]
            at = (active.index(b),) if replicas else ()
            rb = r[(blk.rows, *at)]
            wb = w[(blk.rows, *at)] if w.ndim == 2 else w[blk.rows]
            if replicas:    # a strided dot product sums in another order
                rb = rb.copy()
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
            )

        active = [b for b in range(nb) if results[b] is None]
        it = 0
        # Currents are evaluated once per state — initially, and after
        # every update — and serve both the residual there and the next
        # iteration's Jacobian; the final iteration's post-update residual
        # is the reported one.
        cur = model.currents(Vm, Va, adm)
        r = zz - model.h(Vm, Va, cur)
        while active and it < max_iter:
            it += 1
            # a union evaluates its running blocks only — the data vector
            # the kernel's union mode reads — and a finished block's entries
            # are never read again; replicas are whole rows
            data = structure.fill_data(Vm, Va, cur, adm, None if replicas else active)
            # a block either solves against a factor it holds, or factors
            # afresh and keeps that factor if its step comes out below √tol
            # and below its last one (hold: block → that bound)
            held, hold = set(), {}
            for b in active:
                if b in ops:
                    if b not in given:
                        held.add(b)
                    continue
                factorizations[b] += 1
                if step_norms[b]:
                    hold[b] = min(roots[b], step_norms[b][-1])
            try:
                # a stack goes to the kernel scenario by scenario, as rows
                # (.T of one state's vectors is the vectors)
                dx, errors = kernel.solve_blocks(
                    np.ascontiguousarray(data.T), w.T, r.T, active, ops, hold
                )
                dx = dx.T
            except Exception as exc:
                dx = np.zeros((self.n_states, *Vm.shape[1:]))
                errors = dict.fromkeys(active, exc)
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
                elif b in given and steps[b] > DIVERGED:
                    finish(b, False)
                else:
                    running.append(b)
            # a held factor lives while its block runs and contracts
            for b in [b for b in ops if b not in given]:
                if b not in running or (
                    b in held and step_norms[b][-1] >= step_norms[b][-2]
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

        if obs.enabled():
            reg = obs.metrics()
            solver = "lu" if operators is None else "schur"
            reg.histogram("wls.estimate.seconds", solver=solver).observe(
                time.perf_counter() - t_start
            )
            done = [res for res in results if isinstance(res, EstimationResult)]
            reg.counter("wls.iterations_total", solver=solver).inc(
                sum(res.iterations for res in done)
            )
            reg.counter("wls.factorizations_total", solver=solver).inc(
                sum(res.factorizations for res in done)
            )
        return results


def estimate_state(
    net: Network, mset: MeasurementSet, **kwargs
) -> EstimationResult:
    """One-call WLS estimation (constructs a :class:`WlsEstimator`)."""
    return WlsEstimator(net, mset).estimate(**kwargs)
