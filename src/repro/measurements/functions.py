"""Measurement functions h(x) and their sparse Jacobians.

``MeasurementModel`` evaluates the nonlinear states-to-measurements function
``z = h(x) + e`` of the paper's estimation model and its Jacobian
``H = dh/dx`` for a fixed measurement set.  The state is polar voltage
``x = [Va; Vm]`` over all buses; Jacobian columns are ordered angles first,
magnitudes second (the estimator handles reference-angle elimination).

All evaluation is vectorised per measurement type: bus-power rows come from
row slices of ``dS/dV``, branch-flow rows from ``dSf/dV``/``dSt/dV``, exactly
the MATPOWER derivative formulation.

There is one set of evaluators.  ``currents``, ``h`` and
``JacobianStructure.fill_data`` take one state, ``(n,)`` arrays, or a stack
of K scenario states ``(n, K)`` with the scenario axis *trailing*: a row
gather ``V[ir]`` or a product ``Ybus @ V`` is then the same call for both,
so the one-state path pays nothing for the stack and column k of a stacked
result is bit for bit the one-state result.  Scenarios that differ in
branch status share the model too: their admittances arrive as data
(``admittance_stack``) and re-value the operators on the base network's
patterns.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..grid.network import Network
from ..grid.powerflow import dsbus_dv
from ..grid.ybus import batch_branch_admittances, build_yf_yt, build_ybus
from .types import MeasType, MeasurementSet

__all__ = ["JacobianStructure", "MeasurementModel"]


def _union_with_terminal(
    Y: sp.csr_matrix, term: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-sorted union of Y's sparsity pattern with entries ``(l, term[l])``.

    Returns ``(rows, cols, vals)`` with one record per distinct position;
    ``vals`` holds Y's entry there (0 where only the terminal contributes).
    """
    nl = Y.shape[0]
    rows = np.concatenate(
        [np.repeat(np.arange(nl), np.diff(Y.indptr)), np.arange(nl)]
    )
    cols = np.concatenate([Y.indices.astype(np.int64), term.astype(np.int64)])
    vals = np.concatenate([Y.data, np.zeros(nl, dtype=Y.data.dtype)])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    grp = np.cumsum(first) - 1
    out_vals = np.zeros(int(grp[-1]) + 1 if len(grp) else 0, dtype=vals.dtype)
    np.add.at(out_vals, grp, vals)
    return rows[first], cols[first], out_vals


class JacobianStructure:
    """Precomputed sparsity pattern + fill recipe for the reduced Jacobian.

    The Jacobian's sparsity is fixed by the network topology and the
    measurement set; only its values depend on the state.  This class bakes
    the whole assembly — block stacking, canonical row order, reduced-column
    selection — into index arrays once, so each Gauss-Newton iteration only
    evaluates the per-entry derivative formulas (vectorised over the union
    patterns of Ybus/Yf/Yt) and scatters them into a CSC ``data`` array.

    Values match :meth:`MeasurementModel.jacobian` to floating-point
    round-off; the parity tests pin this down.
    """

    def __init__(self, model: "MeasurementModel", keep: np.ndarray | None = None):
        net, ms = model.net, model.mset
        n = net.n_bus
        self.model = model
        if keep is None:
            keep = np.arange(2 * n)
        keep = np.asarray(keep)
        if keep.dtype == bool:  # boolean mask → column indices
            keep = np.flatnonzero(keep)
        self.keep = np.asarray(keep, dtype=np.int64)
        self.n_rows = len(ms)
        self.n_cols = len(self.keep)
        self._bmaps: dict | None = None

        col_lut = -np.ones(2 * n, dtype=np.int64)
        col_lut[self.keep] = np.arange(self.n_cols)

        # -- entry lists: (row, col, source id, gather index, part id) -----
        # parts: 0 = const, 1 = real, 2 = imag
        e_rows: list[np.ndarray] = []
        e_cols: list[np.ndarray] = []
        e_src: list[np.ndarray] = []
        e_gidx: list[np.ndarray] = []
        e_part: list[np.ndarray] = []
        e_cval: list[np.ndarray] = []
        src_names: list[str] = []

        def add_entries(rows, cols, src, gidx, part, cval=None):
            e_rows.append(rows.astype(np.int64))
            e_cols.append(cols.astype(np.int64))
            e_src.append(np.full(len(rows), src, dtype=np.int16))
            e_gidx.append(gidx.astype(np.int64))
            e_part.append(np.full(len(rows), part, dtype=np.int8))
            e_cval.append(
                np.zeros(len(rows)) if cval is None else np.asarray(cval, float)
            )

        src_sizes: list[int] = []

        def src_id(name: str, size: int) -> int:
            if name not in src_names:
                src_names.append(name)
                src_sizes.append(size)
            return src_names.index(name)

        def add_block(mrows, el, urows, ucols, src_va, src_vm, part):
            """Entries for measurements ``mrows`` over union pattern rows
            ``el`` (dVa columns ``ucols`` and dVm columns ``n + ucols``)."""
            ptr = np.searchsorted(urows, np.arange(int(el.max()) + 2))
            counts = ptr[el + 1] - ptr[el]
            rows = np.repeat(mrows, counts)
            # ranges ptr[e]..ptr[e+1] of every element, back to back
            offset = np.cumsum(counts) - counts
            gidx = np.repeat(ptr[el] - offset, counts) + np.arange(counts.sum())
            cols = ucols[gidx]
            add_entries(rows, cols, src_id(src_va, len(urows)), gidx, part)
            add_entries(rows, cols + n, src_id(src_vm, len(urows)), gidx, part)

        # V_MAG / PMU_VA: constant identity entries.
        el = ms.elements(MeasType.V_MAG)
        if el.size:
            add_entries(
                ms.rows(MeasType.V_MAG), n + el, -1, np.zeros(len(el)), 0,
                cval=np.ones(len(el)),
            )
        el = ms.elements(MeasType.PMU_VA)
        if el.size:
            add_entries(
                ms.rows(MeasType.PMU_VA), el, -1, np.zeros(len(el)), 0,
                cval=np.ones(len(el)),
            )

        # Injections: union of Ybus pattern and the diagonal.
        self._need_inj = bool(
            ms.count(MeasType.P_INJ) or ms.count(MeasType.Q_INJ)
        )
        if self._need_inj:
            Yb = model.ybus.tocsr()
            ir, ic, iv = _union_with_terminal(Yb, np.arange(n))
            self._inj = (ir, ic, iv, ir == ic)
            el = ms.elements(MeasType.P_INJ)
            if el.size:
                add_block(ms.rows(MeasType.P_INJ), el, ir, ic,
                          "inj_dva", "inj_dvm", 1)
            el = ms.elements(MeasType.Q_INJ)
            if el.size:
                add_block(ms.rows(MeasType.Q_INJ), el, ir, ic,
                          "inj_dva", "inj_dvm", 2)

        # From-side flows: union of Yf pattern and the from-terminal column.
        self._need_f = bool(
            ms.count(MeasType.P_FLOW_F) or ms.count(MeasType.Q_FLOW_F)
        )
        if self._need_f:
            Yf = model.yf.tocsr()
            fr, fc, fv = _union_with_terminal(Yf, net.f)
            self._fside = (fr, fc, fv, fc == net.f[fr])
            el = ms.elements(MeasType.P_FLOW_F)
            if el.size:
                add_block(ms.rows(MeasType.P_FLOW_F), el, fr, fc,
                          "f_dva", "f_dvm", 1)
            el = ms.elements(MeasType.Q_FLOW_F)
            if el.size:
                add_block(ms.rows(MeasType.Q_FLOW_F), el, fr, fc,
                          "f_dva", "f_dvm", 2)

        # To-side flows.
        self._need_t = bool(
            ms.count(MeasType.P_FLOW_T) or ms.count(MeasType.Q_FLOW_T)
        )
        if self._need_t:
            Yt = model.yt.tocsr()
            tr, tc, tv = _union_with_terminal(Yt, net.t)
            self._tside = (tr, tc, tv, tc == net.t[tr])
            el = ms.elements(MeasType.P_FLOW_T)
            if el.size:
                add_block(ms.rows(MeasType.P_FLOW_T), el, tr, tc,
                          "t_dva", "t_dvm", 1)
            el = ms.elements(MeasType.Q_FLOW_T)
            if el.size:
                add_block(ms.rows(MeasType.Q_FLOW_T), el, tr, tc,
                          "t_dva", "t_dvm", 2)

        # Current magnitude (from side): plain Yf pattern, real-valued.
        self._need_imag = bool(ms.count(MeasType.I_MAG_F))
        if self._need_imag:
            Yf = model.yf.tocsr()
            nl = Yf.shape[0]
            mr = np.repeat(np.arange(nl), np.diff(Yf.indptr))
            self._imag = (mr, Yf.indices.astype(np.int64), Yf.data.copy())
            el = ms.elements(MeasType.I_MAG_F)
            add_block(ms.rows(MeasType.I_MAG_F), el, mr,
                      self._imag[1], "imag_da", "imag_dm", 1)

        # -- assemble the final CSC skeleton -------------------------------
        if e_rows:
            rows = np.concatenate(e_rows)
            cols = np.concatenate(e_cols)
            src = np.concatenate(e_src)
            gidx = np.concatenate(e_gidx)
            part = np.concatenate(e_part)
            cval = np.concatenate(e_cval)
            for parts in (e_rows, e_cols, e_src, e_gidx, e_part, e_cval):
                parts.clear()       # the pieces are large on a stacked model
        else:
            rows = cols = gidx = np.zeros(0, np.int64)
            src = np.zeros(0, np.int16)
            part = np.zeros(0, np.int8)
            cval = np.zeros(0)

        cols = col_lut[cols]
        mask = cols >= 0
        if not mask.all():
            rows, cols = rows[mask], cols[mask]
            src, gidx, part, cval = src[mask], gidx[mask], part[mask], cval[mask]
        n_entries = len(rows)

        skel = sp.coo_matrix(
            (np.arange(n_entries, dtype=float), (rows, cols)),
            shape=(self.n_rows, self.n_cols),
        ).tocsc()
        self._indices = skel.indices
        self._indptr = skel.indptr

        # Fill plan: every data entry's position in the concatenation of
        # the derivative sources (``src_names`` order; a complex source as
        # its real block then its imaginary block) and, last, the constant
        # entries.  One gather through it assembles the CSC ``data``.
        sizes = np.array(src_sizes, dtype=np.int64)
        is_complex = np.array([not name.startswith("imag") for name in src_names])
        base = np.concatenate([[0], np.cumsum(sizes * (1 + is_complex))])
        const = src == -1
        where = np.empty(n_entries, dtype=np.int64)
        where[const] = base[-1] + np.arange(np.count_nonzero(const))
        s_dyn = src[~const]
        where[~const] = (
            base[s_dyn] + gidx[~const] + (part[~const] == 2) * sizes[s_dyn]
        )
        self._sources = list(zip(src_names, is_complex.tolist()))
        self._source_at = base
        self._const = cval[const]
        self._fill_plan = where[skel.data.astype(np.int64)]
        # the patterns the sources are evaluated over, by the prefix of
        # their source names; each starts with its sorted row array
        self._patterns = {
            key: getattr(self, attr)
            for key, attr, need in (
                ("inj", "_inj", self._need_inj), ("f", "_fside", self._need_f),
                ("t", "_tside", self._need_t), ("imag", "_imag", self._need_imag),
            )
            if need
        }
        # one block until split(); then the blocks' pieces, and the last
        # restriction fill_data(parts=) used
        self._split: tuple | None = None
        self._restricted: tuple = (None, None)

    def split(self, buses: np.ndarray, branches: np.ndarray, states: np.ndarray) -> None:
        """Declare the model a disjoint union of blocks: block ``p`` owns
        buses ``buses[p]:buses[p + 1]``, branches and reduced columns
        likewise (boundaries from 0 to the totals).  A block's CSC entries,
        and its runs of the row-sorted patterns they are evaluated from,
        are then contiguous, which lets :meth:`fill_data` evaluate some
        blocks alone."""
        entry_at = self._indptr[states]
        n_parts = len(entry_at) - 1
        patterns = self._patterns
        keys = list(patterns)
        at = np.array([
            np.searchsorted(rows, buses if key == "inj" else branches)
            for key, (rows, *_) in patterns.items()
        ]).reshape(len(keys), n_parts + 1)
        # the concatenation _assemble gathers from is a run of regions —
        # each source's real part, its imaginary part, last the constants —
        # and each region a run of blocks
        base, starts, region_of = self._source_at, [], []
        for i, (name, is_complex) in enumerate(self._sources):
            size = (base[i + 1] - base[i]) // (1 + is_complex)
            for half in range(1 + is_complex):
                starts.append(base[i] + half * size)
                region_of.append(keys.index(name.split("_")[0]))
        starts = np.array(starts + [base[-1]])
        runs = np.vstack([at[region_of], np.zeros(n_parts + 1, dtype=np.int64)])
        # the run (region, block) of every entry's value: with some blocks
        # left out, the value moves down by the left-out runs before it
        region = np.searchsorted(starts, self._fill_plan, "right") - 1
        part = np.repeat(np.arange(n_parts), np.diff(entry_at))
        run_of = (region * n_parts + part).astype(np.int32)
        # the pattern arrays, pattern after pattern — (rows, cols, indicator
        # mask) as one integer array, and the operator values — with the
        # run of pattern k over block p as item k·n_parts + p
        lengths = at[:, -1]
        bounds = (at[:, :-1] + (np.cumsum(lengths) - lengths)[:, None]).ravel().tolist()
        bounds.append(int(lengths.sum()))
        ints = np.concatenate([
            np.stack([*p[:2], p[3] if len(p) == 4 else np.zeros_like(p[0])])
            for p in patterns.values()
        ], axis=1)
        values = np.concatenate([p[2] for p in patterns.values()])
        cut = entry_at.tolist()
        self._split = (
            n_parts, keys, np.diff(at, axis=1).tolist(), np.diff(runs, axis=1),
            [ints[:, a:b] for a, b in zip(bounds, bounds[1:])],
            [values[a:b] for a, b in zip(bounds, bounds[1:])],
            [self._fill_plan[a:b] for a, b in zip(cut, cut[1:])],
            [run_of[a:b] for a, b in zip(cut, cut[1:])],
        )
        self._restricted = (None, None)

    def _restriction(self, parts) -> tuple | None:
        """``(patterns, plan)`` for the blocks ``parts``: the pattern arrays
        over their runs, back to back, and where each of their entries sits
        in the concatenation of the sources evaluated on those — ``None``
        when ``parts`` is every block (one, unless :meth:`split`).  The last
        one is kept: a Gauss-Newton loop asks for the same blocks until one
        finishes."""
        n_parts = 1 if self._split is None else self._split[0]
        if parts is None or len(parts) == n_parts:
            return None
        if self._split is None:
            raise ValueError("fill_data(parts=) leaves blocks out only after split()")
        key = tuple(parts)
        if self._restricted[0] != key:
            n_parts, keys, pattern_runs, region_runs, ints, values, plan, run_of = (
                self._split
            )
            pieces = [k * n_parts + p for k in range(len(keys)) for p in key]
            ints = np.concatenate([ints[i] for i in pieces], axis=1)
            values = np.concatenate([values[i] for i in pieces])
            patterns, lo = {}, 0
            for name, runs in zip(keys, pattern_runs):
                hi = lo + sum(runs[p] for p in key)
                patterns[name] = (
                    ints[0, lo:hi], ints[1, lo:hi], values[lo:hi], ints[2, lo:hi]
                )
                lo = hi
            # each entry's place in the concatenation of the sources
            # evaluated on those patterns: its place in the whole one, less
            # the left-out runs before its run
            left_out = np.ones(n_parts, dtype=np.int64)
            left_out[list(key)] = 0
            before = np.zeros(region_runs.size + 1, dtype=np.int64)
            np.cumsum(region_runs * left_out, out=before[1:])
            self._restricted = (key, (
                patterns,
                np.concatenate([plan[p] for p in key])
                - np.take(before, np.concatenate([run_of[p] for p in key])),
            ))
        return self._restricted[1]

    def _assemble(self, src: dict, const: np.ndarray, plan: np.ndarray) -> np.ndarray:
        """The data entries (leading axis) from the evaluated derivative
        sources and the constant entries, through ``plan``."""
        parts = []
        for name, is_complex in self._sources:
            arr = src[name]
            parts.append(arr.real)
            if is_complex:
                parts.append(arr.imag)
        parts.append(const)
        return np.concatenate(parts)[plan]

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Stored entries in the assembled reduced Jacobian."""
        return len(self._fill_plan)

    @property
    def pattern(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """The fixed CSC pattern ``(indptr, indices, shape)`` that
        :meth:`fill_data` values live on."""
        return self._indptr, self._indices, (self.n_rows, self.n_cols)

    # ------------------------------------------------------------------
    def fill(self, Vm: np.ndarray, Va: np.ndarray) -> sp.csc_matrix:
        """Evaluate the reduced Jacobian at (Vm, Va) on the cached pattern."""
        return sp.csc_matrix(
            (self.fill_data(Vm, Va), self._indices, self._indptr),
            shape=(self.n_rows, self.n_cols),
        )

    def fill_data(
        self,
        Vm: np.ndarray,
        Va: np.ndarray,
        cur: tuple | None = None,
        adm: np.ndarray | None = None,
        parts=None,
    ) -> np.ndarray:
        """The reduced Jacobian's CSC ``data`` at (Vm, Va) — all a
        normal-equation kernel bound to :attr:`pattern` needs, so the
        Gauss-Newton loop builds no sparse matrix.

        A state of shape ``(n,)`` gives the data vector ``(nnz,)``; a stack
        ``(n, K)`` of K scenarios on this one pattern gives ``(nnz, K)``,
        column k bit for bit the vector of state k.  The scenario axis
        trails so that the row gathers (``V[ir]``) are the same call for
        both shapes; only the per-pattern constants differ, broadcasting as
        columns over a stack.  ``cur`` is the model's
        :meth:`~MeasurementModel.currents` at the same state, when the
        caller already evaluated them for ``h``; ``adm`` is a stack's
        per-scenario branch admittances
        (:meth:`~MeasurementModel.admittance_stack`), which re-value the
        operator entries on the patterns scenario by scenario.

        ``parts`` lists the blocks to evaluate (ascending) on a
        :meth:`split` model: the result is their entries alone, back to
        back — by the same elementwise formulas, so each block's run is bit
        for bit its slice of the whole vector.  A model that was not split
        is one block; leaving blocks out of it raises ``ValueError``.
        """
        model = self.model
        V, Ib, i_f, i_t = model.currents(Vm, Va, adm) if cur is None else cur
        vnorm = V / np.abs(V)
        stack = V.ndim == 2
        src: dict[str, np.ndarray] = {}
        restricted = self._restriction(parts)
        patterns = self._patterns if restricted is None else restricted[0]

        if self._need_inj:
            ir, ic, iv, idg = patterns["inj"]
            if stack:
                iv, idg = self._as_columns("inj", adm, iv, idg)
            Vr, Ibr = V[ir], Ib[ir]
            src["inj_dva"] = 1j * Vr * np.conj(idg * Ibr - iv * V[ic])
            src["inj_dvm"] = Vr * np.conj(iv) * np.conj(vnorm[ic]) + idg * (
                np.conj(Ibr) * vnorm[ir]
            )
        if self._need_f:
            fr, fc, fv, ift = patterns["f"]
            if stack:
                fv, ift = self._as_columns("f", adm, fv, ift)
            ci, vcv, Vc = np.conj(i_f[fr]), V[model.net.f[fr]] * np.conj(fv), V[fc]
            src["f_dva"] = 1j * (ci * (ift * Vc) - vcv * np.conj(Vc))
            src["f_dvm"] = vcv * np.conj(vnorm[fc]) + ci * (ift * vnorm[fc])
        if self._need_t:
            tr, tc, tv, itt = patterns["t"]
            if stack:
                tv, itt = self._as_columns("t", adm, tv, itt)
            ci, vcv, Vc = np.conj(i_t[tr]), V[model.net.t[tr]] * np.conj(tv), V[tc]
            src["t_dva"] = 1j * (ci * (itt * Vc) - vcv * np.conj(Vc))
            src["t_dvm"] = vcv * np.conj(vnorm[tc]) + ci * (itt * vnorm[tc])
        if self._need_imag:
            mr, mc, mv, *_ = patterns["imag"]
            if stack:
                (mv,) = self._as_columns("imag", adm, mv)
            mag = np.abs(i_f)
            scale = np.where(mag > 1e-9, 1.0 / np.maximum(mag, 1e-9), 0.0)
            w = np.conj(i_f) * scale
            wr = w[mr]
            src["imag_da"] = np.real(wr * (mv * (1j * V[mc])))
            src["imag_dm"] = np.real(wr * (mv * vnorm[mc]))

        const = self._const
        if stack:
            const = np.broadcast_to(const[:, None], (len(const), V.shape[1]))
        plan = self._fill_plan if restricted is None else restricted[1]
        return self._assemble(src, const, plan)

    def _as_columns(
        self, key: str, adm: np.ndarray | None, vals: np.ndarray, *masks: np.ndarray
    ) -> tuple:
        """Pattern ``key``'s operator values and indicator masks as columns,
        to broadcast over a stack's scenario axis — the values re-valued
        scenario by scenario when ``adm`` carries their branch admittances."""
        if adm is None:
            vals = vals[:, None]
        else:
            M, shunt = self._batch_maps()[key]
            vals = M @ adm if shunt is None else M @ adm + shunt[:, None]
        return (vals, *(m[:, None] for m in masks))

    def _batch_maps(self) -> dict:
        """Sparse maps from per-scenario admittances to pattern values.

        The union patterns (``_inj``/``_fside``/``_tside``/``_imag``) store
        the *base* operator values; per-scenario values on the identical
        pattern are ``M @ [yff; yft; ytf; ytt] (+ shunt)`` where ``M``
        scatters each branch's four admittance terms to its pattern
        positions and ``shunt`` carries the (topology-independent) shunt
        diagonal of the bus pattern.  Built once per structure; the
        searchsorted lookups rely on the patterns being row-major sorted,
        which ``_union_with_terminal`` guarantees.
        """
        if self._bmaps is not None:
            return self._bmaps
        net = self.model.net
        n, nl = net.n_bus, net.n_branch
        il = np.arange(nl)
        maps: dict[str, tuple[sp.csr_matrix, np.ndarray | None]] = {}

        def mapping(rows, cols, contribs, shunt=None):
            keys = rows.astype(np.int64) * n + cols.astype(np.int64)
            ne = len(keys)
            mr: list[np.ndarray] = []
            mc: list[np.ndarray] = []
            for kr, kc, block in contribs:
                k = kr.astype(np.int64) * n + kc.astype(np.int64)
                pos = np.searchsorted(keys, k)
                pos_c = np.minimum(pos, max(ne - 1, 0))
                if ne == 0 or not (
                    np.all(pos < ne) and np.array_equal(keys[pos_c], k)
                ):
                    raise AssertionError(
                        "batch pattern map: branch entry missing from pattern"
                    )
                mr.append(pos)
                mc.append(block * nl + il)
            M = sp.coo_matrix(
                (
                    np.ones(sum(len(x) for x in mr)),
                    (np.concatenate(mr), np.concatenate(mc)),
                ),
                shape=(ne, 4 * nl),
            ).tocsr()
            if shunt is None:
                return M, None
            c = np.zeros(ne, complex)
            b = np.arange(n, dtype=np.int64)
            c[np.searchsorted(keys, b * n + b)] = shunt
            return M, c

        f, t = net.f, net.t
        if self._need_inj:
            ir, ic, _, _ = self._inj
            maps["inj"] = mapping(
                ir, ic,
                [(f, f, 0), (f, t, 1), (t, f, 2), (t, t, 3)],
                shunt=net.Gs + 1j * net.Bs,
            )
        if self._need_f:
            fr, fc, _, _ = self._fside
            maps["f"] = mapping(fr, fc, [(il, f, 0), (il, t, 1)])
        if self._need_t:
            tr, tc, _, _ = self._tside
            maps["t"] = mapping(tr, tc, [(il, f, 2), (il, t, 3)])
        if self._need_imag:
            mr_, mc_, _ = self._imag
            maps["imag"] = mapping(mr_, mc_, [(il, f, 0), (il, t, 1)])
        self._bmaps = maps
        return maps


def _dsbr_dv(
    ybr: sp.csr_matrix, term: np.ndarray, V: np.ndarray, nl: int, n: int
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Branch complex-power derivatives for one branch end.

    ``ybr`` is Yf or Yt; ``term`` the terminal bus per branch (f or t).
    Returns ``(dS_dVa, dS_dVm)``, each ``nl x n``.
    """
    ibr = ybr @ V
    vnorm = V / np.abs(V)
    il = np.arange(nl)
    c_vterm = sp.coo_matrix((V[term], (il, term)), shape=(nl, n)).tocsr()
    c_vnorm_term = sp.coo_matrix((vnorm[term], (il, term)), shape=(nl, n)).tocsr()
    diag_ibr_conj = sp.diags(np.conj(ibr))
    diag_vterm = sp.diags(V[term])

    ds_dva = 1j * (diag_ibr_conj @ c_vterm - diag_vterm @ (ybr @ sp.diags(V)).conj())
    ds_dvm = diag_vterm @ (ybr @ sp.diags(vnorm)).conj() + diag_ibr_conj @ c_vnorm_term
    return ds_dva.tocsr(), ds_dvm.tocsr()


class MeasurementModel:
    """Evaluator for h(x) and H(x) over a fixed measurement set.

    Parameters
    ----------
    net:
        The network the measurements refer to (element indices must be valid
        bus/branch indices of this network).
    mset:
        The measurement set; its canonical row order defines the row order of
        ``h`` and ``jacobian`` output.
    """

    def __init__(self, net: Network, mset: MeasurementSet):
        self.net = net
        self.mset = mset
        self.ybus = build_ybus(net)
        self.yf, self.yt = build_yf_yt(net)
        self.n_state = 2 * net.n_bus
        self._jac_structs: dict[bytes | None, JacobianStructure] = {}
        self._incT: tuple[sp.csr_matrix, sp.csr_matrix] | None = None

        for t in MeasType:
            el = mset.elements(t)
            if not el.size:
                continue
            bound = net.n_bus if t.is_bus else net.n_branch
            if el.max() >= bound:
                raise ValueError(
                    f"{t.value} measurement references element {el.max()} "
                    f">= {bound}"
                )

        # Which currents the set needs, and the gather plan of h(x): every
        # row's position in the concatenated sources
        # [Vm | Va | Pbus | Qbus | Pf | Qf | |If| | Pt | Qt].
        has = {t: bool(mset.count(t)) for t in MeasType}
        self._cur_inj = has[MeasType.P_INJ] or has[MeasType.Q_INJ]
        self._cur_f = (
            has[MeasType.P_FLOW_F] or has[MeasType.Q_FLOW_F]
            or has[MeasType.I_MAG_F]
        )
        self._cur_t = has[MeasType.P_FLOW_T] or has[MeasType.Q_FLOW_T]
        n, nl = net.n_bus, net.n_branch
        base = 2 * n
        plan = np.empty(len(mset), dtype=np.int64)

        def place(t: MeasType, offset: int) -> None:
            plan[mset.rows(t)] = offset + mset.elements(t)

        place(MeasType.V_MAG, 0)
        place(MeasType.PMU_VA, n)
        if self._cur_inj:
            place(MeasType.P_INJ, base)
            place(MeasType.Q_INJ, base + n)
            base += 2 * n
        if self._cur_f:
            place(MeasType.P_FLOW_F, base)
            place(MeasType.Q_FLOW_F, base + nl)
            place(MeasType.I_MAG_F, base + 2 * nl)
            base += 3 * nl
        if self._cur_t:
            place(MeasType.P_FLOW_T, base)
            place(MeasType.Q_FLOW_T, base + nl)
        self._h_plan = plan

    # ------------------------------------------------------------------
    # Evaluation.  A state is ``(n,)`` arrays — or ``(n, K)`` stacks of K
    # scenarios, the scenario axis trailing: every row gather and sparse
    # product below is then the same call for both shapes, and column k of
    # a stacked result is bit for bit the result at state k.
    # ------------------------------------------------------------------
    def admittance_stack(self, status: np.ndarray) -> np.ndarray:
        """Branch admittances re-valued for K branch-status rows
        ``(K, n_branch)``: the ``(4·n_branch, K)`` stack
        ``[yff; yft; ytf; ytt]``, one column per scenario, that
        :meth:`currents` and :meth:`JacobianStructure.fill_data` take as
        ``adm``.  This is what lets K what-if scenarios share one model:
        the patterns are the base network's, only these values differ."""
        a = batch_branch_admittances(self.net, status)
        return np.concatenate([a.yff, a.yft, a.ytf, a.ytt])

    def currents(
        self, Vm: np.ndarray, Va: np.ndarray, adm: np.ndarray | None = None
    ) -> tuple:
        """Bus voltages and the currents this measurement set needs at
        (Vm, Va): ``(V, Ybus@V, Yf@V, Yt@V)`` with ``None`` for a product
        no measurement uses.  :meth:`h` and
        :meth:`JacobianStructure.fill_data` both start from these, so a
        Gauss-Newton loop evaluates them once per state and hands them to
        both.  With ``adm`` (:meth:`admittance_stack`, states ``(n, K)``)
        column k flows through scenario k's admittances instead of the
        base operators."""
        V = Vm * np.exp(1j * Va)
        if adm is None:
            return (
                V,
                self.ybus @ V if self._cur_inj else None,
                self.yf @ V if self._cur_f else None,
                self.yt @ V if self._cur_t else None,
            )
        net = self.net
        if V.shape != (net.n_bus, adm.shape[1]):
            raise ValueError(
                f"states {V.shape} do not pair with admittances {adm.shape}"
            )
        yff, yft, ytf, ytt = adm.reshape(4, net.n_branch, -1)
        Vf, Vt = V[net.f], V[net.t]
        i_f = yff * Vf + yft * Vt
        i_t = ytf * Vf + ytt * Vt
        Ib = None
        if self._cur_inj:
            cfT, ctT = self._incidence()
            Ib = cfT @ i_f + ctT @ i_t + (net.Gs + 1j * net.Bs)[:, None] * V
        return V, Ib, i_f if self._cur_f else None, i_t if self._cur_t else None

    def _incidence(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Transposed branch incidence one-hots ``(CfT, CtT)``, each
        ``n_bus x n_branch``, for accumulating branch currents to buses."""
        if self._incT is None:
            net = self.net
            nl, n = net.n_branch, net.n_bus
            il = np.arange(nl)
            ones = np.ones(nl)
            cfT = sp.coo_matrix((ones, (net.f, il)), shape=(n, nl)).tocsr()
            ctT = sp.coo_matrix((ones, (net.t, il)), shape=(n, nl)).tocsr()
            self._incT = (cfT, ctT)
        return self._incT

    def h(
        self, Vm: np.ndarray, Va: np.ndarray, cur: tuple | None = None
    ) -> np.ndarray:
        """Evaluate the measurement function at state (Vm, Va) — ``(m,)``,
        or ``(m, K)`` for a stack; ``cur`` is :meth:`currents` at that
        state when already evaluated (and the way a stack's per-scenario
        admittances come in)."""
        net = self.net
        V, Ib, i_f, i_t = self.currents(Vm, Va) if cur is None else cur
        parts = [Vm, Va]
        if Ib is not None:
            s = V * np.conj(Ib)
            parts += [s.real, s.imag]
        if i_f is not None:
            s = V[net.f] * np.conj(i_f)
            parts += [s.real, s.imag, np.abs(i_f)]
        if i_t is not None:
            s = V[net.t] * np.conj(i_t)
            parts += [s.real, s.imag]
        return np.concatenate(parts)[self._h_plan]

    # ------------------------------------------------------------------
    def jacobian(self, Vm: np.ndarray, Va: np.ndarray) -> sp.csr_matrix:
        """Sparse Jacobian H = dh/d[Va; Vm] at state (Vm, Va).

        Shape ``(len(mset), 2*n_bus)``; rows in canonical measurement order,
        columns ``[Va_0..Va_{n-1}, Vm_0..Vm_{n-1}]``.
        """
        net, ms = self.net, self.mset
        n, nl = net.n_bus, net.n_branch
        V = Vm * np.exp(1j * Va)
        blocks: list[sp.spmatrix] = []

        def rows_for(el: np.ndarray, da: sp.spmatrix, dm: sp.spmatrix) -> sp.spmatrix:
            return sp.hstack([da.tocsr()[el], dm.tocsr()[el]], format="csr")

        # V_MAG: dVm/dVm = identity rows.
        el = ms.elements(MeasType.V_MAG)
        if el.size:
            data = np.ones(len(el))
            blocks.append(
                sp.coo_matrix(
                    (data, (np.arange(len(el)), n + el)), shape=(len(el), 2 * n)
                )
            )
        # PMU_VA: dVa/dVa = identity rows.
        el = ms.elements(MeasType.PMU_VA)
        if el.size:
            data = np.ones(len(el))
            blocks.append(
                sp.coo_matrix((data, (np.arange(len(el)), el)), shape=(len(el), 2 * n))
            )

        # Injections.
        need_inj = ms.count(MeasType.P_INJ) or ms.count(MeasType.Q_INJ)
        if need_inj:
            ds_dva, ds_dvm = dsbus_dv(self.ybus, V)
            el = ms.elements(MeasType.P_INJ)
            if el.size:
                blocks.append(rows_for(el, ds_dva.real, ds_dvm.real))
            el = ms.elements(MeasType.Q_INJ)
            if el.size:
                blocks.append(rows_for(el, ds_dva.imag, ds_dvm.imag))

        # From-side flows and current magnitude.
        need_f = (
            ms.count(MeasType.P_FLOW_F)
            or ms.count(MeasType.Q_FLOW_F)
            or ms.count(MeasType.I_MAG_F)
        )
        if need_f:
            dsf_dva, dsf_dvm = _dsbr_dv(self.yf, net.f, V, nl, n)
            el = ms.elements(MeasType.P_FLOW_F)
            if el.size:
                blocks.append(rows_for(el, dsf_dva.real, dsf_dvm.real))
            el = ms.elements(MeasType.Q_FLOW_F)
            if el.size:
                blocks.append(rows_for(el, dsf_dva.imag, dsf_dvm.imag))

        # To-side flows.
        if ms.count(MeasType.P_FLOW_T) or ms.count(MeasType.Q_FLOW_T):
            dst_dva, dst_dvm = _dsbr_dv(self.yt, net.t, V, nl, n)
            el = ms.elements(MeasType.P_FLOW_T)
            if el.size:
                blocks.append(rows_for(el, dst_dva.real, dst_dvm.real))
            el = ms.elements(MeasType.Q_FLOW_T)
            if el.size:
                blocks.append(rows_for(el, dst_dva.imag, dst_dvm.imag))

        # Current magnitude (from side): d|I|/dx = Re(conj(I)/|I| dI/dx).
        el = ms.elements(MeasType.I_MAG_F)
        if el.size:
            i_f = self.yf @ V
            dif_dva = self.yf @ sp.diags(1j * V)
            dif_dvm = self.yf @ sp.diags(V / np.abs(V))
            mag = np.abs(i_f)
            # Guard dark branches: |I| ~ 0 has an undefined gradient; use 0.
            scale = np.where(mag > 1e-9, 1.0 / np.maximum(mag, 1e-9), 0.0)
            w = sp.diags(np.conj(i_f) * scale)
            da = (w @ dif_dva).real
            dm = (w @ dif_dvm).real
            blocks.append(rows_for(el, da, dm))

        if not blocks:
            return sp.csr_matrix((0, 2 * n))
        return sp.vstack(blocks, format="csr")

    # ------------------------------------------------------------------
    def jacobian_structure(self, keep: np.ndarray | None = None) -> JacobianStructure:
        """The cached fill recipe for the (column-reduced) Jacobian.

        ``keep`` selects state columns (e.g. reference-angle elimination);
        structures are cached per distinct ``keep`` selection, so repeated
        Gauss-Newton iterations share one precomputed pattern.
        """
        if keep is not None:
            keep = np.asarray(keep)
            if keep.dtype == bool:
                keep = np.flatnonzero(keep)
        key = None if keep is None else np.asarray(keep, np.int64).tobytes()
        st = self._jac_structs.get(key)
        if st is None:
            st = JacobianStructure(self, keep)
            self._jac_structs[key] = st
        return st

    def jacobian_reduced(
        self, Vm: np.ndarray, Va: np.ndarray, keep: np.ndarray | None = None
    ) -> sp.csc_matrix:
        """Reduced Jacobian via the cached structure (fast path).

        Equivalent to ``jacobian(Vm, Va).tocsc()[:, keep]`` up to
        floating-point round-off, without re-deriving the sparsity pattern
        or re-slicing columns on every call.
        """
        return self.jacobian_structure(keep).fill(Vm, Va)

    # ------------------------------------------------------------------
    def residual(self, z: np.ndarray, Vm: np.ndarray, Va: np.ndarray) -> np.ndarray:
        """Measurement residual ``z - h(x)``."""
        return z - self.h(Vm, Va)
