"""Normal-equation solvers for the Gauss-Newton WLS step.

Each Gauss-Newton iteration solves ``(Hᵀ W H) dx = Hᵀ W r`` with the gain
matrix ``G = Hᵀ W H`` symmetric positive definite for observable systems,
by direct factorisation of the gain.  (The paper's preconditioned conjugate
gradient is :func:`repro.estimation.pcg.pcg_solve`, a solver of its own.)

The Jacobian's sparsity is fixed by topology and measurement placement, so
the gain matrix's is too.  :class:`NormalEquations` is the one kernel every
direct path shares (:class:`GainSolver`, :class:`SchurGainSolver`,
:func:`build_gain`, the estimator's Gauss-Newton loop): a symbolic pass per
Jacobian pattern builds the product map of ``G``'s lower triangle, after
which every solve is numeric-only — gather, multiply and segment-sum the
Jacobian's CSC ``data`` into the fixed gain pattern, then factor.  Gains of
order up to :data:`DENSE_MAX_STATES` (every DSE subsystem) go through dense
LAPACK Cholesky; larger ones through SuperLU over the fixed pattern with a
fill-reducing ordering computed once.  The kernel keeps no numeric history:
a step is a function of (pattern, data, weights, residual) alone, so cold
and warm solvers — and therefore serial, thread-pool and process-pool runs —
agree bit for bit.  Independent problems share one kernel as *blocks*
(:meth:`NormalEquations.solve_blocks`), in either of two stackings: different
problems side by side (:meth:`NormalEquations.stacked` — one assembly over
the block-diagonal Jacobian, one factor per diagonal block), or K same-pattern
problems as the rows of a ``(K, nnz)`` data stack (one vectorised assembly,
the one factor used K times).  Either way a block's step is bit for bit that
of the block solved alone, and a block that fails does so alone.  A block may
instead be solved against a frozen operator its caller holds — a condensed
Schur operator, or a factor the kernel kept from an earlier call
(:class:`_HeldFactor`) — in which case it is neither assembled nor factored.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs, dpptrs

__all__ = [
    "DENSE_MAX_STATES",
    "GainSolveError",
    "GainSolver",
    "NormalEquations",
    "SchurGainSolver",
    "build_gain",
    "solve_normal_equations",
]

#: Largest gain order factored by dense Cholesky; above it the fixed pattern
#: goes to SuperLU.  Chosen from the crossover measured by
#: ``benchmarks/bench_gain_crossover.py`` (table in ``docs/algorithms.md``).
DENSE_MAX_STATES = 400

#: Most products of the gain's product map assembled in one pass (two
#: float64 temporaries of this length: 1 MB).
PRODUCT_CHUNK = 65536


class GainSolveError(RuntimeError):
    """Raised when a normal-equation solve fails (singular / not SPD)."""


def _runs(starts: np.ndarray, n_products: int, limit: int) -> list[tuple]:
    """The segments beginning at ``starts`` (``n_products`` products in
    all) in runs of whole segments of at most ``limit`` products, one
    segment at least: ``(first segment, end segment, first product, end
    product)`` per run."""
    if not len(starts):
        return []
    if n_products <= limit:
        return [(0, len(starts), 0, n_products)]
    ends = np.append(starts[1:], n_products)
    runs, h0 = [], 0
    while h0 < len(starts):
        p0 = int(starts[h0])
        h1 = max(h0 + 1, int(np.searchsorted(ends, p0 + limit, "right")))
        runs.append((h0, h1, p0, int(ends[h1 - 1])))
        h0 = h1
    return runs


def _bucket_starts(idx: np.ndarray, n: int) -> np.ndarray:
    """Start offsets (length ``n + 1``) of the ``n`` buckets ``idx`` sorts
    into — the ``indptr`` of a compressed sparse layout."""
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(idx, minlength=n), out=starts[1:])
    return starts


class _SpdFactor:
    """Factorisation of an SPD matrix whose values arrive on a fixed pattern.

    The pattern is the matrix's lower triangle as sorted coordinates
    ``(rows, cols)`` in CSC order.  :meth:`factor` takes the values on that
    pattern; :meth:`solve` back-substitutes (vector or stacked columns).
    Dense mode scatters into an ``n × n`` block of its own, refilled and
    factored in place by LAPACK ``dpotrf`` on every call; sparse mode
    expands to the full symmetric pattern, permutes columns by the COLAMD
    ordering SuperLU computes for the pattern on first use, and refactors
    numerically in that (NATURAL) order from then on.  Holds one
    factorisation at a time: an instance has a single owner.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        self.n = n
        self.rows, self.cols = rows, cols
        self.dense = n <= DENSE_MAX_STATES
        # column-major flat positions of the lower triangle in the dense block
        self._flat = cols * n + rows if self.dense else None
        self._full: tuple | None = None
        self._permuted: tuple | None = None
        self._block: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        self.lu = None

    def twin(self) -> "_SpdFactor":
        """A second factor of the same pattern: shares the symbolic index
        arrays (never written after construction), owns its numeric state."""
        other = copy.copy(self)
        other._permuted = other._block = other._chol = other.lu = None
        return other

    # -- symbolic --------------------------------------------------------
    def _full_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full symmetric CSC pattern ``(indptr, indices, src)`` with
        ``src`` mapping each entry to its lower-triangle value."""
        if self._full is None:
            strict = np.flatnonzero(self.rows != self.cols)
            r = np.concatenate([self.rows, self.cols[strict]])
            c = np.concatenate([self.cols, self.rows[strict]])
            src = np.concatenate([np.arange(len(self.rows)), strict])
            order = np.lexsort((r, c))
            self._full = (
                _bucket_starts(c, self.n).astype(np.int32),
                r[order].astype(np.int32),
                src[order].astype(np.int32),
            )
        return self._full

    def matrix(self, values: np.ndarray) -> sp.csc_matrix:
        """The full symmetric matrix as CSC (structural zeros kept)."""
        indptr, indices, src = self._full_pattern()
        return sp.csc_matrix((values[src], indices, indptr), shape=(self.n, self.n))

    def _analyse(self, values: np.ndarray) -> tuple:
        """Order the pattern once: SuperLU's own COLAMD analysis of the
        matrix gives ``perm_c``; column ``j`` of the permuted matrix is
        column ``argsort(perm_c)[j]`` of the original."""
        G = self.matrix(values)
        order = np.argsort(spla.splu(G).perm_c)
        indptr, indices, src = self._full_pattern()
        counts = np.diff(indptr)[order]
        p_indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(counts, out=p_indptr[1:])
        take = np.repeat(indptr[order] - p_indptr[:-1], counts) + np.arange(len(src))
        carrier = sp.csc_matrix(
            (np.zeros(len(src)), indices[take], p_indptr), shape=G.shape
        )
        return carrier, src[take], order

    # -- numeric ---------------------------------------------------------
    def factor(self, values: np.ndarray) -> None:
        if self.dense:
            # one buffer per factor, not one per call: held factors outlive
            # the call that made them, and a fresh n × n block per call
            # left the heap fragmented around them (+3 MB peak RSS on a
            # two-thread replica service)
            if self._block is None:
                self._block = np.empty(self.n * self.n)
            block, self._chol = self._block, None
            block.fill(0.0)         # the last factor's fill-in is not zero
            block[self._flat] = values
            # Fortran view of the column-major buffer: factored in place
            c, info = dpotrf(
                block.reshape(self.n, self.n).T, lower=1, overwrite_a=1, clean=0
            )
            if info != 0:
                raise GainSolveError(
                    f"gain matrix is not positive definite (dpotrf info={info})"
                )
            self._chol = c
            return
        try:
            if self._permuted is None:
                self._permuted = self._analyse(values)
            carrier, src, _ = self._permuted
            np.take(values, src, out=carrier.data)
            self.lu = spla.splu(carrier, permc_spec="NATURAL")
        except RuntimeError as exc:
            raise GainSolveError(f"gain matrix is singular: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.dense:
            return dpotrs(self._chol, b, lower=1)[0]
        y = self.lu.solve(b)
        x = np.empty_like(y)
        x[self._permuted[2]] = y
        return x

    def quadratic_diagonal(self, B: sp.spmatrix) -> np.ndarray:
        """``diag(B G⁻¹ Bᵀ)`` for the factored ``G``: one multi-right-hand-
        side solve per 256 rows of the sparse ``B``, so nothing larger than
        ``n × 256`` is ever dense."""
        B = B.tocsr()
        out = np.empty(B.shape[0])
        for lo in range(0, len(out), 256):
            rhs = B[lo : lo + 256].toarray().T
            out[lo : lo + 256] = np.einsum("ij,ij->j", rhs, self.solve(rhs))
        return out

    def lower_packed(self) -> np.ndarray:
        """The dense Cholesky factor's lower triangle, packed column by
        column (LAPACK ``'L'`` packed storage): half the factor's bytes."""
        if self._lower is None:
            self._lower = np.tri(self.n, dtype=bool).ravel("F")
        return self._chol.ravel("F")[self._lower]


class _HeldFactor:
    """A gain factor kept past the solve that made it, as a frozen operator.

    The Gauss-Newton loop holds a block's factor through the block's linear
    tail (:meth:`NormalEquations.solve_blocks`' ``hold``).  A dense factor is
    held as its packed lower triangle and solved with ``dpptrs``; a sparse
    one keeps the SuperLU object its factorisation created, with the column
    order.  Every path holds this one form — a union block, a plain
    estimator, a replica of a stack — so a held block's steps are the same
    bits however the block was stacked.
    """

    def __init__(self, spd: _SpdFactor):
        self.n = spd.n
        if spd.dense:
            self._packed, self._lu, self._order = spd.lower_packed(), None, None
        else:
            self._packed, self._lu, self._order = None, spd.lu, spd._permuted[2]

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return dpptrs(self.n, self._packed, b, lower=1)[0]
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b)
        return x


class NormalEquations:
    """Numeric-only normal equations over one fixed Jacobian CSC pattern.

    Construction is the symbolic pass (fully vectorised): every pair of
    entries sharing a Jacobian row contributes one product to an entry of
    the gain's lower triangle; pairs are sorted by target entry once, so
    the numeric pass is two gathers, a multiply and a segmented sum.  The
    ``int32`` maps cost 8 bytes per product.

    ``data`` arguments are the Jacobian's CSC ``data`` vector on the
    pattern — or a ``(K, nnz)`` stack of K same-pattern Jacobians, in which
    case every output gains a leading axis of length K.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, shape: tuple):
        m, n = shape
        self.indptr, self.indices, self.shape = indptr, indices, (m, n)
        nnz = len(indices)
        col_of = np.repeat(np.arange(n), np.diff(indptr))
        # row-major view of the CSC entries: a stable sort by row keeps the
        # columns of a row ascending
        order = np.argsort(indices, kind="stable")
        row_of = indices[order]
        row_start = _bucket_starts(indices, m)
        # entry e (row-major) pairs with the entries at or before it in its
        # row, i.e. with columns <= its own: the lower triangle
        n_pairs = np.arange(nnz) - row_start[row_of] + 1
        pair_start = np.cumsum(n_pairs) - n_pairs
        left = np.repeat(np.arange(nnz), n_pairs)
        right = row_start[row_of[left]] + (
            np.arange(len(left)) - pair_start[left]
        )
        a, b = order[left], order[right]
        key = col_of[b] * n + col_of[a]          # CSC order of (row, col)
        by_target = np.argsort(key, kind="stable")
        key = key[by_target]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        self._a = a[by_target].astype(np.int32)
        self._b = b[by_target].astype(np.int32)
        self._starts = np.flatnonzero(first)
        # Gain entries g0:g1 are the segment sums, at ``starts``, of
        # data[e0:e1][a] * wdata[e0:e1][b].  A long map is walked in runs
        # of whole entries of at most PRODUCT_CHUNK products, which keeps
        # the temporaries of a system-wide assembly cache-sized.
        self._chunks = []
        for g0, g1, p0, p1 in _runs(self._starts, len(self._a), PRODUCT_CHUNK):
            self._chunks.append((
                g0, g1, 0, nnz, self._a[p0:p1], self._b[p0:p1],
                self._starts[g0:g1] - p0 if p0 else self._starts[g0:g1],
            ))
        target = key[self._starts]
        self._n_gain = len(target)
        self.spd = _SpdFactor(target % n, target // n, n)
        # diagonal blocks (factor, state slice, gain-entry slice) and the
        # product-map chunks each block's gain entries come from: one here
        self._parts = [(self.spd, slice(0, n), slice(0, len(target)))]
        self._part_chunks = [self._chunks]
        # right-hand side: column sums, skipping structurally empty columns
        self._rhs_cols = np.flatnonzero(np.diff(indptr))
        self._rhs_starts = indptr[self._rhs_cols]
        # where each diagonal block's CSC entries start (one block here)
        self._entry_at = [0, nnz]

    @classmethod
    def stacked(
        cls,
        members: list["NormalEquations"],
        rows: list[np.ndarray],
        indptr: np.ndarray,
        indices: np.ndarray,
        shape: tuple,
    ) -> "NormalEquations":
        """The kernel of a block-diagonal Jacobian, composed from the
        kernels of its diagonal blocks without a symbolic pass of its own.

        ``(indptr, indices, shape)`` is the stacked CSC pattern: member
        ``b``'s columns follow member ``b - 1``'s and its row ``i`` sits at
        stacked row ``rows[b][i]`` (increasing in ``i``).  Member ``b``'s
        entries are then one contiguous run of the stacked ``data`` vector
        in the member's own order, so the member's product map applies to
        that run as it is (the maps are borrowed, not copied) and its
        right-hand-side sums with constant offsets: every gain entry is
        summed from the same products in the same order as in the member —
        each block's step is bit for bit the member's.  The gain is block
        diagonal by construction; each block keeps a factor of its own
        (dense below :data:`DENSE_MAX_STATES`), so a block can be skipped
        or fail alone (:meth:`solve_blocks`).
        """
        self = cls.__new__(cls)
        self.indptr, self.indices, self.shape = indptr, indices, tuple(shape)

        def starts(sizes: list[int]) -> np.ndarray:
            return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])

        entry = starts([len(k.indices) for k in members])   # CSC entries
        col = starts([k.shape[1] for k in members])         # states
        seg = starts([k._n_gain for k in members])          # gain entries
        if (
            tuple(shape) != (sum(k.shape[0] for k in members), col[-1])
            or not np.array_equal(
                indptr[1:],
                np.concatenate([k.indptr[1:] + entry[b] for b, k in enumerate(members)]),
            )
            or not np.array_equal(
                indices,
                np.concatenate([rows[b][k.indices] for b, k in enumerate(members)]),
            )
        ):
            raise ValueError("stacked pattern is not the members' block diagonal")

        # the members' product maps are borrowed, not copied: a member's
        # chunks apply to its own run of the data vector as they are
        self._part_chunks = [
            [
                (
                    int(seg[b]) + g0, int(seg[b]) + g1,
                    int(entry[b]) + e0, int(entry[b]) + e1,
                    a_, b_, starts_,
                )
                for g0, g1, e0, e1, a_, b_, starts_ in k._chunks
            ]
            for b, k in enumerate(members)
        ]
        self._chunks = [c for chunks in self._part_chunks for c in chunks]
        self._n_gain = int(seg[-1])
        self._rhs_cols = np.concatenate(
            [k._rhs_cols + col[b] for b, k in enumerate(members)]
        )
        self._rhs_starts = np.concatenate(
            [k._rhs_starts + entry[b] for b, k in enumerate(members)]
        )
        self._entry_at = entry.tolist()
        # per block: its entries' rows, its right-hand-side columns and
        # where their sums start among its own entries — the pieces of a
        # restriction to some blocks (the last one kept)
        rhs_at = np.searchsorted(self._rhs_cols, col)
        self._split = (
            np.diff(entry).tolist(),
            np.diff(rhs_at).tolist(),
            np.split(indices, entry[1:-1]),
            np.split(self._rhs_cols, rhs_at[1:-1]),
            np.split(np.concatenate([k._rhs_starts for k in members]), rhs_at[1:-1]),
        )
        self._restricted = (None, None)
        self.spd = None     # no single factor: the blocks own theirs
        self._parts = [
            (
                k.spd.twin(),
                slice(int(col[b]), int(col[b + 1])),
                slice(int(seg[b]), int(seg[b + 1])),
            )
            for b, k in enumerate(members)
        ]
        return self

    @property
    def blocks(self) -> list[tuple]:
        """``(factor, (first state, end), (first gain entry, end))`` of every
        diagonal block."""
        return [
            (spd, (at.start, at.stop), (g.start, g.stop))
            for spd, at, g in self._parts
        ]

    def matches(self, indptr: np.ndarray, indices: np.ndarray, shape: tuple) -> bool:
        """True when this kernel was built for exactly this CSC pattern."""
        return self.shape == tuple(shape) and (
            (indptr is self.indptr and indices is self.indices)
            or (
                np.array_equal(indptr, self.indptr)
                and np.array_equal(indices, self.indices)
            )
        )

    @classmethod
    def cached(cls, kernel, indptr, indices, shape) -> "NormalEquations":
        """``kernel`` if it serves this pattern, else a fresh one."""
        if kernel is not None and kernel.matches(indptr, indices, shape):
            return kernel
        return cls(indptr, indices, shape)

    # ------------------------------------------------------------------
    def _layout(self, packed=None) -> tuple:
        """``(rows, cols, starts, at)`` of a ``data`` vector holding the
        diagonal blocks ``packed`` (ascending) back to back — by default,
        or when ``packed`` is every block, the whole pattern: each entry's
        row, the right-hand-side columns and where each column's sum starts
        in ``data``, and where each block's entries start.  A restriction
        is kept until other blocks are asked for: a Gauss-Newton loop asks
        for the same ones until one finishes."""
        if packed is None or len(packed) == len(self._parts):
            return self.indices, self._rhs_cols, self._rhs_starts, self._entry_at
        if len(self._parts) == 1:
            raise ValueError("a one-block kernel has no blocks to leave out")
        key = tuple(packed)
        if self._restricted[0] != key:
            sizes, n_cols, rows, cols, starts = self._split
            at, end = [0] * len(self._parts), 0
            for p in key:
                at[p], end = end, end + sizes[p]
            self._restricted = (key, (
                np.concatenate([rows[p] for p in key]),
                np.concatenate([cols[p] for p in key]),
                np.concatenate([starts[p] for p in key])
                + np.repeat([at[p] for p in key], [n_cols[p] for p in key]),
                at,
            ))
        return self._restricted[1]

    def weighted(self, data, weights, packed=None):
        """``W H`` on the pattern: the operand :meth:`gain` and :meth:`rhs`
        share.  ``weights`` is one vector, or one row per row of a ``data``
        stack.  With ``packed`` (ascending), ``data`` holds those diagonal
        blocks' entries back to back (:meth:`JacobianStructure.fill_data`'s
        ``parts``), and so does the result."""
        rows = self._layout(packed)[0]
        if data.shape[-1] != len(rows):
            raise ValueError(
                f"data holds {data.shape[-1]} entries, the blocks "
                f"{'all' if packed is None else list(packed)} hold {len(rows)}"
            )
        return data * np.take(weights, rows, axis=-1)

    def gain(self, data, wdata, parts=None, packed=None):
        """Lower-triangle values of ``G = Hᵀ (W H)`` on the fixed pattern;
        with ``parts``, of those diagonal blocks only (every other entry is
        left unset).  ``data`` and ``wdata`` hold the blocks ``packed``
        back to back (:meth:`weighted`'s ``packed``; by default the whole
        pattern), which must include ``parts``."""
        out = np.empty(data.shape[:-1] + (self._n_gain,))
        if parts is None:
            chunks = self._chunks
        else:
            at = self._layout(packed)[3]
            chunks = [
                (g0, g1, e0 + d, e1 + d, a, b, s)
                for p in parts
                for d in [at[p] - self._entry_at[p]]
                for g0, g1, e0, e1, a, b, s in self._part_chunks[p]
            ]
        # a stack of K Jacobians multiplies every temporary by K: its
        # chunks are walked in runs of PRODUCT_CHUNK / K products
        limit = PRODUCT_CHUNK // max(1, data.size // max(1, data.shape[-1]))
        for g0, g1, e0, e1, a, b, starts in chunks:
            for h0, h1, p0, p1 in _runs(starts, len(a), limit):
                prod = np.take(data[..., e0:e1], a[p0:p1], axis=-1)
                prod *= np.take(wdata[..., e0:e1], b[p0:p1], axis=-1)
                out[..., g0 + h0 : g0 + h1] = np.add.reduceat(
                    prod, starts[h0:h1] - p0 if p0 else starts[h0:h1], axis=-1
                )
        return out

    def rhs(self, wdata, r, packed=None):
        """``(W H)ᵀ r``: per-column sums, structurally empty columns 0.  With
        ``packed``, ``wdata`` holds those diagonal blocks' entries back to
        back, and every other block's columns are 0."""
        out = np.zeros(wdata.shape[:-1] + (self.shape[1],))
        rows, cols, starts, _ = self._layout(packed)
        if len(cols):
            out[..., cols] = np.add.reduceat(
                wdata * np.take(r, rows, axis=-1), starts, axis=-1
            )
        return out

    def solve(self, data, weights, r) -> np.ndarray:
        """The Gauss-Newton step ``G⁻¹ Hᵀ W r``; raises
        :class:`GainSolveError` rather than return a non-finite step."""
        dx, errors = self.solve_blocks(data, weights, r)
        if errors:
            raise errors[min(errors)]
        return dx

    def solve_blocks(
        self, data, weights, r, active=None, operators=None, hold=None
    ) -> tuple[np.ndarray, dict[int, GainSolveError]]:
        """One Gauss-Newton step, block by block.

        The right-hand side is assembled for every block and the gain for
        every block that factors, in one pass each; then each block is
        solved on its own.  The blocks are either

        - the diagonal blocks of this kernel's pattern (``r`` a vector):
          only the blocks listed in ``active`` (ascending; default: all)
          are solved, the rest keep a zero step, and ``data`` is a vector
          holding those blocks' entries alone, back to back in block order
          (:meth:`JacobianStructure.fill_data`'s ``parts``; the whole
          pattern's vector when ``active`` is every block) — a length that
          does not match raises ``ValueError``; or
        - K replicas of a one-block kernel (``data`` a ``(K, nnz)`` stack
          of Jacobians on the one pattern, ``r`` their ``(K, m)``
          residuals): row ``j`` is block ``active[j]`` (default ``j``) and
          goes through the one factor in turn.

        ``operators`` maps a block to a frozen gain operator (anything with
        ``solve(rhs) -> dx``): that block's step is the operator's solve of
        its slice of the exact right-hand side, and no gain is assembled or
        factored for it.  The operators are the caller's (a condensed
        round's :class:`SchurGainSolver`) or factors held here: ``hold``
        maps a block to a step bound, and a block factored by this call
        whose step comes out below its bound has its factor added to
        ``operators`` (in place, as a :class:`_HeldFactor`) for the
        caller's next call to solve against.

        Returns ``(dx, errors)``, ``dx`` shaped like the right-hand side: a
        block whose factorisation or operator fails, or whose step comes
        out non-finite, keeps a zero step, with its
        :class:`GainSolveError` under the block's index in ``errors`` — the
        other blocks' steps are unaffected.
        """
        errors: dict[int, GainSolveError] = {}
        ops = {} if operators is None else operators
        hold = {} if hold is None else hold
        # where each block sits in rhs / dx, and — for the blocks that
        # factor — its factor and its place in the gain values
        if data.ndim == 2:
            if self.spd is None:
                raise ValueError("a data stack needs a one-block kernel")
            if active is None:
                active = range(len(data))
            if len(active) != len(data):
                raise ValueError("a data stack needs one row per active block")
            wdata = self.weighted(data, weights)
            rhs = self.rhs(wdata, r)
            at = range(len(data))
            rows = [j for j, b in enumerate(active) if b not in ops]
            factored = {active[j]: (self.spd, k) for k, j in enumerate(rows)}
            if len(rows) == len(data):
                gain = self.gain(data, wdata)
            elif rows:
                gain = self.gain(data[rows], wdata[rows])
        else:
            if active is None:
                active = range(len(self._parts))
            wdata = self.weighted(data, weights, active)
            rhs = self.rhs(wdata, r, active)
            at = [self._parts[b][1] for b in active]
            factored = {
                b: (self._parts[b][0], self._parts[b][2])
                for b in active
                if b not in ops
            }
            if factored:
                gain = self.gain(data, wdata, list(factored), active)
        dx = np.zeros(rhs.shape)
        for b, a in zip(active, at):
            if b in ops:
                try:
                    dx[a] = ops[b].solve(rhs[a])
                except GainSolveError as exc:
                    errors[b] = exc
                continue
            spd, g = factored[b]
            try:
                spd.factor(gain[g])
            except GainSolveError as exc:
                errors[b] = exc
                continue
            dx[a] = spd.solve(rhs[a])
            if b in hold and np.abs(dx[a]).max() < hold[b]:
                ops[b] = _HeldFactor(spd)
        if not np.all(np.isfinite(dx)):
            for b, a in zip(active, at):
                if not np.all(np.isfinite(dx[a])):
                    dx[a] = 0.0
                    errors[b] = GainSolveError(
                        "gain solve produced non-finite step"
                    )
        return dx, errors


def _canonical_csc(H: sp.spmatrix) -> sp.csc_matrix:
    """``H`` as CSC without duplicate entries (the product map pairs
    entries, so a duplicated position would lose its cross terms)."""
    Hc = H.tocsc()
    Hc.sum_duplicates()
    return Hc


def build_gain(H: sp.spmatrix, weights: np.ndarray) -> sp.csc_matrix:
    """Gain matrix ``G = Hᵀ W H`` (CSC, structural zeros kept)."""
    Hc = _canonical_csc(H)
    kernel = NormalEquations(Hc.indptr, Hc.indices, Hc.shape)
    return kernel.spd.matrix(
        kernel.gain(Hc.data, kernel.weighted(Hc.data, weights))
    )


class GainSolver:
    """Stateful normal-equation solver for repeated same-pattern solves.

    The solver is safe to reuse across Gauss-Newton iterations and across
    estimate() calls of the same estimator: the :class:`NormalEquations`
    kernel is built on the first solve and kept while the Jacobian pattern
    stays the same; a new pattern replaces it transparently.
    """

    def __init__(self):
        self.kernel: NormalEquations | None = None

    # ------------------------------------------------------------------
    def solve(
        self, H: sp.spmatrix, weights: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Solve ``(Hᵀ W H) dx = Hᵀ W r`` for the Gauss-Newton step."""
        Hc = _canonical_csc(H)
        return self.solve_csc(Hc.indptr, Hc.indices, Hc.shape, Hc.data, weights, r)

    def solve_csc(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        shape: tuple,
        data: np.ndarray,
        weights: np.ndarray,
        r: np.ndarray,
    ) -> np.ndarray:
        """:meth:`solve` with the Jacobian given as raw CSC arrays (a
        :attr:`JacobianStructure.pattern` plus the ``data`` it filled), so
        the Gauss-Newton loop constructs no sparse matrix."""
        self.kernel = NormalEquations.cached(self.kernel, indptr, indices, shape)
        return self.kernel.solve(data, weights, r)


class SchurGainSolver:
    """Schur-complement gain solver: eliminate interior states once, then
    every solve costs one interior backsolve plus one dense boundary solve.

    Splitting the reduced state into interior ``I`` and boundary ``B``
    blocks, :meth:`factor` condenses the gain matrix ``G = Hᵀ W H``:

    .. code-block:: text

        G_II = L Lᵀ               the kernel's fixed-pattern factor
        W    = G_II⁻¹ G_IB        dense |I| × |B| back-substitution operator
        S    = G_BB − G_IBᵀ W     dense Schur complement (SPD → Cholesky)

    and :meth:`solve` maps any right-hand side to the full step:

    .. code-block:: text

        u    = G_II⁻¹ rhs_I
        dx_B = S⁻¹ (rhs_B − G_IBᵀ u)      boundary-sized system
        dx_I = u − W dx_B                 local back-substitution

    The gain is assembled by the shared :class:`NormalEquations` kernel;
    the split of its fixed pattern into the three blocks is index
    bookkeeping done once per Jacobian pattern, so a refactorisation at a
    new linearisation point is numeric-only and, like every kernel product,
    independent of what was factored before.
    """

    def __init__(self, boundary: np.ndarray, n_states: int):
        boundary = np.unique(np.asarray(boundary, dtype=np.int64))
        if len(boundary) and (boundary[0] < 0 or boundary[-1] >= n_states):
            raise ValueError("boundary state index out of range")
        self.boundary = boundary
        self.n_states = int(n_states)
        mask = np.ones(self.n_states, dtype=bool)
        mask[boundary] = False
        self.interior = np.flatnonzero(mask)
        self.kernel: NormalEquations | None = None
        self._interior: _SpdFactor | None = None
        self._maps: tuple | None = None
        self._S: np.ndarray | None = None
        self._W: np.ndarray | None = None
        self._G_IB: np.ndarray | None = None
        self._factored = False

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    # ------------------------------------------------------------------
    def _split_pattern(self, spd: _SpdFactor) -> tuple:
        """Where each lower-triangle gain entry lands: the interior factor
        and scatter maps ``(row, col, src)`` for dense ``G_IB`` and ``S``."""
        local_i = -np.ones(self.n_states, dtype=np.int64)
        local_i[self.interior] = np.arange(self.n_interior)
        local_b = -np.ones(self.n_states, dtype=np.int64)
        local_b[self.boundary] = np.arange(self.n_boundary)
        ri, ci = local_i[spd.rows], local_i[spd.cols]
        rb, cb = local_b[spd.rows], local_b[spd.cols]
        ii = np.flatnonzero((ri >= 0) & (ci >= 0))
        ib = np.flatnonzero((ri >= 0) & (cb >= 0))   # entry of G_IB
        bi = np.flatnonzero((rb >= 0) & (ci >= 0))   # entry of G_IBᵀ
        bb = np.flatnonzero((rb >= 0) & (cb >= 0))
        g_ii = _SpdFactor(ri[ii], ci[ii], self.n_interior)
        g_ib = (
            np.concatenate([ri[ib], ci[bi]]),
            np.concatenate([cb[ib], rb[bi]]),
            np.concatenate([ib, bi]),
        )
        s_bb = (
            np.concatenate([rb[bb], cb[bb]]),
            np.concatenate([cb[bb], rb[bb]]),
            np.concatenate([bb, bb]),
        )
        return g_ii, (ii, g_ib, s_bb)

    def factor(self, H: sp.spmatrix, weights: np.ndarray) -> None:
        """Condense ``G = Hᵀ W H`` onto the boundary block (the matrix
        entry point: the kernel for ``H``'s pattern is built here and kept
        while the pattern stays the same)."""
        Hc = _canonical_csc(H)
        kernel = NormalEquations.cached(
            self.kernel, Hc.indptr, Hc.indices, Hc.shape
        )
        self.factor_gain(
            kernel, kernel.gain(Hc.data, kernel.weighted(Hc.data, weights))
        )

    def factor_gain(self, kernel: NormalEquations, gain: np.ndarray) -> None:
        """Condense the gain given as the lower-triangle values ``gain`` on
        ``kernel``'s fixed pattern — numeric-only for a caller that already
        owns the kernel of its Jacobian pattern (an estimator's), which
        this solver then adopts instead of building a second one."""
        if kernel.shape[1] != self.n_states:
            raise ValueError(
                f"gain matrix order {kernel.shape[1]} != n_states {self.n_states}"
            )
        if kernel is not self.kernel:
            self.kernel = kernel
            self._interior, self._maps = self._split_pattern(kernel.spd)
        interior = self._interior
        ii, (ib_r, ib_c, ib_src), (bb_r, bb_c, bb_src) = self._maps
        ni, nb = self.n_interior, self.n_boundary
        self._factored = False

        if ni:
            try:
                interior.factor(gain[ii])
            except GainSolveError as exc:
                raise GainSolveError(f"interior gain block: {exc}") from exc

        if nb:
            self._G_IB = np.zeros((ni, nb))
            self._G_IB[ib_r, ib_c] = gain[ib_src]
            S = np.zeros((nb, nb))
            S[bb_r, bb_c] = gain[bb_src]
            if ni:
                self._W = interior.solve(self._G_IB)
                S -= self._G_IB.T @ self._W
            else:
                self._W = np.zeros((0, nb))
            if not np.all(np.isfinite(S)):
                raise GainSolveError("Schur complement is not finite")
            self._S, info = dpotrf(S, lower=1, clean=0)
            if info != 0:
                raise GainSolveError(
                    "Schur complement is not positive definite "
                    f"(dpotrf info={info})"
                )
        else:
            self._G_IB = None
            self._W = None
            self._S = None
        self._factored = True

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Map a full-order right-hand side to the full step ``dx``."""
        if not self._factored:
            raise GainSolveError("SchurGainSolver.solve before factor()")
        if not np.all(np.isfinite(rhs)):
            raise GainSolveError("non-finite right-hand side")
        dx = np.empty(self.n_states)
        u = (
            self._interior.solve(rhs[self.interior])
            if self.n_interior
            else np.zeros(0)
        )
        if self.n_boundary:
            rhs_b = rhs[self.boundary]
            if self.n_interior:
                rhs_b = rhs_b - self._G_IB.T @ u
            if not np.all(np.isfinite(rhs_b)):
                raise GainSolveError("non-finite condensed right-hand side")
            dx_b = dpotrs(self._S, rhs_b, lower=1)[0]
            dx[self.boundary] = dx_b
            if self.n_interior:
                u = u - self._W @ dx_b
        dx[self.interior] = u
        if not np.all(np.isfinite(dx)):
            raise GainSolveError("condensed solve produced non-finite step")
        return dx


def solve_normal_equations(
    H: sp.spmatrix, weights: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Solve ``(Hᵀ W H) dx = Hᵀ W r`` for the Gauss-Newton step (one-shot).

    Parameters
    ----------
    H:
        Reduced measurement Jacobian (reference column removed).
    weights:
        Per-measurement WLS weights ``1/sigma²``.
    r:
        Measurement residual vector.
    """
    return GainSolver().solve(H, weights, r)
