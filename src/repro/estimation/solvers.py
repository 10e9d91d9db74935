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
order up to :data:`DENSE_MAX_STATES` (every DSE subsystem, the IEEE-118
central problem) go through LAPACK Cholesky — a band ``dpbtrf`` in reverse
Cuthill–McKee order when the pattern's half-bandwidth makes it no dearer in
flops than a dense ``dpotrf``, the dense one otherwise; larger ones through
SuperLU over the fixed pattern with a fill-reducing ordering computed once.
The mode is a function of the pattern alone, chosen on the factor's
first use.  The kernel keeps no numeric history: a step is a function of
(pattern, data, weights, residual) alone, so cold and warm solvers — and
therefore serial, thread-pool and process-pool runs — agree bit for bit.
Independent problems share one kernel as *blocks*, and one Gauss-Newton
step of them all is :meth:`NormalEquations.step_blocks`, which takes the
right-hand side ``HᵀW r`` ready-made (the estimator's loop takes it as a
gradient, with no Jacobian) plus the Jacobian entries of the blocks that
factor.  The blocks come in either of two stackings: different problems
side by side (:meth:`NormalEquations.stacked` — one assembly over the
block-diagonal Jacobian, one factor per diagonal block), or K same-pattern
problems as the rows of a ``(K, nnz)`` data stack (one vectorised assembly,
the one factor used K times).  Either way a block's step is bit for bit
that of the block solved alone, and a block that fails does so alone.  A
block may instead be solved against a frozen operator (:class:`_HeldFactor`)
— a factor the kernel kept from an earlier call, or one an estimator's
store holds, as a DSE Step-2 round's carried factor — in which case
nothing is filled, assembled or factored for it; it keeps the factor in its mode's
form (the band, the packed dense triangle, or the SuperLU object), or —
where a held step must be the bits a fresh one would be — in the form the
live factor solves with.
:meth:`NormalEquations.solve` is the matrix entry (:class:`GainSolver`):
it contracts the right-hand side from the Jacobian it is given.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dpptrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "DENSE_MAX_STATES",
    "GainSolveError",
    "GainSolver",
    "NormalEquations",
    "SchurGainSolver",
    "build_gain",
    "solve_normal_equations",
]

#: Largest gain order factored by LAPACK Cholesky (dense or band); above it
#: the fixed pattern goes to SuperLU.  Chosen from the crossover measured by
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


def _band_pays(kd: int, n: int) -> bool:
    """True when a band Cholesky of half-bandwidth ``kd`` does no more
    flops than a dense one of order ``n``: ``n (kd+1)²`` against ``n³/3``."""
    return 3 * (kd + 1) ** 2 <= n * n


def _rcm_band(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple:
    """``((perm, place), kd, flat)`` of a lower-triangle pattern under
    reverse Cuthill–McKee: state ``perm[i]`` goes to place ``i`` and state
    ``j`` sits at ``place[j]``, ``kd`` is the permuted half-bandwidth,
    ``flat`` each entry's position in LAPACK lower band storage
    (``(kd+1) × n``, column-major)."""
    if not len(rows):
        return (np.arange(n), np.arange(n)), 0, np.zeros(0, dtype=np.int64)
    # the symmetric adjacency straight from the triangle: row i holds the
    # strict lower entries (i, j) and the transposed column i; the keys
    # are small (n <= DENSE_MAX_STATES), so the stable sort is a radix sort
    strict = rows != cols
    key = np.concatenate([rows[strict], cols]).astype(np.int16)
    nbr = np.concatenate([cols[strict], rows]).astype(np.int32)
    graph = sp.csr_matrix(
        (np.ones(len(key), dtype=np.int8), nbr[np.argsort(key, kind="stable")],
         _bucket_starts(key, n).astype(np.int32)),
        shape=(n, n),
    )
    # native index width: a gather by it is several times faster
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
    place = np.empty(n, dtype=np.intp)
    place[perm] = np.arange(n)
    r, c = place[rows], place[cols]
    off = np.abs(r - c)
    kd = int(off.max())
    return (perm, place), kd, np.minimum(r, c) * (kd + 1) + off


class _SpdFactor:
    """Factorisation of an SPD matrix whose values arrive on a fixed pattern.

    The pattern is the matrix's lower triangle as sorted coordinates
    ``(rows, cols)`` in CSC order.  :meth:`factor` takes the values on that
    pattern; :meth:`solve` back-substitutes (vector or stacked columns).
    The :attr:`mode` is chosen from the pattern alone, on first use:

    - ``"band"`` (order up to :data:`DENSE_MAX_STATES`, when the reverse
      Cuthill–McKee half-bandwidth ``kd`` makes a band Cholesky no dearer
      in flops than a dense one, :func:`_band_pays`): the values scatter
      in RCM order into a ``(kd+1) × n`` lower band of the factor's own,
      factored in place by LAPACK ``dpbtrf``; a solve permutes the
      right-hand side, runs ``dpbtrs`` and permutes back;
    - ``"dense"`` (the other gains up to :data:`DENSE_MAX_STATES`): an
      ``n × n`` block of its own, refilled and factored in place by
      ``dpotrf``;
    - ``"sparse"`` (larger gains): expands to the full symmetric pattern,
      permutes columns by the COLAMD ordering SuperLU computes for the
      pattern on first use, and refactors numerically in that (NATURAL)
      order from then on.

    Holds one factorisation at a time: an instance has a single owner.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        self.n = n
        self.rows, self.cols = rows, cols
        self._mode: str | None = None
        self._flat = self._rcm = self._kd = None
        self._full: tuple | None = None
        self._permuted: tuple | None = None
        self._block: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        self.lu = None

    @property
    def mode(self) -> str:
        """``"band"``, ``"dense"`` or ``"sparse"`` — see the class."""
        return self._order()

    def twin(self) -> "_SpdFactor":
        """A second factor of the same pattern: shares the symbolic index
        arrays (never written once ordered), owns its numeric state."""
        self._order()
        other = copy.copy(self)
        other._permuted = other._block = other._chol = other.lu = None
        return other

    # -- symbolic --------------------------------------------------------
    def _order(self) -> str:
        """Choose the mode and build its index arrays, once.  It runs on
        first use, not at construction: a kernel that only assembles
        (:func:`build_gain`) never factors, and never orders its pattern."""
        if self._mode is not None:
            return self._mode
        n, rows, cols = self.n, self.rows, self.cols
        if n > DENSE_MAX_STATES:
            mode = "sparse"
        else:
            rcm, kd, flat = _rcm_band(rows, cols, n)
            if _band_pays(kd, n):
                mode, self._rcm, self._kd = "band", rcm, kd
            else:
                # column-major flat positions of the lower triangle in the
                # dense block
                mode, flat = "dense", cols * n + rows
            self._flat = flat
        # the mode last: a factor that reads it finds its arrays in place
        self._mode = mode
        return mode

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
        if self.mode == "sparse":
            try:
                if self._permuted is None:
                    self._permuted = self._analyse(values)
                carrier, src, _ = self._permuted
                np.take(values, src, out=carrier.data)
                self.lu = spla.splu(carrier, permc_spec="NATURAL")
            except RuntimeError as exc:
                raise GainSolveError(f"gain matrix is singular: {exc}") from exc
            return
        # one buffer per factor, not one per call: held factors outlive
        # the call that made them, and a fresh n × n block per call left
        # the heap fragmented around them (+3 MB peak RSS on a two-thread
        # replica service)
        band = self.mode == "band"
        ld = self._kd + 1 if band else self.n      # leading dimension
        if self._block is None:
            self._block = np.empty(ld * self.n)
        block, self._chol = self._block, None
        block.fill(0.0)         # the last factor's fill-in is not zero
        block[self._flat] = values
        # Fortran view of the column-major buffer: factored in place
        view = block.reshape(self.n, ld).T
        if band:
            c, info = dpbtrf(view, lower=1, overwrite_ab=1)
        else:
            c, info = dpotrf(view, lower=1, overwrite_a=1, clean=0)
        if info != 0:
            raise GainSolveError(
                f"gain matrix is not positive definite "
                f"({'dpbtrf' if band else 'dpotrf'} info={info})"
            )
        self._chol = c

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.mode == "band":
            return _band_solve(self._chol, self._rcm, b)
        if self.mode == "dense":
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


def _band_solve(band: np.ndarray, rcm: tuple, b: np.ndarray) -> np.ndarray:
    """``G⁻¹ b`` from the RCM-ordered band factor of ``G``: into the band's
    order and back out of it by two gathers (``rcm`` is the order and its
    inverse, :func:`_rcm_band`)."""
    perm, place = rcm
    return dpbtrs(band, b[perm], lower=1)[0][place]


class _HeldFactor:
    """A gain factor kept past the solve that made it, as a frozen operator.

    The Gauss-Newton loop holds a block's factor through the block's linear
    tail (:meth:`NormalEquations.step_blocks`' ``hold``); beyond one call
    only an estimator's store holds them
    (:class:`~repro.estimation.wls.HeldFactors`: the flat start's, and
    the factor a DSE Step-2 round carries).  A band factor is
    held as a copy of its band array (with the
    shared RCM order) and solved with the same ``dpbtrs`` as the live
    factor; a sparse one keeps the SuperLU object its factorisation
    created, with the column order.  A dense factor is held as its packed
    lower triangle and solved with ``dpptrs`` (half the bytes, and 1.4–2×
    faster than ``dpotrs`` on one right-hand side at 80–200 states), or,
    with ``live_form``, as a copy of its ``n × n`` block solved with the
    live factor's own ``dpotrs``: ``dpptrs`` rounds differently, and the
    flat-start factor stands in for a fresh factor, whose step it must give
    bit for bit (the store's form rule: live form at the flat start alone).
    Every path holds one form per use — a union block, a plain estimator,
    a replica of a stack — so a held block's steps are the same bits
    however the block was stacked.
    """

    def __init__(self, spd: _SpdFactor, *, live_form: bool = False):
        self.n, self.mode = spd.n, spd.mode
        if spd.mode == "sparse":
            self._factor, self._order = spd.lu, spd._permuted[2]
        elif spd.mode == "dense" and not live_form:
            self._factor, self._order = spd.lower_packed(), None
        else:   # the band's RCM order; None for a dense block
            self._factor, self._order = spd._chol.copy(order="F"), spd._rcm

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.mode == "band":
            return _band_solve(self._factor, self._order, b)
        if self.mode == "dense" and self._factor.ndim == 1:
            return dpptrs(self.n, self._factor, b, lower=1)[0]
        if self.mode == "dense":
            return dpotrs(self._factor, b, lower=1)[0]
        x = np.empty_like(b)
        x[self._order] = self._factor.solve(b)
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
        (the member's mode, a twin of its factor), so a block can be skipped
        or fail alone (:meth:`step_blocks`).
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
        # per block: its entries' count and rows — the pieces of a
        # restriction to some blocks (the last one kept)
        self._split = (np.diff(entry).tolist(), np.split(indices, entry[1:-1]))
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
        """``(rows, at)`` of a ``data`` vector holding the diagonal blocks
        ``packed`` (ascending) back to back — by default, or when
        ``packed`` is every block, the whole pattern: each entry's row, and
        where each block's entries start.  A restriction is kept until
        other blocks are asked for: a Gauss-Newton loop asks for the same
        ones while no block is held, released or finished."""
        if packed is None or len(packed) == len(self._parts):
            return self.indices, self._entry_at
        if len(self._parts) == 1:
            raise ValueError("a one-block kernel has no blocks to leave out")
        key = tuple(packed)
        if self._restricted[0] != key:
            sizes, rows = self._split
            at, end = [0] * len(self._parts), 0
            for p in key:
                at[p], end = end, end + sizes[p]
            self._restricted = (key, (np.concatenate([rows[p] for p in key]), at))
        return self._restricted[1]

    def weighted(self, data, weights, packed=None):
        """``W H`` on the pattern: the operand :meth:`gain` and :meth:`rhs`
        take.  ``weights`` is one vector, or one row per row of a ``data``
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
            at = self._layout(packed)[1]
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

    def rhs(self, wdata, r):
        """``(W H)ᵀ r`` over the whole pattern: per-column sums,
        structurally empty columns 0 — the matrix entry's right-hand side
        (:meth:`solve`; the Gauss-Newton loop takes the gradient)."""
        out = np.zeros(wdata.shape[:-1] + (self.shape[1],))
        if len(self._rhs_cols):
            out[..., self._rhs_cols] = np.add.reduceat(
                wdata * np.take(r, self.indices, axis=-1), self._rhs_starts, axis=-1
            )
        return out

    def solve(self, data, weights, r) -> np.ndarray:
        """The Gauss-Newton step ``G⁻¹ Hᵀ W r`` of the whole pattern (the
        matrix entry: the right-hand side is contracted from ``data``);
        raises :class:`GainSolveError` rather than return a non-finite
        step."""
        rhs = self.rhs(self.weighted(data, weights), r)
        dx, errors = self.step_blocks(rhs, data=data, weights=weights)
        if errors:
            raise errors[min(errors)]
        return dx

    def step_blocks(
        self, rhs, active=None, operators=None, data=None, weights=None, hold=None
    ) -> tuple[np.ndarray, dict[int, GainSolveError]]:
        """One Gauss-Newton step, block by block: each block's slice of the
        right-hand side ``rhs`` (``HᵀW r``, however the caller formed it)
        solved against the block's gain.  The blocks are either

        - the diagonal blocks of this kernel's pattern (``rhs`` a vector
          over its columns): only the blocks listed in ``active``
          (ascending; default: all) are solved, the rest keep a zero step;
          or
        - K replicas of a one-block kernel (``rhs`` a ``(K, n)`` stack):
          row ``j`` is block ``active[j]`` (default ``j``).

        A block in ``operators`` is solved against that frozen operator —
        a factor held from an earlier call, or a caller's — and nothing is
        assembled or factored for it.  Every other active block factors
        afresh, from ``data`` and ``weights`` (``W``'s diagonal), which
        cover those blocks alone: for a pattern's blocks a vector of their
        Jacobian entries back to back in block order
        (:meth:`JacobianStructure.fill_data`'s ``parts``; a length that
        does not match raises ``ValueError``), for replicas a ``(K', nnz)``
        stack with one row per factoring replica in ``active`` order, and
        one weight vector for them all or one row each.  ``hold`` maps a
        block to a step bound, and a block factored by this call whose step
        comes out below its bound has its factor added to ``operators`` (in
        place, as a :class:`_HeldFactor`) for the caller's next call.

        Returns ``(dx, errors)``, ``dx`` shaped like ``rhs``: a block whose
        factorisation or operator fails, or whose step comes out
        non-finite, keeps a zero step, with its :class:`GainSolveError`
        under the block's index in ``errors`` — the other blocks' steps are
        unaffected.
        """
        errors: dict[int, GainSolveError] = {}
        ops = {} if operators is None else operators
        hold = {} if hold is None else hold
        stack = rhs.ndim == 2
        if active is None:
            active = range(len(rhs) if stack else len(self._parts))
        factoring = [b for b in active if b not in ops]
        # where each block sits in rhs / dx, and — for the blocks that
        # factor — its factor and its place in the gain values
        if stack:
            if self.spd is None:
                raise ValueError("a stack needs a one-block kernel")
            if len(active) != len(rhs):
                raise ValueError("a stack needs one row per active block")
            at = range(len(rhs))
            factored = {b: (self.spd, k) for k, b in enumerate(factoring)}
            if factoring:
                if len(data) != len(factoring):
                    raise ValueError("a data stack needs one row per factoring block")
                gain = self.gain(data, self.weighted(data, weights))
        else:
            at = [self._parts[b][1] for b in active]
            factored = {b: (self._parts[b][0], self._parts[b][2]) for b in factoring}
            if factoring:
                wdata = self.weighted(data, weights, factoring)
                gain = self.gain(data, wdata, factoring, factoring)
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
        _refuse_non_finite(dx, active, at, errors)
        return dx, errors


def _refuse_non_finite(dx: np.ndarray, active, at, errors: dict) -> None:
    """Zero every block step of ``dx`` (block ``active[i]`` at ``at[i]``)
    that is not finite and put its :class:`GainSolveError` in ``errors``."""
    if not np.all(np.isfinite(dx)):
        for b, a in zip(active, at):
            if not np.all(np.isfinite(dx[a])):
                dx[a] = 0.0
                errors[b] = GainSolveError("gain solve produced non-finite step")


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

    The split pays when the interior right-hand side is fixed and only the
    boundary system travels — boundary elimination across areas.  An
    iteration whose whole right-hand side changes every step solves faster
    against one held factor of ``G`` (:class:`_HeldFactor`).
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
