"""The frozen yardstick kernel and the paired-ratio statistics built on it.

The host this benchmark runs on changes speed by 10-35 % on a scale of
seconds to minutes, so no raw time repeats within a tenth.  Every measured
op is therefore bracketed by two runs of :func:`yardstick` — a fixed piece
of work with the estimator's instruction mix (small CSR scale, ``Hᵀ W H``,
``splu``, solve, fancy-index/concatenate) — and reported as a multiple of
it: ``op_i / mean(y_{i-1}, y_i)``.  A slowdown that hits both cancels.

FROZEN: changing the kernel, its sizes or ``Y_REF_MS`` changes the unit of
every timing metric and makes earlier results incomparable.  It imports
nothing from ``repro``.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Y_REF_MS",
    "Y_CHECKSUM",
    "Yardstick",
    "paired_ratios",
    "normalised_ms",
    "tail_percentile",
    "iqr_frac",
    "raw_numbers",
]

#: Quiet-host median of one yardstick call, frozen once and never
#: re-measured: it only converts the dimensionless paired ratio back to a
#: readable millisecond scale.
Y_REF_MS = 30.0

#: ``round(yardstick(), 6)`` — the kernel is deterministic.
Y_CHECKSUM = 3.369285

_N_STATES = 52       # a 26-bus subsystem's state vector
_N_ROWS = 260        # its measurement rows
_NNZ_PER_ROW = 5
_ITERATIONS = 60


class Yardstick:
    """The kernel's fixed inputs, built once; calling it runs the kernel."""

    def __init__(self):
        rng = np.random.default_rng(20120521)
        rows = np.repeat(np.arange(_N_ROWS), _NNZ_PER_ROW)
        cols = (
            rows % _N_STATES
            + rng.integers(0, 6, size=len(rows))
        ) % _N_STATES
        vals = rng.uniform(0.5, 1.5, size=len(rows))
        H = sp.csr_matrix((vals, (rows, cols)), shape=(_N_ROWS, _N_STATES))
        H.sum_duplicates()
        # a diagonal block keeps the gain matrix well conditioned
        self._H = sp.vstack([H, sp.identity(_N_STATES, format="csr")]).tocsr()
        self._w = rng.uniform(0.5, 2.0, size=self._H.shape[0])
        self._z = rng.standard_normal(self._H.shape[0])
        self._pick = rng.permutation(_N_STATES)[: _N_STATES // 2]

    def __call__(self) -> float:
        """Run the kernel once; returns its checksum."""
        H, w, z, pick = self._H, self._w, self._z, self._pick
        x = np.zeros(_N_STATES)
        acc = 0.0
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            for it in range(_ITERATIONS):
                Hs = H.copy()
                Hs.data *= 1.0 + 1e-3 * it            # CSR scale
                Hw = sp.diags(w) @ Hs
                G = (Hs.T @ Hw).tocsc()               # Hᵀ W H
                rhs = Hs.T @ (w * (z - Hs @ x))
                dx = spla.splu(G).solve(rhs)          # factor + solve
                x = x + 0.5 * dx
                acc += float(np.concatenate([x[pick], dx[pick]]).sum())
        finally:
            if gc_was_on:
                gc.enable()
        return acc

    def reading(self, reps: int = 1) -> tuple[float, float]:
        """One yardstick reading: ``(wall, cpu)`` seconds, each the median
        over ``reps`` kernel runs."""
        wall, cpu = [], []
        for _ in range(reps):
            c0, t0 = time.process_time(), time.perf_counter()
            self()
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        return statistics.median(wall), statistics.median(cpu)


def paired_ratios(op_times, yard_times) -> list[float]:
    """``op_i / mean(y_{i-1}, y_i)`` for the loop ``y0, op1, y1, op2, y2…``
    (``len(yard_times) == len(op_times) + 1``)."""
    if len(yard_times) != len(op_times) + 1:
        raise ValueError("need one yardstick before and one after every op")
    return [
        op / (0.5 * (yard_times[i] + yard_times[i + 1]))
        for i, op in enumerate(op_times)
    ]


def normalised_ms(op_times, yard_times) -> float:
    """The reported time: median paired ratio on the frozen ms scale."""
    return statistics.median(paired_ratios(op_times, yard_times)) * Y_REF_MS


def tail_percentile(samples) -> tuple[float, float]:
    """``(p, value)``: the highest whole percentile with at least ten
    samples beyond it (capped at 99); the maximum's own rank when there are
    too few samples for any percentile to qualify."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    p = min(99, int(100.0 * (n - 10) / n)) if n > 10 else 0
    if p < 50:
        return 100.0, xs[-1]
    return float(p), float(np.percentile(xs, p))


def iqr_frac(values) -> float:
    """Interquartile distance over the median — the driver's spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def raw_numbers(op_wall, op_cpu, yard_wall) -> dict:
    """The raw ``bench.*`` companions of a loop (seconds in, ms out).  They
    gate nothing: on this host none of them repeats within a tenth."""
    wall_ms = [t * 1e3 for t in op_wall]
    tail_p, tail_v = tail_percentile(wall_ms)
    return {
        "bench.op_p50_ms": statistics.median(wall_ms),
        "bench.op_p90_ms": statistics.quantiles(wall_ms, n=10)[-1],
        "bench.op_tail_ms": tail_v,
        "bench.op_tail_percentile": tail_p,
        "bench.op_samples": len(wall_ms),
        "bench.ops_per_s": len(op_wall) / sum(op_wall),
        "bench.cpu_ms_per_op": statistics.fmean(op_cpu) * 1e3,
        "bench.yardstick_p50_ms": statistics.median(yard_wall) * 1e3,
        "bench.yardstick_iqr_frac": iqr_frac(yard_wall),
    }
