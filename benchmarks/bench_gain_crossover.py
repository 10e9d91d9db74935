"""Dense / band / sparse crossover of the normal-equation kernel's factor.

``repro.estimation.solvers.DENSE_MAX_STATES`` decides whether a gain matrix
is factored by LAPACK Cholesky or by SuperLU over its fixed pattern; below
it, the reverse Cuthill-McKee half-bandwidth ``kd`` of the pattern decides
between a dense ``dpotrf`` and a band ``dpbtrf`` (``solvers._band_pays``).
This script forces each of the three modes on central WLS gains of growing
order (synthetic grids of 1-16 areas x 40 buses, plus IEEE-118) and prints
the per-solve times next to ``kd``; the constant sits where the sparse path
starts to win.  The table in ``docs/algorithms.md`` (hot path) is this
script's output.

    PYTHONPATH=src python benchmarks/bench_gain_crossover.py
"""

import statistics
import time

import numpy as np

from repro.estimation import solvers
from repro.estimation.wls import WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.cases import case118, synthetic_grid
from repro.measurements import full_placement, generate_measurements


def _median_us(fn, reps: int) -> float:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out) * 1e6


def _solve_us(net, mode: str) -> tuple[int, int, float]:
    """Order of the central gain, its RCM half-bandwidth and the warm
    per-solve time with the factor forced into ``mode``."""
    pf = run_ac_power_flow(net, flat_start=True)
    ms = generate_measurements(
        net, full_placement(net), pf, rng=np.random.default_rng(0)
    )
    est = WlsEstimator(net, ms)
    H = est._jacobian_at(pf.Vm, pf.Va)
    r = ms.z - est.model.h(pf.Vm, pf.Va)
    saved = solvers.DENSE_MAX_STATES, solvers._band_pays
    solvers.DENSE_MAX_STATES = 0 if mode == "sparse" else est.n_states
    solvers._band_pays = lambda kd, n: mode == "band"
    try:
        solver = solvers.GainSolver()
        solver.solve(H, ms.weights, r)          # symbolic pass + ordering
    finally:
        solvers.DENSE_MAX_STATES, solvers._band_pays = saved
    spd = solver.kernel.spd
    assert spd.mode == mode
    kd = solvers._rcm_band(spd.rows, spd.cols, spd.n)[1]
    reps = 200 if est.n_states < 400 else 20
    return spd.n, kd, _median_us(lambda: solver.solve(H, ms.weights, r), reps)


def main() -> None:
    nets = [synthetic_grid(n_areas=a, buses_per_area=40, seed=11)
            for a in (1, 2, 3, 4, 5, 6, 8, 16)]
    nets.insert(2, case118())
    print(f"{'states':>7} {'kd':>5} {'dense us':>10} {'band us':>10} {'sparse us':>10}")
    for net in nets:
        n, kd, dense = _solve_us(net, "dense")
        _, _, band = _solve_us(net, "band")
        _, _, sparse = _solve_us(net, "sparse")
        print(f"{n:7d} {kd:5d} {dense:10.0f} {band:10.0f} {sparse:10.0f}")


if __name__ == "__main__":
    main()
