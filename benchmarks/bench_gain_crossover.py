"""Dense-vs-sparse crossover of the normal-equation kernel's factor.

``repro.estimation.solvers.DENSE_MAX_STATES`` decides whether a gain matrix
is factored by dense LAPACK Cholesky or by SuperLU over its fixed pattern.
This script measures both on central WLS gains of growing order (synthetic
grids of 1-16 areas x 40 buses, plus IEEE-118) and prints the per-solve
times; the constant sits where the sparse path starts to win.  The table in
``docs/algorithms.md`` (hot path) is this script's output.

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


def _solve_us(net, dense: bool) -> tuple[int, float]:
    """Order of the central gain and the warm per-solve time in one mode."""
    pf = run_ac_power_flow(net, flat_start=True)
    ms = generate_measurements(
        net, full_placement(net), pf, rng=np.random.default_rng(0)
    )
    est = WlsEstimator(net, ms)
    H = est._jacobian_at(pf.Vm, pf.Va)
    r = ms.z - est.model.h(pf.Vm, pf.Va)
    saved = solvers.DENSE_MAX_STATES
    solvers.DENSE_MAX_STATES = est.n_states if dense else 0
    try:
        solver = solvers.GainSolver()
        solver.solve(H, ms.weights, r)          # symbolic pass + ordering
    finally:
        solvers.DENSE_MAX_STATES = saved
    reps = 200 if est.n_states < 400 else 20
    return est.n_states, _median_us(lambda: solver.solve(H, ms.weights, r), reps)


def main() -> None:
    nets = [synthetic_grid(n_areas=a, buses_per_area=40, seed=11)
            for a in (1, 2, 3, 4, 5, 6, 8, 16)]
    nets.insert(2, case118())
    print(f"{'states':>7} {'dense us':>10} {'sparse us':>10}")
    for net in nets:
        n, dense = _solve_us(net, dense=True)
        _, sparse = _solve_us(net, dense=False)
        print(f"{n:7d} {dense:10.0f} {sparse:10.0f}")


if __name__ == "__main__":
    main()
