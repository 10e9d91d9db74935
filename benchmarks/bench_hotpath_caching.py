"""A6 — ablation: hot-path caching and warm starts.

PR 1 rebuilt the estimation hot path around reusable structures: cached
Jacobian sparsity patterns (refill data only), a stateful gain solver that
keeps the fill-reducing LU ordering across iterations, reused DSE
subproblems/estimators across Step-2 rounds and warm starts between
rounds.  This ablation switches the knobs on one at a time on the IEEE-118
DSE (9 subsystems) and checks that the fully optimised configuration (a) is
faster than the cold path — new estimators, hence new patterns and
kernels, every round — and (b) matches it to ≤ 1e-10.  The cold path used to derive every Jacobian
from scratch as well (1.8–2.0 s a run, 17–24× behind); since every
estimator fills a pattern it built, what is left to save is the building:
1.3–1.7× on the 2-core sandbox, gated at 1.15×.
"""

import time

import numpy as np

from repro.dse import DistributedStateEstimator


def _time_dse(dec, ms, *, repeats=3, **kwargs):
    """Best-of-N wall time of construct + run, plus the last result."""
    best = float("inf")
    res = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        dse = DistributedStateEstimator(dec, ms, **kwargs)
        res = dse.run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def test_ablation_hotpath_dse(dec118, mset118):
    configs = [
        ("seed (cold)",
         dict(reuse_structures=False, warm_start=False)),
        ("+ cached structures",
         dict(reuse_structures=True, warm_start=False)),
        ("+ warm starts",
         dict(reuse_structures=True, warm_start=True)),
    ]
    rows = []
    results = {}
    for name, kw in configs:
        t, res = _time_dse(dec118, mset118, **kw)
        rows.append((name, t))
        results[name] = res

    t_seed = rows[0][1]
    print("\nA6 — hot-path ablation (IEEE 118, 9 subsystems, best of 3)")
    print(f"{'configuration':>24} | {'time [ms]':>9} | {'speedup':>7}")
    for name, t in rows:
        print(f"{name:>24} | {t * 1e3:9.1f} | {t_seed / t:6.2f}x")

    ref = results["seed (cold)"]
    for name, res in results.items():
        assert float(np.abs(res.Vm - ref.Vm).max()) < 1e-10, name
        assert float(np.abs(res.Va - ref.Va).max()) < 1e-10, name

    t_hot = dict(rows)["+ warm starts"]
    assert t_seed / t_hot >= 1.15, (
        f"cached+warm DSE only {t_seed / t_hot:.2f}x faster than seed"
    )
