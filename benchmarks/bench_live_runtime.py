"""E8b — the live prototype: concurrent estimator sites over real middleware.

Complements E8 (analytic testbed replay) with an actual multi-threaded,
socket-backed execution of Figure 6: nine estimator sites exchanging packed
pseudo-measurement frames through MeDICi-style pipelines.  Checks the two
facts the paper's prototype demonstrated — the distributed solution matches
the in-process algorithm exactly, and running the exchange through the
middleware (vs in-process queues) costs little.
"""

import numpy as np
import pytest

from repro.core import LiveDseRuntime
from repro.dse import DistributedStateEstimator


def test_live_runtime_inproc(benchmark, dec118, mset118, pf118):
    ref = DistributedStateEstimator(dec118, mset118).run()

    with LiveDseRuntime(dec118, mset118) as runtime:
        live = benchmark.pedantic(runtime.run, rounds=2, iterations=1)
    assert live.errors == []
    assert np.array_equal(live.Vm, ref.Vm)

    print("\nE8b — live distributed runtime (9 sites, in-process pipelines)")
    print(f"  wall time        : {live.wall_time * 1e3:8.1f} ms")
    print(f"  bytes on the wire: {sum(s.bytes_sent for s in live.sites.values())}")
    err = live.state_error(pf118.Vm, pf118.Va)
    print(f"  Vm RMSE vs truth : {err['vm_rmse']:.3e}")


def test_live_runtime_tcp(benchmark, dec118, mset118, pf118):
    with LiveDseRuntime(dec118, mset118, use_tcp=True) as runtime:
        live = benchmark.pedantic(runtime.run, rounds=2, iterations=1)
    assert live.errors == []
    err = live.state_error(pf118.Vm, pf118.Va)

    print("\nE8b — live distributed runtime (9 sites, real TCP pipelines)")
    print(f"  wall time        : {live.wall_time * 1e3:8.1f} ms")
    print(f"  Vm RMSE vs truth : {err['vm_rmse']:.3e}")
    assert err["vm_rmse"] < 3e-3
    # real-time viability: one full DSE cycle fits in a SCADA scan period
    assert live.wall_time < 4.0
