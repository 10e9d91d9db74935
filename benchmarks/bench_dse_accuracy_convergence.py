"""E10 — section II claims: DSE converges within a bounded number of
rounds (the decomposition-graph diameter) and its final solution tracks
the centralized estimate.

The paper adopts the Jiang-Vittal-Heydt result that Steps 1+2 need only a
finite number of iterations upper-bounded by the decomposition diameter.
We verify: (a) round-over-round corrections shrink monotonically and are
negligible by the diameter-th round; (b) DSE accuracy is within a small
factor of centralized WLS.
"""

import numpy as np

from repro.dse import DistributedStateEstimator
from repro.estimation import estimate_state


def test_dse_convergence_within_diameter(benchmark, dec118, mset118, pf118):
    diameter = dec118.diameter()

    def run():
        return DistributedStateEstimator(dec118, mset118).run(
            rounds=diameter + 2
        )

    res = benchmark.pedantic(run, rounds=3, iterations=1)

    print(f"\nquotient-graph diameter: {diameter}")
    print("round corrections (max |Δstate| on exchanged buses):")
    for r, d in enumerate(res.round_deltas, 1):
        marker = "  <- diameter bound" if r == diameter else ""
        print(f"  round {r}: {d:.3e}{marker}")

    # corrections shrink and are tiny past the diameter bound
    deltas = res.round_deltas
    assert deltas[-1] < deltas[0]
    assert deltas[diameter - 1] < 0.2 * deltas[0]
    assert all(d < 5e-3 for d in deltas[diameter:])


def test_dse_accuracy_vs_centralized(dec118, mset118, pf118):
    cen = estimate_state(dec118.net, mset118)
    dse = DistributedStateEstimator(dec118, mset118).run()

    cen_err = cen.state_error(pf118.Vm, pf118.Va)
    dse_err = dse.state_error(pf118.Vm, pf118.Va)
    print("\naccuracy vs truth (RMSE):")
    print(f"  centralized : Vm {cen_err['vm_rmse']:.2e}  Va {cen_err['va_rmse']:.2e}")
    print(f"  DSE         : Vm {dse_err['vm_rmse']:.2e}  Va {dse_err['va_rmse']:.2e}")
    ratio = dse_err["vm_rmse"] / cen_err["vm_rmse"]
    print(f"  DSE/centralized Vm ratio: {ratio:.2f}")
    print(f"  DSE/centralized Va ratio: "
          f"{dse_err['va_rmse'] / cen_err['va_rmse']:.2f}")

    # DSE within a small factor of the centralized estimator
    assert ratio < 4.0
    # and absolutely within measurement accuracy
    assert dse_err["vm_rmse"] < 3e-3


def test_dse_step1_vs_final_boundary_error(dec118, mset118, pf118):
    """Step 2's purpose: boundary buses improve over the isolated Step-1
    solutions once pseudo measurements arrive."""
    dse = DistributedStateEstimator(dec118, mset118)
    res = dse.run()
    net = dec118.net

    vm1 = np.ones(net.n_bus)
    for s, rec in res.records.items():
        vm1[dec118.buses(s)] = rec.step1_result.Vm
    boundary = np.unique(
        np.concatenate([dec118.boundary_buses(s) for s in range(dec118.m)])
    )
    e1 = float(np.abs(vm1[boundary] - pf118.Vm[boundary]).mean())
    e2 = float(np.abs(res.Vm[boundary] - pf118.Vm[boundary]).mean())
    print(f"\nboundary-bus mean |Vm error|: step1 {e1:.2e} -> final {e2:.2e}")
    assert e2 <= e1
