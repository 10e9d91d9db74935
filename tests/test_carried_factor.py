"""Reference Step-2 rounds carry their gain factor into the next round.

A round that warm-starts from the previous round's solution on the same
row weights takes its first step from the factor that round last took and
keeps it while its steps contract; a round with an unheard neighbour, or
a DSE without warm starts, factors afresh.  The carry point travels in the
jobs, so a frame's bits do not depend on what the estimator ran before.
"""

import numpy as np
import pytest

from repro.dse import (
    DistributedStateEstimator,
    SubsystemStepper,
    decompose,
    dse_pmu_placement,
)
from repro.measurements import full_placement, generate_measurements

from test_round_engine import exchange_and_step


@pytest.fixture(scope="module")
def grid118(net118, pf118):
    dec = decompose(net118, 9, seed=0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(0))
    return dec, ms


def _frame(ms, seed):
    rng = np.random.default_rng(seed)
    return ms.z + ms.sigma * rng.standard_normal(len(ms))


def test_rounds_after_the_first_factor_nothing(grid118, job_by_job):
    """On a clean frame every block of every round >= 1 factors nothing,
    stacked and job by job, on the same bits."""
    dec, ms = grid118
    z = _frame(ms, 1)
    stacked = DistributedStateEstimator(dec, ms).run(z=z)
    jobs = job_by_job(DistributedStateEstimator(dec, ms), z=z)
    for res in (stacked, jobs):
        for rec in res.records.values():
            assert rec.step2_results[0].factorizations > 0
            assert [r.factorizations for r in rec.step2_results[1:]] == [0] * (
                len(rec.step2_results) - 1
            )
    assert np.array_equal(stacked.Vm, jobs.Vm)
    assert np.array_equal(stacked.Va, jobs.Va)


def test_unheard_neighbour_refactors_that_block_alone(grid118):
    dec, ms = grid118
    dse = DistributedStateEstimator(dec, ms)
    s = 0
    silent = int(dec.neighbors(s)[0])
    steppers = [SubsystemStepper(dse, [k], z=_frame(ms, 2)) for k in range(dec.m)]
    for st in steppers:
        st.step1()
    for rnd in range(2):
        exchange_and_step(dse, steppers, rnd, lose={(silent, s)})
    second = {
        k: steppers[k].records[k].step2_results[1].factorizations
        for k in range(dec.m)
    }
    assert second[s] > 0
    assert all(n == 0 for k, n in second.items() if k != s)


def test_frame_after_a_frame_is_a_fresh_frame(grid118):
    dec, ms = grid118
    a, b = _frame(ms, 3), _frame(ms, 4)
    warm = DistributedStateEstimator(dec, ms)
    warm.run(z=a)
    got = warm.run(z=b)
    want = DistributedStateEstimator(dec, ms).run(z=b)
    assert np.array_equal(got.Vm, want.Vm)
    assert np.array_equal(got.Va, want.Va)


def test_no_warm_start_carries_nothing(grid118):
    dec, ms = grid118
    res = DistributedStateEstimator(dec, ms, warm_start=False).run(z=_frame(ms, 5))
    for rec in res.records.values():
        assert all(r.factorizations > 0 for r in rec.step2_results)
