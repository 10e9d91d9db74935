"""A removed row is a zero weight of the frame.

A row screened out as bad data stays in the DSE's measurement set and is
switched off by ``run(weights=)``: the same estimators, the same loop,
stacked or job by job and on either wire form, within rounding of a DSE
built on the set without the row.  The noise estimate skips it the same way.
"""

import numpy as np
import pytest

from repro.core import innovation_noise_level
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.dse.baddata import distributed_bad_data
from repro.measurements import (
    MeasType,
    full_placement,
    generate_measurements,
    inject_bad_data,
)


@pytest.fixture(scope="module")
def gross118(net118, pf118):
    """IEEE-118 on 9 subsystems, a clean frame's placement, and a frame
    with one 40 σ ``V_MAG`` error inside subsystem 2 plus the rows the
    screen removes from it."""
    dec = decompose(net118, 9, seed=0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    rng = np.random.default_rng(8)
    ms = generate_measurements(net118, plac, pf118, rng=rng)
    internal = set(dec.buses(2)) - set(dec.boundary_buses(2))
    row = next(
        r for r, m in enumerate(ms)
        if m.mtype == MeasType.V_MAG and m.element in internal
    )
    bad = inject_bad_data(ms, np.array([row]), magnitude_sigmas=40, rng=rng)
    removed = distributed_bad_data(
        DistributedStateEstimator(dec, ms), bad.z
    ).removed_global_rows
    assert removed == [row]
    return dec, ms, bad, removed


def _iterations(res) -> int:
    return sum(
        r.step1_result.iterations + sum(e.iterations for e in r.step2_results)
        for r in res.records.values()
    )


@pytest.mark.parametrize("condense", [False, True])
def test_masked_frame_is_one_frame_on_every_path(gross118, condense, job_by_job):
    """The masked frame is the same bits stacked and job by job, and
    lands within rounding of a DSE built on the set without the row
    (measured: at most 5.6e-16 on either wire form); the rounds after
    the first ran on one carried factor per subsystem, taken at the
    frame's weights."""
    dec, ms, bad, removed = gross118
    w = ms.weights
    w[removed] = 0.0
    runs = {}
    for path, solve in (("stacked", DistributedStateEstimator.run), ("jobs", job_by_job)):
        dse = DistributedStateEstimator(dec, ms, condense=condense)
        runs[path] = solve(dse, z=bad.z, weights=w)
        assert [dse._est2(s).factors.count for s in range(dec.m)] == [1] * dec.m
        assert all(
            rec.step2_results[-1].factorizations == 0
            for rec in runs[path].records.values()
        )
    stacked = runs["stacked"]
    for res in runs.values():
        assert np.array_equal(res.Vm, stacked.Vm)
        assert np.array_equal(res.Va, stacked.Va)
        assert _iterations(res) == _iterations(stacked)

    keep = np.ones(len(ms), dtype=bool)
    keep[removed] = False
    thinned = DistributedStateEstimator(
        dec, bad.subset(keep), condense=condense
    ).run()
    assert np.max(np.abs(stacked.Vm - thinned.Vm)) <= 1e-12
    assert np.max(np.abs(stacked.Va - thinned.Va)) <= 1e-12
    assert _iterations(stacked) == _iterations(thinned)
    # and the weight is what removed it
    kept = DistributedStateEstimator(dec, ms, condense=condense).run(z=bad.z)
    assert np.max(np.abs(kept.Vm - stacked.Vm)) > 1e-4


def test_weights_are_checked(gross118):
    dec, ms, _, _ = gross118
    dse = DistributedStateEstimator(dec, ms)
    for w in (ms.weights[:-1], -ms.weights, np.full(len(ms), np.nan)):
        with pytest.raises(ValueError, match="weights must be"):
            dse.run(weights=w)


def test_noise_level_skips_zero_weight_rows(gross118, net118, pf118):
    """Bit for bit the level of the set without the rows."""
    _, ms, bad, removed = gross118
    w = ms.weights
    w[removed] = 0.0
    keep = np.ones(len(ms), dtype=bool)
    keep[removed] = False
    prev = (pf118.Vm * 1.001, pf118.Va + 1e-3)
    masked = innovation_noise_level(net118, bad, *prev, weights=w)
    assert masked == innovation_noise_level(net118, bad.subset(keep), *prev)
    assert masked != innovation_noise_level(net118, bad, *prev)


def test_reference_path_honours_the_weights(gross118):
    """``reuse_structures=False`` builds its estimators per solve and gives
    them the frame's weights: machine precision from the cached path, as
    on an unmasked frame."""
    dec, _, bad, removed = gross118
    w = bad.weights
    w[removed] = 0.0
    hot = DistributedStateEstimator(dec, bad, warm_start=False).run(weights=w)
    ref = DistributedStateEstimator(
        dec, bad, reuse_structures=False, warm_start=False
    ).run(weights=w)
    assert float(np.abs(hot.Vm - ref.Vm).max()) < 1e-12
    assert float(np.abs(hot.Va - ref.Va).max()) < 1e-12
