"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.grid import run_ac_power_flow
from repro.grid.cases import case4, case14, case118, synthetic_grid


@pytest.fixture(scope="session")
def net4():
    return case4()


@pytest.fixture(scope="session")
def net14():
    return case14()


@pytest.fixture(scope="session")
def net118():
    return case118()


@pytest.fixture(scope="session")
def pf4(net4):
    return run_ac_power_flow(net4)


@pytest.fixture(scope="session")
def pf14(net14):
    return run_ac_power_flow(net14)


@pytest.fixture(scope="session")
def pf118(net118):
    return run_ac_power_flow(net118)


@pytest.fixture(scope="session")
def synth9x13():
    return synthetic_grid(n_areas=9, buses_per_area=13, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def _job_by_job(dse, *, z=None, weights=None, rounds=None):
    """One frame on ``dse`` with every stage's jobs solved one at a time —
    the path a partial job set takes (a live site's share, a fenced host
    next to its successor) — instead of the stacked loop ``dse.run``
    takes.  Returns the stepper: ``Vm``, ``Va`` and ``records`` as on a
    :class:`~repro.dse.algorithm.DseResult`."""
    from repro.dse import SubsystemStepper
    from repro.dse.stepper import solve_stage

    if rounds is None:
        rounds = max(1, dse.dec.diameter())
    st = SubsystemStepper(
        dse, range(dse.dec.m), z=dse._frame_z(z),
        weights=dse._frame_weights(weights),
    )

    def one_by_one(stage, jobs):
        return [
            solve_stage(dse, stage, [job], st.tol, degrade=dse.degrade_on_failure)[0]
            for job in jobs
        ]

    st.apply_step1(one_by_one("step1", st.step1_jobs()))
    for rnd in range(rounds):
        st.apply_step2(rnd, one_by_one("step2", st.step2_jobs(rnd)))
    return st


@pytest.fixture(scope="session")
def job_by_job():
    return _job_by_job
