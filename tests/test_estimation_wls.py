"""Tests for the WLS estimator core."""

import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import ArchitecturePrototype, DseSession
from repro.dse import (
    DistributedStateEstimator,
    HierarchicalStateEstimator,
    decompose,
    distributed_bad_data,
    dse_pmu_placement,
)
from repro.estimation import (
    EstimationError,
    WlsEstimator,
    build_gain,
    estimate_state,
    identify_bad_data,
    is_observable,
    normalized_residuals,
    state_covariance,
)
from repro.estimation import solvers
from repro.estimation.solvers import GainSolveError, NormalEquations
from repro.estimation.wls import InputError
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14, synthetic_grid
from repro.measurements import (
    MeasType,
    Measurement,
    MeasurementModel,
    MeasurementSet,
    full_placement,
    generate_measurements,
    inject_bad_data,
    pmu_placement,
    scada_placement,
    true_values,
)
from repro.measurements.functions import JacobianStructure


class TestExactRecovery:
    def test_zero_noise_recovers_state(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        res = estimate_state(net14, ms)
        assert res.converged
        assert np.allclose(res.Vm, pf14.Vm, atol=1e-10)
        assert np.allclose(res.Va, pf14.Va, atol=1e-10)

    def test_zero_noise_objective_zero(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        res = estimate_state(net14, ms)
        assert res.objective == pytest.approx(0.0, abs=1e-15)

    def test_reference_angle_respected(self, net14, pf14, rng):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, noise_level=0.0, rng=rng
        )
        est = WlsEstimator(net14, ms)
        res = est.estimate(reference_angle=pf14.Va[net14.slack_buses[0]])
        assert np.allclose(res.Va, pf14.Va, atol=1e-10)


class TestNoisyEstimation:
    def test_error_scales_with_noise(self, net118, pf118):
        errs = []
        for lvl in (0.5, 2.0):
            rng = np.random.default_rng(11)
            ms = generate_measurements(
                net118, full_placement(net118), pf118, noise_level=lvl, rng=rng
            )
            res = estimate_state(net118, ms)
            errs.append(res.state_error(pf118.Vm, pf118.Va)["vm_rmse"])
        assert errs[1] > errs[0]
        assert errs[1] / errs[0] == pytest.approx(4.0, rel=0.4)

    def test_estimate_beats_raw_measurements(self, net118, pf118):
        """Redundancy pays: the estimate is closer to truth than raw V meters."""
        rng = np.random.default_rng(5)
        plac = full_placement(net118)
        ms = generate_measurements(net118, plac, pf118, rng=rng)
        res = estimate_state(net118, ms)
        raw_vm = ms.z[ms.rows(MeasType.V_MAG)]
        raw_rmse = np.sqrt(np.mean((raw_vm - pf118.Vm) ** 2))
        assert res.state_error(pf118.Vm, pf118.Va)["vm_rmse"] < raw_rmse

    def test_scada_only_estimation(self, net118, pf118):
        rng = np.random.default_rng(2)
        ms = generate_measurements(
            net118, scada_placement(net118), pf118, rng=rng
        )
        res = estimate_state(net118, ms)
        assert res.converged
        err = res.state_error(pf118.Vm, pf118.Va)
        assert err["vm_rmse"] < 5e-3
        assert err["va_rmse"] < 5e-3

    def test_pmu_angles_fix_absolute_reference(self, net14, pf14):
        """With PMU angles, the estimate recovers absolute angles."""
        rng = np.random.default_rng(1)
        plac = full_placement(net14).merged_with(pmu_placement(net14))
        ms = generate_measurements(net14, plac, pf14, noise_level=0.0, rng=rng)
        est = WlsEstimator(net14, ms)
        assert est.has_pmu_angles
        assert est.n_states == 2 * 14  # no column dropped
        res = est.estimate()
        assert np.allclose(res.Va, pf14.Va, atol=1e-9)


class TestFailureModes:
    def test_underdetermined_raises(self, net14):
        ms = MeasurementSet([Measurement(MeasType.V_MAG, 0, 1.0, 0.01)])
        with pytest.raises(EstimationError, match="underdetermined"):
            estimate_state(net14, ms)

    def test_unobservable_raises(self, net14, pf14):
        # Plenty of measurements but only voltage magnitudes: angles
        # unobservable -> singular gain.
        ms = MeasurementSet(
            [Measurement(MeasType.V_MAG, b, 1.0, 0.01) for b in range(14)] * 2
        )
        with pytest.raises(EstimationError):
            estimate_state(net14, ms)


class TestConvergenceBehaviour:
    def test_step_norms_decrease(self, net118, pf118):
        rng = np.random.default_rng(6)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        res = estimate_state(net118, ms)
        # Gauss-Newton is locally quadratic: last step far smaller than first.
        assert res.step_norms[-1] < 1e-6 * res.step_norms[0]

    def test_dof_accounting(self, net14, pf14, rng):
        plac = full_placement(net14)
        ms = generate_measurements(net14, plac, pf14, rng=rng)
        res = estimate_state(net14, ms)
        assert res.dof == len(plac) - (2 * 14 - 1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_estimation_on_random_grids(self, seed):
        """Property: estimation on any synthetic grid converges and lands
        within measurement accuracy of the truth."""
        net = synthetic_grid(n_areas=3, buses_per_area=8, seed=seed)
        pf = run_ac_power_flow(net, flat_start=True)
        rng = np.random.default_rng(seed)
        ms = generate_measurements(net, full_placement(net), pf, rng=rng)
        res = estimate_state(net, ms)
        assert res.converged
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 5e-3


class TestArguments:
    """A bad ``tol`` or ``max_iter`` is refused before anything runs (the
    model is never evaluated), with the DSE's and the service's message."""

    @pytest.fixture()
    def est(self, net14, pf14, monkeypatch):
        ms = generate_measurements(
            net14, full_placement(net14), pf14, rng=np.random.default_rng(0)
        )
        est = WlsEstimator(net14, ms)

        def refuse(*args, **kwargs):
            raise AssertionError("the model was evaluated")

        monkeypatch.setattr(est.model, "currents", refuse)
        return est

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), 0.0, float("inf")])
    def test_bad_tol(self, est, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            est.estimate(tol=tol)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), 0.0])
    def test_bad_per_block_tol(self, est, bad):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            est.estimate_blocks(z=[None, None], tol=[1e-8, bad])

    def test_negative_max_iter(self, est):
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            est.estimate(max_iter=-3)

    @pytest.mark.parametrize(
        "probe, message",
        [
            ("weight -1", r"weights must be finite and >= 0; row 7 is -1\.0"),
            ("weight nan", r"weights must be finite and >= 0; row 7 is nan"),
            ("z inf", r"z row 7 is non-finite \(inf\)"),
        ],
    )
    def test_bad_rows_fail_at_the_door(self, net118, pf118, monkeypatch, probe, message):
        """A weight that is negative or not finite, or a ``z`` that is not
        finite, is refused before any factor is taken, naming the first
        offending row; in a stack it is that block's outcome alone.  Before
        the check, these probes (IEEE-118, full placement, seed 0, row 7)
        read: ``converged=True`` after 5 iterations on the weight of -1,
        and ``EstimationError: ...gain solve produced non-finite step`` on
        the other two."""
        ms = generate_measurements(
            net118, full_placement(net118), pf118, rng=np.random.default_rng(0)
        )
        est = WlsEstimator(net118, ms)
        z, w = ms.z.copy(), ms.weights.copy()
        if probe.startswith("weight"):
            w[7] = float(probe.split()[1])
        else:
            z[7] = np.inf
        clean, bad = est.estimate_blocks(z=[None, z], weights=[None, w])
        assert clean.converged and isinstance(bad, InputError) and bad.block == 1
        assert re.search(message, str(bad))

        def refuse(*args, **kwargs):
            raise AssertionError("a factor was taken")

        monkeypatch.setattr(solvers._SpdFactor, "factor", refuse)
        with pytest.raises(ValueError, match=message) as err:
            WlsEstimator(net118, ms).estimate(z=z, weights=w)
        assert isinstance(err.value, EstimationError) and err.value.block == 0

    def test_zero_max_iter_is_the_flat_start(self, net14, pf14):
        """``max_iter=0`` stays legal: the flat start's residuals, unsolved
        (what the Huber estimator starts from)."""
        ms = generate_measurements(
            net14, full_placement(net14), pf14, rng=np.random.default_rng(0)
        )
        est = WlsEstimator(net14, ms)
        res = est.estimate(max_iter=0)
        flat = np.ones(net14.n_bus), np.zeros(net14.n_bus)
        assert res.iterations == 0 and not res.converged
        assert np.array_equal(res.Vm, flat[0]) and np.array_equal(res.Va, flat[1])
        assert np.array_equal(res.residuals, ms.z - est.model.h(*flat))


def test_held_block_fills_no_jacobian(net118, pf118, central, monkeypatch):
    """An iteration fills the Jacobian of the blocks that factor in it
    alone — a union's factoring blocks, a stack's factoring replicas — and
    fills nothing when every running block solves against a held factor;
    recording the fills moves no bit."""
    dec = decompose(net118, 9, seed=0)
    plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(2))
    dse = DistributedStateEstimator(dec, ms)
    union_members = [dse._est1[s] for s in range(dec.m)]
    union = WlsEstimator.stacked(union_members)
    est = central["118"]
    rng = np.random.default_rng(3)
    z_union = [
        m.mset.z + 3.0 * m.mset.sigma * rng.standard_normal(len(m.mset))
        for m in union_members
    ]
    zs = [
        est.mset.z + est.mset.sigma * rng.standard_normal(len(est.mset))
        for _ in range(3)
    ]
    runs = [
        lambda: union.estimate_blocks(z=z_union),
        lambda: est.estimate_blocks(z=zs),
    ]
    want = [run() for run in runs]

    events = []
    fill_data = JacobianStructure.fill_data
    step_blocks = NormalEquations.step_blocks

    def recording_fill(self, Vm, Va, cur=None, adm=None, parts=None):
        events.append(("fill", parts, Vm.shape[1:]))
        return fill_data(self, Vm, Va, cur, adm, parts)

    def recording_step(self, rhs, active=None, operators=None, *args):
        events.append(("step", list(active), set(operators)))
        return step_blocks(self, rhs, active, operators, *args)

    monkeypatch.setattr(JacobianStructure, "fill_data", recording_fill)
    monkeypatch.setattr(NormalEquations, "step_blocks", recording_step)
    all_held = []
    for run, ref in zip(runs, want):
        events.clear()
        got = run()
        for a, b in zip(got, ref):
            assert np.array_equal(a.Vm, b.Vm) and np.array_equal(a.Va, b.Va)
            assert (a.iterations, a.factorizations) == (b.iterations, b.factorizations)
        steps = [i for i, e in enumerate(events) if e[0] == "step"]
        assert any(events[i][2] for i in steps)             # something held
        all_held.append(sum(not set(events[i][1]) - events[i][2] for i in steps))
        for i in steps:
            _, active, held = events[i]
            factoring = [b for b in active if b not in held]
            before = events[i - 1] if i else ("step",)
            if not factoring:
                assert before[0] == "step"                  # nothing filled
            elif before[2]:                                 # replicas: columns
                assert before[1] is None and before[2] == (len(factoring),)
            else:                                           # a union: parts
                assert list(before[1]) == factoring
        assert len(events) == len(steps) + sum(
            bool(set(events[i][1]) - events[i][2]) for i in steps
        )
    assert all(all_held)


# ---------------------------------------------------------------------------
# The frozen tail: a factor held below √tol moves no converged answer.
# ---------------------------------------------------------------------------
def _refactoring_reference(est, z, tol=1e-8, max_iter=60):
    """Gauss-Newton that factors a fresh gain on every iteration — the loop
    without its frozen tail — spelled as one-iteration estimates, each of
    which factors once (the first on the estimator's flat-start factor, the
    same bits) and has no previous step to hold a factor on."""
    x0, steps = None, []
    for _ in range(max_iter):
        res = est.estimate(x0=x0, z=z, tol=tol, max_iter=1)
        steps += res.step_norms
        x0 = (res.Vm, res.Va)
        if res.converged:
            break
    return replace(res, iterations=len(steps), step_norms=steps)


def _first_hold(steps, tol=1e-8):
    """The iteration whose fresh factor the loop holds, read off the step
    norms: the first step below √tol and below its predecessor."""
    for k in range(1, len(steps)):
        if tol <= steps[k] < min(np.sqrt(tol), steps[k - 1]):
            return k + 1
    return None


def _gross_frame(ms, seed, scale, n_gross, magnitude):
    """``ms``'s values with noise at ``scale`` σ and ``n_gross`` errors of
    ``magnitude`` σ: the larger the residuals, the slower the linear tail."""
    rng = np.random.default_rng(seed)
    z = ms.z + scale * ms.sigma * rng.standard_normal(len(ms))
    rows = rng.choice(len(ms), n_gross, replace=False)
    z[rows] += rng.choice([-1.0, 1.0], n_gross) * magnitude * ms.sigma[rows]
    return z


@pytest.fixture(scope="module")
def central(net14, pf14, net118, pf118):
    """One estimator per case over its full placement."""
    out = {}
    for name, net, pf in (("14", net14, pf14), ("118", net118, pf118)):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net, full_placement(net), pf, rng=rng)
        out[name] = WlsEstimator(net, ms)
    return out


class TestFrozenTail:
    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(["14", "118"]),
        seed=st.integers(0, 10_000),
        scale=st.sampled_from([0.1, 1.0, 20.0, 300.0]),
        n_gross=st.integers(0, 5),
        magnitude=st.sampled_from([20.0, 300.0, 1000.0]),
    )
    @example(case="14", seed=26, scale=300.0, n_gross=3, magnitude=1000.0)
    @example(case="14", seed=1314, scale=300.0, n_gross=0, magnitude=20.0)
    def test_tail_keeps_the_refactoring_answer(
        self, central, case, seed, scale, n_gross, magnitude
    ):
        """A frame that converges when every iteration factors converges
        here too, within 1e-9 of that answer.  The exception is a knife
        edge of the stopping rule (the second example: a tail contracting
        by 0.72, whose last reference step is 0.99 tol): one path stops an
        iteration later, and the two answers differ by no more than the
        stopping error each carries, ``tol·ρ/(1−ρ)``."""
        tol = 1e-8
        est = central[case]
        z = _gross_frame(est.mset, seed, scale, n_gross, magnitude)
        try:
            ref = _refactoring_reference(est, z, tol=tol)
        except EstimationError:
            assume(False)
        assume(ref.converged)
        res = est.estimate(z=z, tol=tol, max_iter=60)
        assert res.converged
        assert res.factorizations <= res.iterations
        gap = max(np.max(np.abs(res.Vm - ref.Vm)), np.max(np.abs(res.Va - ref.Va)))
        if res.iterations == ref.iterations:
            assert gap <= 1e-9
        else:
            assert abs(res.iterations - ref.iterations) == 1
            rho = ref.step_norms[-1] / ref.step_norms[-2]
            assert gap <= 2 * tol * rho / (1 - rho)

    def test_a_tail_that_stops_contracting_refactors(self, central):
        """The example frame's held factor meets a step that does not
        contract: the block drops it and factors again instead of stopping,
        and lands on the reference's answer in as many iterations.  Its
        iteration 1 solves against the estimator's flat-start factor, so
        iterations 2 … ``hold`` factor before the tail is held."""
        est = central["14"]
        z = _gross_frame(est.mset, 26, 300.0, 3, 1000.0)
        ref = _refactoring_reference(est, z)
        res = est.estimate(z=z, max_iter=60)
        hold = _first_hold(res.step_norms)
        assert hold is not None and res.factorizations > hold - 1
        assert res.converged and res.iterations == ref.iterations
        assert np.max(np.abs(res.Vm - ref.Vm)) <= 1e-9

    def test_no_held_factor_outlives_its_loop(
        self, central, net118, pf118, monkeypatch
    ):
        """Every factor the loop holds is in the kernel's operator mapping
        while it lives — so at most one per block — and gone when
        ``estimate_blocks`` returns, but for the estimator's own flat-start
        factors (one per block, one for all replicas): replicas with a
        what-if, a union of DSE subsystems, and a block that drops its
        factor and holds again."""
        made = []
        init = solvers._HeldFactor.__init__

        def recording(self, spd, **kwargs):
            init(self, spd, **kwargs)
            made.append(weakref.ref(self))

        step_blocks = NormalEquations.step_blocks

        def flats():
            held = (e.factors.get((0.0,)) for e in (est118, *members, est14))
            return [f for f in held if f is not None]

        def stray():
            """Held factors alive outside the estimators' flat factors."""
            alive = (ref() for ref in made)
            return [op for op in alive if op is not None and not any(
                op is f for f in flats()
            )]

        def watched(self, rhs, active=None, operators=None, *args):
            out = step_blocks(self, rhs, active, operators, *args)
            held = [
                op for op in (operators or {}).values()
                if isinstance(op, solvers._HeldFactor)
                and not any(op is f for f in flats())
            ]
            assert len(stray()) == len(held)
            return out

        monkeypatch.setattr(solvers._HeldFactor, "__init__", recording)
        monkeypatch.setattr(NormalEquations, "step_blocks", watched)

        est118 = central["118"]
        rng = np.random.default_rng(1)
        zs = [
            est118.mset.z + est118.mset.sigma * rng.standard_normal(len(est118.mset))
            for _ in range(3)
        ]
        outage = net118.br_status.copy()
        outage[0] = 0
        dec = decompose(net118, 9, seed=0)
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(2))
        dse = DistributedStateEstimator(dec, ms)
        members = [dse._est1[s] for s in range(dec.m)]
        union = WlsEstimator.stacked(members)
        est14 = central["14"]
        assert all(m.factors.get((0.0,)) is None for m in members)
        runs = [
            lambda: est118.estimate_blocks(z=[*zs, None], status=[None] * 3 + [outage]),
            lambda: union.estimate_blocks(),
            lambda: [est14.estimate(
                z=_gross_frame(est14.mset, 26, 300.0, 3, 1000.0), max_iter=60
            )],
        ]
        for run in runs:
            made.clear()
            results = run()
            assert made and not stray()
            assert all(r.factorizations < r.iterations for r in results)
        assert len(made) > 1                    # the last frame held twice
        assert all(m.factors.get((0.0,)) is not None for m in (*members, est14))


class TestFlatStartFactor:
    """The gain at the flat start is a constant of the estimator: factored
    once, held, and the first step of every later flat start."""

    @pytest.fixture()
    def watch(self, monkeypatch):
        """Every Jacobian fill, factorisation and kernel step, in order."""
        events = []
        fill_data = JacobianStructure.fill_data
        factor = solvers._SpdFactor.factor
        step_blocks = NormalEquations.step_blocks

        def recording_fill(self, *args, **kwargs):
            events.append("fill")
            return fill_data(self, *args, **kwargs)

        def recording_factor(self, values):
            events.append("factor")
            return factor(self, values)

        def recording_step(self, rhs, active=None, operators=None, *args):
            out = step_blocks(self, rhs, active, operators, *args)
            events.append(("step", dict(operators or {})))
            return out

        monkeypatch.setattr(JacobianStructure, "fill_data", recording_fill)
        monkeypatch.setattr(solvers._SpdFactor, "factor", recording_factor)
        monkeypatch.setattr(NormalEquations, "step_blocks", recording_step)
        return events

    @staticmethod
    def _iteration1(events):
        """The events up to and including iteration 1's step."""
        first = next(i for i, e in enumerate(events) if isinstance(e, tuple))
        return events[: first + 1]

    @pytest.mark.parametrize("case, mode", [("14", "dense"), ("118", "band")])
    def test_second_flat_start_factors_nothing_in_iteration_1(
        self, net14, net118, central, watch, case, mode
    ):
        """A second flat start of one estimator fills and factors nothing
        in iteration 1, and is the bits of a cold estimator's — and of an
        iteration 1 that factors the flat-start gain afresh (the flat start
        given as an ``x0``, which bypasses the held factor)."""
        net = {"14": net14, "118": net118}[case]
        ms = central[case].mset
        n = net.n_bus
        z = ms.z + ms.sigma * np.random.default_rng(7).standard_normal(len(ms))
        cold = WlsEstimator(net, ms).estimate(z=z)
        fresh = WlsEstimator(net, ms).estimate(z=z, x0=(np.ones(n), np.zeros(n)))
        est = WlsEstimator(net, ms)
        est.estimate(z=ms.z)
        assert est._kernel().spd.mode == mode
        watch.clear()
        warm = est.estimate(z=z)
        first = self._iteration1(watch)
        assert "fill" not in first and "factor" not in first
        assert first[-1][1] == {0: est.factors.get((0.0,))}
        for ref in (cold, fresh):
            for name in ("Vm", "Va", "residuals"):
                assert np.array_equal(getattr(warm, name), getattr(ref, name))
            assert (warm.iterations, warm.step_norms) == (ref.iterations, ref.step_norms)
        assert warm.factorizations == cold.factorizations == fresh.factorizations - 1

    def test_a_start_weights_or_status_of_its_own_bypass_it(
        self, net118, central, watch
    ):
        """The held factor is the flat start's on the set's own weights and
        topology: any of the three given — even equal to the defaults —
        and iteration 1 fills and factors as it always did."""
        est = central["118"]
        est.estimate()
        n = net118.n_bus
        for kwargs in (
            dict(x0=[(np.ones(n), np.zeros(n))]),
            dict(weights=[est.mset.weights.copy()]),
            dict(status=[net118.br_status.copy()]),
        ):
            watch.clear()
            (res,) = est.estimate_blocks(**kwargs)
            first = self._iteration1(watch)
            assert first[:2] == ["fill", "factor"] and first[-1][1] == {}
            assert res.converged
        # beside a what-if, a replica with none of the three still takes it
        watch.clear()
        est.estimate_blocks(z=[None, None], status=[None, net118.br_status.copy()])
        assert self._iteration1(watch)[-1][1] == {0: est.factors.get((0.0,))}

    def test_the_store_is_keyed_by_point_and_weights(self, net118, central):
        """One store per estimator: replicas share one flat-start factor; a
        point is factored on a miss and hit after, moved weights miss it,
        and a gain that does not factor is not keyed."""
        est = WlsEstimator(net118, central["118"].mset)
        est.estimate_blocks(z=[None] * 3)
        flat = est.factors.get((0.0,))
        assert flat is not None and est.factors.count == 1
        est.estimate_blocks(z=[None] * 2)
        assert est.factors.get((0.0,)) is flat and est.factors.count == 1
        assert est.factors.get((0.5,)) is None         # another reference angle
        sol = est.estimate()
        point = (sol.Vm, sol.Va)
        (op,) = est._held([point], [None])
        assert est._held([point], [None]) == [op] and est.factors.count == 2
        w = est.mset.weights.copy()
        w[0] *= 2.0
        assert est.factors.get(point, w) is None
        (moved,) = est._held([point], [w])
        assert moved is not op and est.factors.count == 3
        assert est.factors.get(point) is None       # one moved point held
        assert est.factors.get((0.0,)) is flat
        dead = (np.full(net118.n_bus, 1e-160), sol.Va)
        (err,) = est._held([dead], [None])
        assert isinstance(err, GainSolveError)
        assert est.factors.get(dead) is None and est.factors.count == 3
        assert est.factors.get(point, w) is moved

    def test_each_stack_block_holds_its_members_factor(self, net118, pf118):
        dec = decompose(net118, 9, seed=0)
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(2))
        dse = DistributedStateEstimator(dec, ms)
        stack = dse._stack("step1")
        stack.estimate_blocks()
        for s in range(dec.m):
            member = dse._est1[s]
            held, count = member.factors.get((0.0,)), member.factors.count
            member.estimate()
            # the stack filled the member's store: one object, no refactor
            assert held is not None and member.factors.get((0.0,)) is held
            assert member.factors.count == count == 1


class TestStateError:
    def test_every_result_type_reports_the_same_four_numbers(self):
        """One ``state_error`` behind ``EstimationResult``, ``DseResult``,
        ``HierarchicalResult`` and ``LiveDseResult`` (which used to lack the
        two max-error keys)."""
        from repro.core.runtime import LiveDseResult
        from repro.dse import DseResult, HierarchicalResult
        from repro.estimation.results import EstimationResult, state_error

        rng = np.random.default_rng(4)
        Vm_true, Va_true = 1 + 0.05 * rng.standard_normal(9), rng.standard_normal(9)
        Vm, Va = Vm_true + 1e-3 * rng.standard_normal(9), Va_true + 1e-3 * rng.standard_normal(9)
        want = state_error(Vm, Va, Vm_true, Va_true)
        assert set(want) == {"vm_rmse", "va_rmse", "vm_max", "va_max"}
        assert want["vm_max"] == np.abs(Vm - Vm_true).max() >= want["vm_rmse"] > 0
        for res in (
            EstimationResult(True, 1, Vm, Va, np.zeros(0), 0.0, 0),
            DseResult(Vm, Va, 1, {}, []),
            HierarchicalResult(Vm, Va, np.zeros(1), {}, 0),
            LiveDseResult(Vm, Va, 1, 0.0, {}),
        ):
            assert res.state_error(Vm_true, Va_true) == want
        # a common reference shift is not an angle error
        assert state_error(Vm, Va_true + 0.3, Vm, Va_true)["va_max"] < 1e-12


# ---------------------------------------------------------------------------
# Weights are data of the one loop; the gain factor is the estimator's own.
# ---------------------------------------------------------------------------
def _reference_omega(est, res):
    """The residual covariance diagonal ``R - diag(H G⁻¹ Hᵀ)`` as the
    previous ``normalized_residuals`` computed it (``build_gain`` + ``splu``,
    a second symbolic pass), unfloored — kept as the reference."""
    H = est.model.jacobian(res.Vm, res.Va).tocsc()[:, est._keep]
    lu = spla.splu(build_gain(H, est.mset.weights).tocsc())
    S = lu.solve(H.T.toarray())
    hgh = np.asarray(H.tocsr().multiply(S.T).sum(axis=1)).ravel()
    return est.mset.sigma**2 - hgh


def _reference_state_variances(est, res):
    """``diag(G⁻¹)`` as the previous ``state_covariance`` computed it."""
    H = est.model.jacobian(res.Vm, res.Va).tocsc()[:, est._keep]
    lu = spla.splu(build_gain(H, est.mset.weights).tocsc())
    return np.maximum(lu.solve(np.eye(H.shape[1])).diagonal(), 0.0)


class _Counter:
    """Counts calls of ``owner.name`` while active (constructions when
    ``name`` is ``__init__``)."""

    def __init__(self, monkeypatch, *targets):
        self.calls = {}
        for owner, name in targets:
            key = f"{getattr(owner, '__name__', owner)}.{name}"
            self.calls[key] = 0
            monkeypatch.setattr(owner, name, self._wrap(key, getattr(owner, name)))

    def _wrap(self, key, fn):
        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self) -> list[int]:
        """The counts since the last ``take``, in target order."""
        out = list(self.calls.values())
        self.calls = dict.fromkeys(self.calls, 0)
        return out


@pytest.fixture(scope="module")
def noisy14(net14, pf14):
    rng = np.random.default_rng(21)
    return generate_measurements(net14, full_placement(net14), pf14, rng=rng)


class TestWeightsAreData:
    @settings(max_examples=25, deadline=None)
    @given(dropped=st.sets(st.integers(0, 121), max_size=40))
    def test_row_mask_equals_subset_estimator(self, net14, noisy14, dropped):
        """A zero weight is a removed row: the masked solve on the one
        estimator is the subset set's own estimator."""
        ms = noisy14
        assert len(ms) == 122
        mask = np.ones(len(ms), dtype=bool)
        mask[sorted(dropped)] = False
        assume(is_observable(net14, ms.subset(mask)))
        ref = WlsEstimator(net14, ms.subset(mask)).estimate()
        res = WlsEstimator(net14, ms).estimate(weights=mask * ms.weights)
        assert np.max(np.abs(res.Vm - ref.Vm)) <= 1e-12
        assert np.max(np.abs(res.Va - ref.Va)) <= 1e-12
        assert (res.iterations, res.dof) == (ref.iterations, ref.dof)
        assert res.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
        # every row's residual is still reported
        assert len(res.residuals) == len(ms)
        assert np.allclose(res.residuals[mask], ref.residuals, atol=1e-11)

    def test_own_weights_move_no_bit(self, net14, noisy14):
        est = WlsEstimator(net14, noisy14)
        a, b = est.estimate(), est.estimate(weights=noisy14.weights)
        assert np.array_equal(a.Vm, b.Vm) and np.array_equal(a.Va, b.Va)
        assert (a.objective, a.dof, a.step_norms) == (b.objective, b.dof, b.step_norms)

    def test_wrong_length_weights_raise(self, net14, noisy14):
        est = WlsEstimator(net14, noisy14)
        with pytest.raises(ValueError, match="weights length"):
            est.estimate(weights=noisy14.weights[:-1])
        with pytest.raises(ValueError, match="per block"):
            est.estimate_blocks(z=[None, None], weights=[None])

    def test_masking_past_the_states_is_underdetermined(self, net14, noisy14):
        w = noisy14.weights
        w[20:] = 0.0
        with pytest.raises(EstimationError, match="underdetermined: 20"):
            WlsEstimator(net14, noisy14).estimate(weights=w)

    def test_masked_block_leaves_the_others_alone(self, net14, pf14):
        sets = [
            generate_measurements(
                net14, full_placement(net14), pf14, rng=np.random.default_rng(k)
            )
            for k in range(3)
        ]
        stack = WlsEstimator.stacked([WlsEstimator(net14, ms) for ms in sets])
        w = sets[1].weights
        w[[3, 40, 77]] = 0.0
        plain = stack.estimate_blocks()
        masked = stack.estimate_blocks(weights=[None, w, None])
        for b in (0, 2):
            assert np.array_equal(masked[b].Vm, plain[b].Vm)
            assert np.array_equal(masked[b].Va, plain[b].Va)
            assert masked[b].objective == plain[b].objective
        alone = WlsEstimator(net14, sets[1]).estimate(weights=w)
        assert np.array_equal(masked[1].Vm, alone.Vm)
        assert masked[1].dof == plain[1].dof - 3

    def test_replicas_take_their_own_weights(self, net14, noisy14):
        est = WlsEstimator(net14, noisy14)
        w = noisy14.weights
        w[[5, 60]] = 0.0
        base, masked = est.estimate(), est.estimate(weights=w)
        out = est.estimate_blocks(weights=[None, w, None])
        assert np.array_equal(out[0].Vm, base.Vm) and np.array_equal(out[2].Va, base.Va)
        assert np.array_equal(out[1].Vm, masked.Vm)
        assert (out[1].dof, out[1].objective) == (masked.dof, masked.objective)

    @pytest.mark.parametrize("bad_rows", [(), (123,), (30, 150, 400)])
    def test_statistics_agree_with_the_reference_forms(self, net118, pf118, bad_rows):
        rng = np.random.default_rng(3)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        if bad_rows:
            ms = inject_bad_data(ms, np.array(bad_rows), magnitude_sigmas=30, rng=rng)
        est = WlsEstimator(net118, ms)
        res = est.estimate()
        omega = _reference_omega(est, res)
        ref = np.abs(res.residuals) / np.sqrt(np.maximum(omega, 1e-12))
        rn = normalized_residuals(est, res)
        live = omega > 1e-12            # rows the floor does not decide
        assert np.allclose(rn[live], ref[live], rtol=1e-8, atol=0)
        assert int(np.argmax(rn)) == int(np.argmax(ref))
        cov = state_covariance(est, res)
        var = np.zeros(2 * net118.n_bus)
        var[est._keep] = _reference_state_variances(est, res)
        assert np.allclose(cov.va_std, np.sqrt(var[:118]), rtol=1e-8, atol=0)
        assert np.allclose(cov.vm_std, np.sqrt(var[118:]), rtol=1e-8, atol=0)

    def test_identification_builds_one_estimator(self, net118, pf118, monkeypatch):
        rng = np.random.default_rng(5)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        bad = inject_bad_data(ms, np.array([10, 200, 333]), magnitude_sigmas=25, rng=rng)
        count = _Counter(
            monkeypatch, (WlsEstimator, "__init__"), (NormalEquations, "__init__")
        )
        report = identify_bad_data(net118, bad)
        assert sorted(report.removed_rows) == [10, 200, 333]
        assert len(report.result.residuals) == len(report.clean)
        assert count.take() == [1, 1]

    def test_screened_session_builds_nothing_on_a_known_placement(
        self, net118, pf118, monkeypatch
    ):
        """The bad-data screen is the kept estimator's own Step 1: a clean
        frame of a known placement constructs nothing, and on a frame with a
        gross error neither the screen, nor the identification, nor the
        estimate without the removed row does."""
        import repro.dse.algorithm as algorithm

        arch = ArchitecturePrototype.assemble(net118, m_subsystems=9, seed=0)
        dec = arch.dec
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        rng = np.random.default_rng(8)

        def scan():
            return generate_measurements(net118, plac, pf118, rng=rng)

        session = DseSession(arch, bad_data_policy="identify")
        unscreened = DseSession(arch)
        for _ in range(2):                      # warm: stacks built
            session.process_frame(scan())
            unscreened.process_frame(scan())
        clean = [scan() for _ in range(3)]
        count = _Counter(
            monkeypatch,
            (WlsEstimator, "__init__"),
            (NormalEquations, "__init__"),
            (MeasurementModel, "__init__"),
            (algorithm, "extract_subnetwork"),
        )
        # the noise-level estimate holds its model too: a steady frame of
        # a known placement builds nothing, screened or not
        unscreened.process_frame(clean[0])
        assert count.take() == [0, 0, 0, 0]
        assert not session.process_frame(clean[1]).bad_data.removed_global_rows
        assert count.take() == [0, 0, 0, 0]

        internal = set(dec.buses(2)) - set(dec.boundary_buses(2))
        row = next(
            r for r, m in enumerate(clean[2])
            if m.mtype == MeasType.V_MAG and m.element in internal
        )
        bad = inject_bad_data(clean[2], np.array([row]), magnitude_sigmas=40, rng=rng)
        kept = session._dse
        count.take()
        report = distributed_bad_data(kept, bad.z)
        assert report.removed_global_rows == [row]
        assert report.suspect_subsystems == [2]
        assert count.take() == [0, 0, 0, 0]
        # the frame runs the kept estimator with the removed row at weight
        # 0: it builds what a clean frame builds, nothing
        assert session.process_frame(bad).bad_data.removed_global_rows == [row]
        assert count.take() == [0, 0, 0, 0]
        assert session._dse is kept

    def test_screened_condensed_session_builds_nothing(
        self, net118, pf118, monkeypatch
    ):
        """The condensed session's screened frame also runs on its kept
        estimator: the removed row's zero weight is data of its carried
        factors' keys, not a new estimator."""
        import repro.dse.algorithm as algorithm

        arch = ArchitecturePrototype.assemble(net118, m_subsystems=9, seed=0)
        dec = arch.dec
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        rng = np.random.default_rng(8)
        session = DseSession(arch, bad_data_policy="identify", condense=True)
        for _ in range(2):                      # warm: stacks built
            session.process_frame(generate_measurements(net118, plac, pf118, rng=rng))
        clean = generate_measurements(net118, plac, pf118, rng=rng)
        internal = set(dec.buses(2)) - set(dec.boundary_buses(2))
        row = next(
            r for r, m in enumerate(clean)
            if m.mtype == MeasType.V_MAG and m.element in internal
        )
        bad = inject_bad_data(clean, np.array([row]), magnitude_sigmas=40, rng=rng)
        kept = session._dse
        count = _Counter(
            monkeypatch,
            (WlsEstimator, "__init__"),
            (NormalEquations, "__init__"),
            (MeasurementModel, "__init__"),
            (algorithm, "extract_subnetwork"),
        )
        assert session.process_frame(bad).bad_data.removed_global_rows == [row]
        assert count.take() == [0, 0, 0, 0]
        assert session._dse is kept

    def test_identification_reuses_the_screens_step1(
        self, net118, pf118, monkeypatch
    ):
        """On a screened session frame with one gross error, identification
        starts from the screen's Step-1 result for the suspect subsystem
        instead of solving it again, and removes the same rows as the loop
        that solves it itself."""
        from repro.estimation.baddata import identify_rows

        arch = ArchitecturePrototype.assemble(net118, m_subsystems=9, seed=0)
        dec = arch.dec
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        rng = np.random.default_rng(8)
        clean = generate_measurements(net118, plac, pf118, rng=rng)
        internal = set(dec.buses(2)) - set(dec.boundary_buses(2))
        row = next(
            r for r, m in enumerate(clean)
            if m.mtype == MeasType.V_MAG and m.element in internal
        )
        bad = inject_bad_data(clean, np.array([row]), magnitude_sigmas=40, rng=rng)
        session = DseSession(arch, bad_data_policy="identify")
        session.process_frame(clean)
        suspect = session._dse._est1[2]
        solves = []
        blocks = WlsEstimator.estimate_blocks

        def counted(est, *args, **kwargs):
            solves.append(est)
            return blocks(est, *args, **kwargs)

        monkeypatch.setattr(WlsEstimator, "estimate_blocks", counted)
        report = session.process_frame(bad).bad_data
        assert report.removed_global_rows == [row]
        # only the re-solve after removing the row: the first pass is the
        # screen's own Step 1, solved in the stacked loop
        assert sum(est is suspect for est in solves) == 1
        solves.clear()
        removed, _, passes = identify_rows(suspect, z=session._dse._step1_z(2, bad.z))
        assert sum(est is suspect for est in solves) == 2
        assert removed == report.subsystems[2].removed_local_rows and passes

    def test_hierarchical_level_one_is_the_dse_step_one(self, net118, pf118):
        dec = decompose(net118, 9, seed=0)
        plac = full_placement(net118).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net118, plac, pf118, rng=np.random.default_rng(0))
        step1 = DistributedStateEstimator(dec, ms).run(rounds=0)
        local = HierarchicalStateEstimator(dec, ms).run().local_results
        for s, rec in step1.records.items():
            assert np.array_equal(local[s].Vm, rec.step1_result.Vm)
            assert np.array_equal(local[s].Va, rec.step1_result.Va)
            assert local[s].iterations == rec.step1_result.iterations
