"""Copy-on-write scenario forking and the batched (SIMD) estimator.

The batched stack optimises a sweep of *nearly identical* problems:
scenarios are compact deltas against one base network, and a batch of them
runs as K replica blocks of the one Gauss-Newton loop
(``WlsEstimator.estimate_blocks``) on one model, one Jacobian pattern and
one kernel.  The contract under test is *equivalence with the serial
path*: bit for bit while no scenario of a chunk flips a branch, ≤1e-10 of
the estimator on the forked network (with equal iteration counts) when one
does — including scenarios that do not converge, which must be reported
identically, and scenarios that fail, which must fail alone.
"""

import dataclasses

import numpy as np
import pytest

from repro.contingency import (
    ContingencyAnalyzer,
    enumerate_n1,
    run_parallel,
)
from repro.contingency.screening import apply_outage, outage_delta
from repro.estimation import (
    BatchEstimator,
    BatchScenario,
    EstimationError,
    WlsEstimator,
)
from repro.estimation.outputs import area_interchange
from repro.estimation.solvers import NormalEquations
from repro.grid import (
    DcCompensationSolver,
    DeltaError,
    NetworkDelta,
    run_dc_power_flow,
    run_dc_power_flow_batch,
)
from repro.grid.ybus import batch_branch_admittances, branch_admittances
from repro.measurements import MeasurementModel, full_placement, generate_measurements
from repro.measurements.functions import JacobianStructure

# A 2-branch outage that keeps both bundled cases connected.
SAFE_PAIR = (0, 2)


def _mset(net, pf, seed=7):
    rng = np.random.default_rng(seed)
    return generate_measurements(net, full_placement(net), pf, rng=rng)


def _same_solve(got, ref):
    """``got`` is bit for bit the serial estimator's ``ref``."""
    assert np.array_equal(got.Vm, ref.Vm)
    assert np.array_equal(got.Va, ref.Va)
    assert np.array_equal(got.residuals, ref.residuals)
    assert got.iterations == ref.iterations
    assert got.step_norms == ref.step_norms
    assert got.converged == ref.converged
    assert got.objective == ref.objective
    assert got.dof == ref.dof


def _net_arrays_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


# ---------------------------------------------------------------------------
# NetworkDelta / fork
# ---------------------------------------------------------------------------
class TestNetworkDelta:
    def test_fork_matches_eager_copy_bitwise(self, net14):
        delta = NetworkDelta.branch_outage(0, 5).compose(
            NetworkDelta.load_override([2, 4], Pd=[0.3, 0.1], Qd=[0.05, 0.0])
        )
        forked = net14.fork(delta)
        eager = delta.materialize(net14)
        _net_arrays_equal(forked, eager)

    def test_fork_shares_untouched_arrays(self, net14):
        forked = net14.fork(NetworkDelta.branch_outage(3))
        # touched column is fresh, everything else is the base's own array
        assert forked.br_status is not net14.br_status
        assert forked.r is net14.r
        assert forked.x is net14.x
        assert forked.Pd is net14.Pd
        assert forked.Vm0 is net14.Vm0
        assert net14.br_status[3] == 1  # base untouched

    def test_empty_delta_fork_is_view(self, net14):
        forked = net14.fork()
        assert forked is not net14
        assert forked.br_status is net14.br_status

    def test_delta_cost_is_o_changes(self, net118):
        delta = NetworkDelta.branch_outage(7)
        # one (idx, val) pair — orders of magnitude below the full network
        assert delta.nbytes <= 16
        assert delta.n_changes == 1
        full = sum(
            getattr(net118, f.name).nbytes
            for f in dataclasses.fields(net118)
            if isinstance(getattr(net118, f.name), np.ndarray)
        )
        assert delta.nbytes < full / 100

    def test_compose_keeps_last_write(self):
        a = NetworkDelta.branch_status([1, 2], [0, 0])
        b = NetworkDelta.branch_status([2, 3], [1, 0])
        c = a.compose(b)
        status = {int(i): int(v) for i, v in zip(c.br_idx, c.br_val)}
        assert status == {1: 0, 2: 1, 3: 0}

    def test_payload_round_trip(self, net14):
        delta = NetworkDelta.branch_outage(1, label="ot").compose(
            NetworkDelta.v0_seed(Vm=net14.Vm0 * 1.01)
        )
        back = NetworkDelta.from_payload(delta.to_payload())
        _net_arrays_equal(net14.fork(delta), net14.fork(back))

    def test_branch_status_of(self, net14):
        delta = NetworkDelta.branch_outage(0, 4)
        status = delta.branch_status_of(net14)
        assert status[0] == 0 and status[4] == 0
        assert status.sum() == net14.br_status.sum() - 2

    def test_invalid_deltas_raise(self, net14):
        with pytest.raises(DeltaError):
            NetworkDelta(br_idx=np.array([0]), br_val=np.array([2], np.int8))
        with pytest.raises(DeltaError):
            NetworkDelta.branch_outage(-1)
        with pytest.raises(DeltaError):
            net14.fork(NetworkDelta.branch_outage(net14.n_branch))
        with pytest.raises(DeltaError):
            net14.fork(NetworkDelta.load_override(net14.n_bus, Pd=0.1))

    def test_apply_outage_is_cow_fork(self, net14):
        cons, _ = enumerate_n1(net14)
        forked = apply_outage(net14, cons[0])
        assert forked.r is net14.r
        assert forked.br_status[cons[0].branch] == 0


# ---------------------------------------------------------------------------
# Batched admittances / DC compensation
# ---------------------------------------------------------------------------
class TestBatchedGridKernels:
    def test_batch_admittances_match_serial(self, net118):
        deltas = [NetworkDelta.branch_outage(b) for b in (0, 2, 40)]
        status = np.stack([d.branch_status_of(net118) for d in deltas])
        adm = batch_branch_admittances(net118, status)
        for k, d in enumerate(deltas):
            ref = branch_admittances(net118.fork(d))
            assert np.array_equal(adm.yff[:, k], ref.yff)
            assert np.array_equal(adm.yft[:, k], ref.yft)
            assert np.array_equal(adm.ytf[:, k], ref.ytf)
            assert np.array_equal(adm.ytt[:, k], ref.ytt)

    def test_compensation_matches_refactor_sweep(self, net118):
        cons, _ = enumerate_n1(net118)
        deltas = [outage_delta(c) for c in cons]
        flows = run_dc_power_flow_batch(net118, deltas)
        for d, pf in zip(deltas, flows):
            ref = run_dc_power_flow(net118.fork(d))
            assert pf.converged
            assert np.allclose(pf.Pf, ref.Pf, atol=1e-10)
            assert np.allclose(pf.Va, ref.Va, atol=1e-10)

    def test_compensation_rank2_and_load(self, net14):
        delta = NetworkDelta.branch_outage(*SAFE_PAIR).compose(
            NetworkDelta.load_override([3], Pd=[0.7])
        )
        (pf,) = run_dc_power_flow_batch(net14, [delta])
        ref = run_dc_power_flow(net14.fork(delta))
        assert np.allclose(pf.Pf, ref.Pf, atol=1e-10)

    def test_compensation_flags_islanding(self, net14):
        cons, islanding = enumerate_n1(net14)
        assert islanding  # case14 has a radial branch
        solver = DcCompensationSolver(net14)
        (pf,) = solver.solve([outage_delta(islanding[0])])
        assert not pf.converged
        # every non-slack angle is poisoned; the slack reference stays 0
        nonslack = np.setdiff1d(np.arange(net14.n_bus), net14.slack_buses)
        assert np.isnan(pf.Va[nonslack]).all()


# ---------------------------------------------------------------------------
# BatchEstimator
# ---------------------------------------------------------------------------
class TestBatchEstimator:
    def test_k1_bitwise_identical(self, net14, pf14):
        ms = _mset(net14, pf14)
        ref = WlsEstimator(net14, ms).estimate()
        got = BatchEstimator(net14, ms).estimate()
        assert got.converged and got.iterations == ref.iterations
        assert np.array_equal(got.Vm, ref.Vm)
        assert np.array_equal(got.Va, ref.Va)
        assert got.objective == ref.objective

    @pytest.mark.parametrize("case", ["net14", "net118"])
    def test_mixed_topology_batch_matches_serial(self, case, request):
        net = request.getfixturevalue(case)
        pf = request.getfixturevalue("pf14" if case == "net14" else "pf118")
        ms = _mset(net, pf)
        scenarios = [
            None,
            NetworkDelta.branch_outage(SAFE_PAIR[0]),
            NetworkDelta.branch_outage(SAFE_PAIR[1]),
            NetworkDelta.branch_outage(*SAFE_PAIR),
        ]
        batch = BatchEstimator(net, ms).estimate_batch(scenarios)
        for sc, got in zip(scenarios, batch):
            base = net if sc is None else net.fork(sc)
            ref = WlsEstimator(base, ms).estimate()
            assert got.converged == ref.converged
            assert got.iterations == ref.iterations
            assert np.allclose(got.Vm, ref.Vm, atol=1e-10)
            assert np.allclose(got.Va, ref.Va, atol=1e-10)
            assert np.allclose(got.step_norms, ref.step_norms, atol=1e-10)

    def test_k32_value_frames(self, net14, pf14):
        ms = _mset(net14, pf14)
        rng = np.random.default_rng(11)
        zs = [
            ms.z + 0.01 * ms.sigma * rng.standard_normal(len(ms))
            for _ in range(32)
        ]
        batch = BatchEstimator(net14, ms).estimate_batch(
            [BatchScenario(z=z) for z in zs]
        )
        assert len(batch) == 32
        serial = WlsEstimator(net14, ms)
        for z, got in zip(zs, batch):
            _same_solve(got, serial.estimate(z=z))

    @pytest.mark.parametrize("K", [1, 2])
    def test_small_value_stacks_equal_serial(self, K, net118, pf118):
        """No scenario flips a branch: every replica is the serial solve,
        bit for bit, warm starts included."""
        ms = _mset(net118, pf118)
        rng = np.random.default_rng(5)
        serial = WlsEstimator(net118, ms)
        warm = serial.estimate()
        scenarios = [
            BatchScenario(
                z=ms.z + ms.sigma * rng.standard_normal(len(ms)),
                x0=(warm.Vm, warm.Va) if k % 2 else None,
            )
            for k in range(K)
        ]
        batch = BatchEstimator(net118, ms).estimate_batch(scenarios)
        for sc, got in zip(scenarios, batch):
            _same_solve(got, serial.estimate(z=sc.z, x0=sc.x0))

    @pytest.mark.parametrize("case", ["14", "118"])
    def test_value_frame_beside_a_whatif(self, case, request):
        """A value frame is bit for bit the serial ``estimate(z=)`` while no
        what-if shares its chunk; beside a what-if every replica runs on
        per-replica admittances, which moves it by no more than an ulp or
        so (1e-14 here)."""
        net = request.getfixturevalue("net" + case)
        ms = _mset(net, request.getfixturevalue("pf" + case))
        z = ms.z + ms.sigma * np.random.default_rng(8).standard_normal(len(ms))
        ref = WlsEstimator(net, ms).estimate(z=z)
        batch = BatchEstimator(net, ms)
        alone, _ = batch.estimate_batch([BatchScenario(z=z), BatchScenario(z=ms.z)])
        _same_solve(alone, ref)
        beside, _ = batch.estimate_batch(
            [BatchScenario(z=z), BatchScenario(delta=NetworkDelta.branch_outage(0))]
        )
        assert beside.converged and beside.iterations == ref.iterations
        assert np.abs(beside.Vm - ref.Vm).max() <= 1e-14
        assert np.abs(beside.Va - ref.Va).max() <= 1e-14

    def test_nonconverged_reported_identically(self, net14, pf14):
        ms = _mset(net14, pf14)
        scenarios = [None, NetworkDelta.branch_outage(SAFE_PAIR[0])]
        batch = BatchEstimator(net14, ms).estimate_batch(scenarios, max_iter=2)
        for sc, got in zip(scenarios, batch):
            base = net14 if sc is None else net14.fork(sc)
            ref = WlsEstimator(base, ms).estimate(max_iter=2)
            assert not got.converged and not ref.converged
            assert got.iterations == ref.iterations == 2
            assert np.allclose(got.Vm, ref.Vm, atol=1e-10)

    def test_mixed_convergence_mask(self, net14, pf14):
        """Warm-started scenarios finish early, cold ones keep iterating."""
        ms = _mset(net14, pf14)
        est = BatchEstimator(net14, ms)
        ref = est.estimate()
        batch = est.estimate_batch(
            [BatchScenario(x0=(ref.Vm, ref.Va)), None, None]
        )
        assert batch.converged.all()
        assert batch[0].iterations < batch[1].iterations
        assert np.array_equal(batch[1].Vm, ref.Vm)
        assert np.array_equal(batch[2].Va, ref.Va)

    def test_max_iter_reported_per_scenario(self, net14, pf14):
        """One warm replica converges inside the budget, the cold ones do
        not: each reports its own flag and count, as the serial solve."""
        ms = _mset(net14, pf14)
        serial = WlsEstimator(net14, ms)
        warm = serial.estimate()
        scenarios = [None, BatchScenario(x0=(warm.Vm, warm.Va)), None]
        batch = BatchEstimator(net14, ms).estimate_batch(scenarios, max_iter=2)
        assert batch.converged.tolist() == [False, True, False]
        assert batch.iterations.tolist() == [2, 1, 2]
        _same_solve(batch[0], serial.estimate(max_iter=2))
        _same_solve(batch[1], serial.estimate(x0=(warm.Vm, warm.Va), max_iter=2))

    def test_chunking_respects_max_batch(self, net14, pf14):
        ms = _mset(net14, pf14)
        est = BatchEstimator(net14, ms, max_batch=3)
        batch = est.estimate_batch([None] * 7)
        ref = est.estimate()
        for got in batch:
            assert np.array_equal(got.Vm, ref.Vm)

    def test_one_model_per_estimator(self, net14, pf14, monkeypatch):
        """One MeasurementModel, one Jacobian structure and one kernel over
        a BatchEstimator's life, whatever the chunks look like."""
        ms = _mset(net14, pf14)
        built = {cls: 0 for cls in (MeasurementModel, JacobianStructure, NormalEquations)}
        for cls in built:
            init = cls.__init__

            def counting(self, *args, _cls=cls, _init=init, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        outage = NetworkDelta.branch_outage(SAFE_PAIR[0])
        est = BatchEstimator(net14, ms, max_batch=3)
        est.estimate_batch([None])                      # K = 1
        est.estimate_batch([outage])                    # K = 1 what-if
        est.estimate_batch([None] * 7)                  # chunks of 3, 3, 1
        est.estimate_batch([BatchScenario(z=ms.z), outage, None])   # mixed
        assert list(built.values()) == [1, 1, 1]

    def test_failing_scenario_fails_alone(self, net14, pf14):
        """An islanding what-if ends in its own EstimationError; the
        scenarios stacked with it come out as if it were not there."""
        ms = _mset(net14, pf14)
        _, islanding = enumerate_n1(net14)
        bad = outage_delta(islanding[0])
        safe = NetworkDelta.branch_outage(SAFE_PAIR[0])
        est = BatchEstimator(net14, ms)
        outcomes = est.outcomes([None, bad, safe])
        assert isinstance(outcomes[1], EstimationError)
        alone = est.outcomes([None, safe])
        for got, ref in zip([outcomes[0], outcomes[2]], alone):
            _same_solve(got, ref)
        ref = WlsEstimator(net14.fork(safe), ms).estimate()
        assert outcomes[2].iterations == ref.iterations
        assert np.allclose(outcomes[2].Vm, ref.Vm, atol=1e-10)

    def test_islanding_delta_raises_like_serial(self, net14, pf14):
        ms = _mset(net14, pf14)
        _, islanding = enumerate_n1(net14)
        bad = outage_delta(islanding[0])
        with pytest.raises(EstimationError):
            WlsEstimator(net14.fork(bad), ms).estimate()
        with pytest.raises(EstimationError):
            BatchEstimator(net14, ms).estimate_batch([bad, None])

    def test_bad_inputs(self, net14, pf14):
        ms = _mset(net14, pf14)
        est = BatchEstimator(net14, ms)
        with pytest.raises(ValueError):
            est.estimate_batch([BatchScenario(z=np.zeros(3))] * 2)
        with pytest.raises(TypeError):
            est.estimate_batch(["outage"])
        with pytest.raises(ValueError):
            BatchEstimator(net14, ms, max_batch=0)


# ---------------------------------------------------------------------------
# Batched contingency screening
# ---------------------------------------------------------------------------
def _violations_match(got, exp, ratings):
    """Violation lists must match except knife-edge flips (|flow|==rating)."""
    gset = {v.branch for v in got.violations}
    eset = {v.branch for v in exp.violations}
    for b in gset ^ eset:
        v = next(v for v in (got.violations + exp.violations) if v.branch == b)
        assert abs(abs(v.flow) - v.rating) < 1e-9, f"non-knife-edge flip {v}"


class TestContingencyBatch:
    @pytest.mark.parametrize("case", ["net14", "net118"])
    def test_analyze_batch_matches_serial(self, case, request):
        net = request.getfixturevalue(case)
        analyzer = ContingencyAnalyzer(net, method="dc", rating_margin=1.1)
        cons, _ = enumerate_n1(net)
        got = analyzer.analyze_batch(cons)
        for c, g in zip(cons, got):
            e = analyzer.analyze(c)
            assert g.converged == e.converged
            assert abs(g.max_loading - e.max_loading) < 1e-9
            _violations_match(g, e, analyzer.ratings)

    def test_run_parallel_batch_scheme(self, net14):
        """A DC sweep drains through the batched solve with no knob."""
        analyzer = ContingencyAnalyzer(net14, method="dc")
        cons, _ = enumerate_n1(net14)
        report = run_parallel(analyzer, cons)
        assert report.scheme == "batch"
        assert report.per_worker_cases == [len(cons)]
        assert len(report.results) == len(cons)
        ref = [analyzer.analyze(c) for c in cons]
        for g, e in zip(report.results, ref):
            assert g.contingency == e.contingency
            assert abs(g.max_loading - e.max_loading) < 1e-9

    def test_analyze_all_batch_flag(self, net14):
        """``analyze_all`` needs no ``batch=`` flag: a DC list is the
        batched solve, bit for bit."""
        analyzer = ContingencyAnalyzer(net14, method="dc")
        cons, _ = enumerate_n1(net14)
        got = analyzer.analyze_all(cons)
        ref = analyzer.analyze_batch(cons)
        assert [(g.contingency, g.converged, g.max_loading) for g in got] == [
            (e.contingency, e.converged, e.max_loading) for e in ref
        ]

    def test_ac_method_falls_back(self, net14):
        analyzer = ContingencyAnalyzer(net14, method="ac")
        cons, _ = enumerate_n1(net14)
        got = analyzer.analyze_batch(cons[:3])
        for c, g in zip(cons, got):
            e = analyzer.analyze(c)
            assert g.max_loading == e.max_loading


# ---------------------------------------------------------------------------
# ScenarioService batch_solve drain path
# ---------------------------------------------------------------------------
class TestServingBatchSolve:
    @pytest.fixture()
    def svc_parts(self, net14, pf14):
        from repro.dse import decompose, dse_pmu_placement

        dec = decompose(net14, 2, seed=0)
        rng = np.random.default_rng(3)
        plac = full_placement(net14).merged_with(dse_pmu_placement(dec))
        ms = generate_measurements(net14, plac, pf14, rng=rng)
        return dec, ms

    def test_one_flush_one_batched_solve(self, svc_parts, net14):
        from repro.serving import ScenarioService

        dec, ms = svc_parts
        cons, _ = enumerate_n1(net14)
        delta = NetworkDelta.branch_outage(SAFE_PAIR[0])
        with ScenarioService(
            dec, ms, batch_solve=True, max_batch=16, flush_latency=0.05
        ) as svc:
            fc = svc.submit_contingencies(cons[:4])
            fe = [svc.submit_estimation() for _ in range(2)]
            fd = svc.submit_estimation(delta=delta)
            con_res = [f.result(timeout=60) for f in fc]
            est_res = [f.result(timeout=60) for f in fe]
            d_res = fd.result(timeout=60)

        ref = WlsEstimator(net14, ms).estimate()
        ref_d = WlsEstimator(net14.fork(delta), ms).estimate()
        for r in est_res:
            assert np.allclose(r.value.Vm, ref.Vm, atol=1e-10)
        assert np.allclose(d_res.value.Vm, ref_d.Vm, atol=1e-10)
        assert all(r.value.converged for r in con_res)
        # the whole flush coalesced: every result saw a multi-request batch
        assert d_res.batch_size >= 3

    @staticmethod
    def _islanding(net):
        return outage_delta(enumerate_n1(net)[1][0])

    def test_bad_z_is_refused_at_admission(self, svc_parts):
        """A wrong-length (or non-finite) z or a tol that is not finite and
        positive never reaches the solve, whatever ``batch_solve`` says;
        a round count is no option of a served frame.  (An infinite tol
        used to come back after one step marked converged; zero, negative
        or NaN ran out the iterations.)"""
        from repro.serving import EstimationRequest, ScenarioService

        dec, ms = svc_parts
        nan_z = ms.z.copy()
        nan_z[3] = np.nan
        for batch_solve in (True, False):
            with ScenarioService(
                dec, ms, batch_solve=batch_solve, max_batch=3, flush_latency=5.0
            ) as svc:
                good = [svc.submit_estimation(z=ms.z) for _ in range(2)]
                for bad in (ms.z[:-1], nan_z, ["a"] * len(ms)):
                    with pytest.raises(ValueError, match="z"):
                        svc.submit_estimation(z=bad)
                for tol in (np.inf, 0.0, -1.0, np.nan, "1e-8"):
                    with pytest.raises(ValueError, match="tol"):
                        svc.submit(EstimationRequest(z=ms.z, tol=tol))
                with pytest.raises(TypeError, match="rounds"):
                    svc.submit_estimation(z=ms.z, rounds=1)
                with pytest.raises(TypeError, match="rounds"):
                    EstimationRequest(z=ms.z, rounds=1)
                good.append(svc.submit_estimation())
                res = [f.result(timeout=60) for f in good]
                assert all(np.all(np.isfinite(r.value.Vm)) for r in res)
                assert svc.stats.to_dict()["n_shed"] == 0

    def test_out_of_range_delta_is_refused_at_admission(self, svc_parts, net14):
        """One what-if naming a branch the network does not have, in a
        flush of six: refused typed at ``submit`` — it used to raise inside
        the batched solve and fail every future coalesced with it."""
        from repro.serving import ScenarioService

        dec, ms = svc_parts
        beyond = NetworkDelta.branch_outage(net14.n_branch)
        with pytest.raises(DeltaError, match="n_branch"):
            beyond.branch_status_of(net14)
        with ScenarioService(
            dec, ms, batch_solve=True, max_batch=5, flush_latency=5.0
        ) as svc:
            good = [svc.submit_estimation(z=ms.z) for _ in range(3)]
            with pytest.raises(ValueError, match="n_branch"):
                svc.submit_estimation(delta=beyond)
            good += [
                svc.submit_estimation(delta=NetworkDelta.branch_outage(b))
                for b in SAFE_PAIR
            ]
            res = [f.result(timeout=60) for f in good]
            stats = svc.stats.to_dict()
        assert all(r.value.converged and r.batch_size == 5 for r in res)
        assert stats["n_requests"] == 5 and stats["n_shed"] == 0

    def test_failing_whatif_fails_its_own_future(self, svc_parts, net14):
        from repro.serving import ScenarioService

        dec, ms = svc_parts
        with ScenarioService(
            dec, ms, batch_solve=True, max_batch=4, flush_latency=5.0
        ) as svc:
            good = [svc.submit_estimation(z=ms.z) for _ in range(2)]
            bad = svc.submit_estimation(delta=self._islanding(net14))
            good.append(svc.submit_estimation(
                delta=NetworkDelta.branch_outage(SAFE_PAIR[0])
            ))
            res = [f.result(timeout=60) for f in good]
            with pytest.raises(EstimationError):
                bad.result(timeout=60)
            stats = svc.stats.to_dict()
        assert all(r.value.converged and r.batch_size == 4 for r in res)
        assert stats["n_requests"] == 3 and stats["n_shed"] == 0

    def test_bad_request_through_a_router(self, svc_parts, net14):
        """Two shards: the bad request's flush-mates resolve on the shard
        they were routed to — not re-hashed, not shed."""
        from repro.serving import EstimationRequest, ScenarioService, ShardRouter

        dec, ms = svc_parts
        with ShardRouter(
            {
                name: ScenarioService(
                    dec, ms, batch_solve=True, max_batch=4, flush_latency=5.0
                )
                for name in ("s0", "s1")
            }
        ) as router:
            key = ("", "frame", "same-flush")
            with pytest.raises(ValueError, match="z"):
                router.submit(EstimationRequest(z=ms.z[:-1]), key=key)
            good = [
                router.submit(EstimationRequest(z=ms.z), key=key) for _ in range(3)
            ]
            bad = router.submit(
                EstimationRequest(delta=self._islanding(net14)), key=key
            )
            res = [f.result(timeout=60) for f in good]
            with pytest.raises(EstimationError):
                bad.result(timeout=60)
            stats = router.stats_snapshot()
        assert len({r.shard for r in res}) == 1
        assert all(r.value.converged and r.batch_size == 4 for r in res)
        # the bad what-if failed typed at the caller (as it would alone);
        # nothing else was shed, spilled, re-hashed or cost a replica
        assert stats["router"]["completed"] == 3 and stats["router"]["shed"] == 1
        assert stats["router"]["rehashed"] == stats["router"]["spilled"] == 0
        assert stats["router"]["replicas_lost"] == 0
        assert sum(s["n_shed"] for s in stats["shards"].values()) == 0

    def test_batched_service_builds_no_per_frame_engine(
        self, net14, pf14, monkeypatch
    ):
        """Serving is a central batched solve on either ``batch_solve``:
        no DSE is built for it, so the placement needs no PMU anchor per
        subsystem."""
        from repro.dse import DistributedStateEstimator, decompose
        from repro.serving import ScenarioService

        def refuse(*args, **kwargs):
            raise AssertionError("the service built a DSE")

        monkeypatch.setattr(DistributedStateEstimator, "__init__", refuse)
        dec, ms = decompose(net14, 2, seed=0), _mset(net14, pf14)
        ref = WlsEstimator(net14, ms).estimate()
        for batch_solve in (True, False):
            with ScenarioService(dec, ms, batch_solve=batch_solve) as svc:
                got = svc.submit_estimation().result(timeout=60).value
            assert np.array_equal(got.Vm, ref.Vm)
            assert np.array_equal(got.Va, ref.Va)


# ---------------------------------------------------------------------------
# Vectorised area interchange (satellite)
# ---------------------------------------------------------------------------
def test_area_interchange_matches_loop(net14, pf14):
    ms = _mset(net14, pf14)
    est = WlsEstimator(net14, ms).estimate()
    labels = np.arange(net14.n_bus) % 3
    got = area_interchange(net14, est, labels)

    from repro.estimation.outputs import derive_outputs

    out = derive_outputs(net14, est)
    ref = {int(a): 0.0 for a in np.unique(labels)}
    for k in net14.live_branches():
        af, at = int(labels[net14.f[k]]), int(labels[net14.t[k]])
        if af != at:
            ref[af] += out.Pf[k]
            ref[at] += out.Pt[k]
    assert got.keys() == ref.keys()
    for a in ref:
        assert got[a] == pytest.approx(ref[a], abs=1e-12)
