"""Tests for the contingency-analysis substrate."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, ClusterTopology, pnnl_testbed
from repro.contingency import (
    Contingency,
    ContingencyAnalyzer,
    apply_outage,
    enumerate_n1,
    run_parallel,
    simulate_parallel_analysis,
)
from repro.estimation import estimate_state
from repro.grid import find_islands, run_ac_power_flow
from repro.measurements import full_placement, generate_measurements


class TestEnumeration:
    def test_case14_radial_branch_islanding(self, net14):
        safe, islanding = enumerate_n1(net14)
        assert len(safe) + len(islanding) == 20
        assert [c.label for c in islanding] == ["7-8"]

    def test_case118_known_radials(self, net118):
        _, islanding = enumerate_n1(net118)
        labels = {c.label for c in islanding}
        # the well-known radial stubs of the 118 system
        assert "9-10" in labels
        assert "86-87" in labels
        assert "12-117" in labels

    def test_safe_outages_stay_connected(self, net14):
        safe, _ = enumerate_n1(net14)
        for c in safe:
            outaged = apply_outage(net14, c)
            assert len(find_islands(outaged)) == 1

    def test_islanding_outages_split(self, net14):
        _, islanding = enumerate_n1(net14)
        for c in islanding:
            outaged = apply_outage(net14, c)
            assert len(find_islands(outaged)) > 1

    def test_parallel_circuit_is_safe(self, net118):
        safe, _ = enumerate_n1(net118)
        # 42-49 is a double circuit: outaging one leg must be safe
        labels = [c.label for c in safe]
        assert labels.count("42-49") == 2

    def test_apply_outage_does_not_mutate(self, net14):
        c = Contingency(branch=0, label="x")
        before = net14.br_status.copy()
        apply_outage(net14, c)
        assert np.array_equal(net14.br_status, before)

    def test_bad_branch_rejected(self, net14):
        with pytest.raises(ValueError):
            apply_outage(net14, Contingency(branch=999, label="x"))
        with pytest.raises(ValueError):
            Contingency(branch=-1, label="x")


class TestAnalyzer:
    def test_no_outage_no_violation(self, net118):
        an = ContingencyAnalyzer(net118, method="dc", rating_margin=1.3)
        # base-case flows are within their own derived ratings by construction
        assert np.all(np.abs(an.base.Pf) <= an.ratings + 1e-12)

    def test_loose_ratings_secure(self, net14):
        an = ContingencyAnalyzer(net14, method="dc", rating_margin=10.0)
        safe, _ = enumerate_n1(net14)
        results = an.analyze_all(safe)
        assert all(r.secure for r in results)

    def test_tight_ratings_flag_violations(self, net118):
        an = ContingencyAnalyzer(net118, method="dc", rating_margin=1.05)
        safe, _ = enumerate_n1(net118)
        results = an.analyze_all(safe[:20])
        assert any(not r.secure for r in results)
        for r in results:
            for v in r.violations:
                assert v.loading > 1.0

    def test_ac_method(self, net14):
        an = ContingencyAnalyzer(net14, method="ac", rating_margin=3.0)
        safe, _ = enumerate_n1(net14)
        r = an.analyze(safe[0])
        assert r.converged
        assert r.iterations > 0

    def test_method_validated(self, net14):
        with pytest.raises(ValueError):
            ContingencyAnalyzer(net14, method="magic")

    def test_ratings_length_checked(self, net14):
        with pytest.raises(ValueError):
            ContingencyAnalyzer(net14, ratings=np.ones(3))

    def test_from_estimate(self, net118, pf118):
        rng = np.random.default_rng(0)
        ms = generate_measurements(net118, full_placement(net118), pf118, rng=rng)
        est = estimate_state(net118, ms)
        an = ContingencyAnalyzer.from_estimate(net118, est, method="dc")
        safe, _ = enumerate_n1(net118)
        r = an.analyze(safe[0])
        assert r.converged

    def test_max_loading_increases_after_outage(self, net118):
        """Removing a loaded branch pushes flow onto neighbours."""
        an = ContingencyAnalyzer(net118, method="dc", rating_margin=2.0)
        safe, _ = enumerate_n1(net118)
        # pick the most loaded safe branch
        flows = np.abs(an.base.Pf)
        c = max(safe, key=lambda c: flows[c.branch])
        r = an.analyze(c)
        base_max = float((flows[net118.live_branches()] /
                          an.ratings[net118.live_branches()]).max())
        assert r.max_loading >= base_max - 1e-9


class TestParallelThreads:
    @pytest.fixture(scope="class")
    def setup(self, net118):
        an = ContingencyAnalyzer(net118, method="dc", rating_margin=1.3)
        safe, _ = enumerate_n1(net118)
        return an, safe[:24]

    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_matches_serial(self, setup, scheme):
        an, cons = setup
        serial = an.analyze_all(cons)
        rep = run_parallel(an, cons, n_workers=4, scheme=scheme)
        assert len(rep.results) == len(serial)
        assert sum(rep.per_worker_cases) == len(cons)
        # same security verdicts regardless of execution order
        assert ([r.secure for r in rep.results] == [r.secure for r in serial])

    def test_scheme_validated(self, setup):
        an, cons = setup
        with pytest.raises(ValueError):
            run_parallel(an, cons, scheme="bogus")
        with pytest.raises(ValueError):
            run_parallel(an, cons, n_workers=0)


class TestSimulatedBalancing:
    def test_dynamic_beats_static_on_skewed_durations(self):
        """Chen et al.'s result: with variable case times, counter-based
        dynamic balancing has the smaller makespan."""
        rng = np.random.default_rng(1)
        durations = rng.lognormal(-4.0, 1.2, 400)
        topo = ClusterTopology(
            clusters=[ClusterSpec(name="c", nodes=1, cores_per_node=8)]
        )
        dyn = simulate_parallel_analysis(durations, topo, scheme="dynamic")
        sta = simulate_parallel_analysis(durations, topo, scheme="static")
        assert dyn.makespan < sta.makespan

    def test_uniform_durations_near_tie(self):
        durations = np.full(64, 0.01)
        topo = ClusterTopology(
            clusters=[ClusterSpec(name="c", nodes=1, cores_per_node=8)]
        )
        dyn = simulate_parallel_analysis(durations, topo, scheme="dynamic")
        sta = simulate_parallel_analysis(durations, topo, scheme="static")
        assert dyn.makespan == pytest.approx(sta.makespan, rel=0.05)

    def test_makespan_lower_bound(self):
        rng = np.random.default_rng(2)
        durations = rng.uniform(0.001, 0.01, 100)
        topo = pnnl_testbed()
        rep = simulate_parallel_analysis(durations, topo, scheme="dynamic")
        n_workers = sum(c.total_cores for c in topo.clusters)
        assert rep.makespan >= durations.sum() / n_workers - 1e-12
        assert rep.makespan >= durations.max() - 1e-12

    def test_validation(self):
        topo = pnnl_testbed()
        with pytest.raises(ValueError):
            simulate_parallel_analysis(np.array([-1.0]), topo)
        with pytest.raises(ValueError):
            simulate_parallel_analysis(np.array([1.0]), topo, scheme="bogus")

    def test_all_cases_executed(self):
        rng = np.random.default_rng(3)
        durations = rng.uniform(0.001, 0.01, 77)
        topo = pnnl_testbed()
        rep = simulate_parallel_analysis(durations, topo, scheme="dynamic")
        assert sum(rep.per_worker_cases) == 77
