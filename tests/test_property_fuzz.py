"""Cross-cutting property and fuzz tests (hypothesis).

These target the invariants that hold for *any* input: wire-format
round-trips, event-ordering determinism, partition validity under weight
fuzzing, and estimation consistency on randomized measurement subsets.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimEngine, Timeout
from repro.estimation import estimate_state, is_observable
from repro.grid import run_ac_power_flow
from repro.grid.cases import case14
from repro.measurements import (
    MeasType,
    full_placement,
    generate_measurements,
)
from repro.middleware import (
    DataBuffer,
    FrameError,
    InprocMuxRouter,
    pack_extension,
    pack_state_update,
    split_extension,
    unpack_state_update,
)
from repro.obs import SpanContext
from repro.partition import (
    WeightedGraph,
    edge_cut,
    load_imbalance,
    partition_kway,
    repartition,
)


class TestWireFormatProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 200),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_state_update_roundtrip(self, n, seed):
        """Property: pack → unpack is the identity for any payload."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 10_000, n)
        vm = rng.uniform(0.5, 1.5, n)
        va = rng.uniform(-np.pi, np.pi, n)
        ids2, vm2, va2 = unpack_state_update(pack_state_update(ids, vm, va))
        assert np.array_equal(ids, ids2)
        assert np.array_equal(vm, vm2)
        assert np.array_equal(va, va2)

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(max_size=4096))
    def test_inproc_transport_preserves_bytes(self, payload):
        """Property: any byte string survives the in-process hub unchanged."""
        hub = InprocMuxRouter()
        hub.start()
        arrived = DataBuffer()
        try:
            hub.attach(2, arrived.put)
            hub.attach(1, lambda p: None).send(2, payload)
            assert arrived.get(timeout=1) == payload
        finally:
            hub.stop()

    @settings(max_examples=100, deadline=None)
    @given(
        trace=st.none() | st.tuples(
            st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.booleans()
        ),
        epoch=st.none() | st.integers(0, 2**64 - 1),
        payload=st.binary(max_size=512),
    )
    def test_extension_block_roundtrip_and_truncation(self, trace, epoch, payload):
        """Property: for every subset of {trace, epoch}, pack → split is the
        identity, no field costs no byte, and a buffer cut anywhere inside
        the block is a typed error — never a shifted payload."""
        ctx = None if trace is None else SpanContext(*trace)
        flags, ext = pack_extension(ctx, epoch)
        assert len(ext) == (17 if ctx else 0) + (8 if epoch is not None else 0)
        assert (flags == 0) == (ext == b"")
        for buf in (ext + payload, bytearray(ext + payload)):
            got_ctx, got_epoch, app = split_extension(flags, buf)
            assert (got_ctx, got_epoch, bytes(app)) == (ctx, epoch, payload)
            assert flags or app is buf  # nothing to strip: the buffer itself
        for cut in range(len(ext)):
            with pytest.raises(FrameError):
                split_extension(flags, ext[:cut])


class TestSimEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(delays=st.lists(st.floats(0, 100, allow_nan=False), max_size=30))
    def test_events_fire_in_time_order(self, delays):
        """Property: callbacks always run in non-decreasing virtual time."""
        eng = SimEngine()
        fired = []
        for d in delays:
            eng.schedule(d, lambda: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=20, deadline=None)
    @given(
        sleeps=st.lists(st.floats(0.001, 10, allow_nan=False),
                        min_size=1, max_size=10),
    )
    def test_process_total_time_is_sum_of_sleeps(self, sleeps):
        """Property: a process's finish time equals its summed timeouts."""
        eng = SimEngine()

        def proc():
            for s in sleeps:
                yield Timeout(s)

        eng.process(proc())
        assert eng.run() == pytest.approx(sum(sleeps))


class TestPartitionProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 5),
        weight_scale=st.integers(1, 50),
    )
    def test_repartition_valid_under_weight_fuzz(self, seed, k, weight_scale):
        """Property: repartitioning after arbitrary weight changes always
        yields a complete, in-range partition."""
        rng = np.random.default_rng(seed)
        n = 20
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        g = WeightedGraph.from_edges(n, sorted(edges),
                                     vwgt=rng.integers(1, weight_scale + 1, n))
        base = partition_kway(g, k, seed=seed).part
        g2 = g.with_weights(vwgt=rng.integers(1, weight_scale + 1, n))
        res = repartition(g2, k, base, seed=seed)
        assert len(res.part) == n
        assert res.part.min() >= 0 and res.part.max() < k
        assert res.edge_cut == edge_cut(g2, res.part)
        assert res.imbalance == pytest.approx(load_imbalance(g2, res.part, k))


class TestEstimationProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), drop_frac=st.floats(0.0, 0.4))
    def test_estimation_stable_under_measurement_loss(self, seed, drop_frac):
        """Property: randomly dropping redundant channels (while staying
        observable) still yields an estimate within measurement accuracy."""
        net = case14()
        pf = run_ac_power_flow(net)
        rng = np.random.default_rng(seed)
        ms = generate_measurements(net, full_placement(net), pf, rng=rng)
        keep = rng.random(len(ms)) >= drop_frac
        # never drop below a safety margin of redundancy
        if keep.sum() < 60:
            keep[:] = True
        sub = ms.subset(keep)
        if not is_observable(net, sub):
            return  # rare unobservable draw: out of scope for this property
        from repro.estimation import EstimationError

        try:
            res = estimate_state(net, sub)
        except EstimationError:
            # borderline-observable draw (rank test passes at tolerance but
            # the gain factorisation is numerically singular): out of scope
            return
        assert res.converged
        err = res.state_error(pf.Vm, pf.Va)
        assert err["vm_rmse"] < 1e-2
