"""Tests for the MeDICi-style middleware."""

import threading

import numpy as np
import pytest

from repro.middleware import (
    DataBuffer,
    FrameError,
    InprocMuxRouter,
    MiddlewareFabric,
    MuxRouter,
    MWClient,
    pack_state_update,
    parse_endpoint,
    unpack_state_update,
)


class TestEndpoints:
    def test_parse_tcp(self):
        ep = parse_endpoint("tcp://nwiceb.pnl.gov:6789")
        assert (ep.scheme, ep.host, ep.port) == ("tcp", "nwiceb.pnl.gov", 6789)
        assert ep.url == "tcp://nwiceb.pnl.gov:6789"

    def test_parse_inproc(self):
        ep = parse_endpoint("inproc://site-3")
        assert ep.host == "site-3"
        assert ep.port is None

    def test_port_zero_allowed(self):
        assert parse_endpoint("tcp://127.0.0.1:0").port == 0

    @pytest.mark.parametrize(
        "bad",
        ["nohost", "tcp://host", "tcp://:80", "tcp://h:99999", "tcp://h:xy",
         "ftp://h:1", "inproc://"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestStateUpdatePacking:
    def test_roundtrip(self):
        ids = np.array([5, 9, 100], dtype=np.int64)
        vm = np.array([1.0, 0.98, 1.02])
        va = np.array([-0.1, 0.0, 0.2])
        ids2, vm2, va2 = unpack_state_update(pack_state_update(ids, vm, va))
        assert np.array_equal(ids, ids2)
        assert np.array_equal(vm, vm2)
        assert np.array_equal(va, va2)

    def test_empty_update(self):
        ids, vm, va = unpack_state_update(
            pack_state_update(np.array([], np.int64), np.array([]), np.array([]))
        )
        assert len(ids) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_state_update(np.array([1]), np.array([1.0, 2.0]), np.array([0.0]))

    def test_corrupt_buffer_rejected(self):
        buf = pack_state_update(np.array([1]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(FrameError):
            unpack_state_update(buf[:-3])


class TestInprocTransport:
    """The fabric's in-process transport: the queue hub and its links."""

    def test_connect_without_listener(self):
        with pytest.raises(RuntimeError, match="not started"):
            InprocMuxRouter().attach(1, lambda p: None)

    def test_send_recv(self):
        hub = InprocMuxRouter()
        hub.start()
        at_client, at_server = DataBuffer(), DataBuffer()
        try:
            client = hub.attach(1, at_client.put)
            server = hub.attach(2, at_server.put)
            client.send(2, b"ping")
            assert at_server.get(timeout=1) == b"ping"
            server.send(1, b"pong")
            assert at_client.get(timeout=1) == b"pong"
        finally:
            hub.stop()

    def test_recv_timeout(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            with pytest.raises(TimeoutError):
                fab.recv("b", timeout=0.05)

    def test_scheme_mismatch(self):
        with pytest.raises(ValueError, match="tcp endpoint"):
            MuxRouter().start("inproc://hub")


class TestTcpTransport:
    """The fabric's TCP transport: the selector hub over localhost sockets."""

    def test_roundtrip_frames(self):
        pairs = [("a", "b"), ("b", "a")]
        with MiddlewareFabric(["a", "b"], pairs=pairs, use_tcp=True) as fab:
            fab.send("a", "b", b"hello" * 1000)
            assert fab.recv("b", timeout=2) == b"hello" * 1000
            fab.send("b", "a", b"ack")
            assert fab.recv("a", timeout=2) == b"ack"

    def test_port_zero_resolved(self):
        router = MuxRouter()
        try:
            assert parse_endpoint(router.start("tcp://127.0.0.1:0")).port > 0
        finally:
            router.stop()

    def test_large_frame(self):
        """Larger than the socket buffers and many reads long: the hub's
        non-blocking forward and both reassemblers see partial writes."""
        payload = bytes(np.random.default_rng(0).integers(0, 256, 2_000_000, dtype=np.uint8))
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], use_tcp=True) as fab:
            sender = threading.Thread(target=fab.send, args=("a", "b", payload))
            sender.start()
            try:
                assert fab.recv("b", timeout=10) == payload
            finally:
                sender.join(timeout=10)
            assert not sender.is_alive()


class TestMWClient:
    """``MW_Client_Send`` / ``MW_Client_Recv``: estimators address each
    other by name; each site's endpoint keeps its own buffer and counters."""

    def test_named_send(self):
        pairs = [("alice", "bob")]
        with MiddlewareFabric(["alice", "bob"], pairs=pairs) as fab:
            fab.send("alice", "bob", b"hi bob")
            assert fab.clients["bob"].recv(timeout=2) == b"hi bob"
            assert fab.clients["alice"].bytes_sent == 6
            assert fab.clients["bob"].bytes_received == 6

    def test_unknown_destination(self):
        with MiddlewareFabric(["solo"]) as fab:
            with pytest.raises(KeyError, match="no pipeline for solo -> ghost"):
                fab.send("solo", "ghost", b"x")

    def test_recv_timeout(self):
        client = MWClient("x")
        try:
            with pytest.raises(TimeoutError):
                client.recv(timeout=0.05)
        finally:
            client.close()


class TestFabric:
    def test_inproc_fabric_roundtrip(self):
        with MiddlewareFabric(["se0", "se1"], pairs=[("se0", "se1")]) as fab:
            fab.send("se0", "se1", b"solution")
            assert fab.recv("se1", timeout=2) == b"solution"

    def test_tcp_fabric_roundtrip(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], use_tcp=True) as fab:
            fab.send("a", "b", b"x" * 50_000)
            assert len(fab.recv("b", timeout=5)) == 50_000

    def test_no_pipeline_for_pair(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            with pytest.raises(KeyError, match="no pipeline"):
                fab.send("b", "a", b"x")

    def test_relay_stats(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            fab.send("a", "b", b"12345")
            fab.recv("b", timeout=2)
            frames, nbytes = fab.relay_stats()[("a", "b")]
            assert frames == 1
            assert nbytes == 5

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            MiddlewareFabric(["a", "a"])

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            MiddlewareFabric(["a"], pairs=[("a", "zz")])

    def test_state_update_through_fabric(self):
        with MiddlewareFabric(["s0", "s1"], pairs=[("s0", "s1")]) as fab:
            payload = pack_state_update(
                np.array([7, 8]), np.array([1.01, 0.99]), np.array([0.05, -0.02])
            )
            fab.send("s0", "s1", payload)
            ids, vm, va = unpack_state_update(fab.recv("s1", timeout=2))
            assert ids.tolist() == [7, 8]
            assert vm[0] == pytest.approx(1.01)
