"""Tests for the middleware fast path: pooling, mux framing, zero-copy.

Covers the frame edge cases (MAX_FRAME boundary, oversized rejection on
both ends, mid-header / mid-payload disconnects, interleaved concurrent
senders over one pooled connection), the pooled ``MWClient`` lifecycle
(reuse, reconnect, idle reaping), the mux router data plane, and the
zero-copy pack/unpack contracts.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.middleware import (
    ClientClosed,
    EndpointRegistry,
    FrameError,
    InprocTransport,
    MiddlewareFabric,
    MuxRouter,
    MWClient,
    PeerClosed,
    StreamReader,
    TcpTransport,
    pack_state_update,
    recv_frame,
    recv_mux_frame,
    send_frame,
    send_frames,
    send_mux_frame,
    send_mux_frames,
    unpack_state_update,
)
from repro.middleware import message as message_mod


def _socketpair():
    a, b = socket.socketpair()
    return a, b


# ----------------------------------------------------------------------
# frame edge cases
# ----------------------------------------------------------------------
class TestFrameEdgeCases:
    def test_payload_at_exactly_max_frame(self, monkeypatch):
        monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
        a, b = _socketpair()
        try:
            send_frame(a, b"x" * 64)  # exactly MAX_FRAME: allowed
            assert recv_frame(b) == b"x" * 64
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_send(self, monkeypatch):
        monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
        a, b = _socketpair()
        try:
            with pytest.raises(FrameError, match="too large"):
                send_frame(a, b"x" * 65)
            with pytest.raises(FrameError, match="too large"):
                send_frames(a, [b"ok", b"x" * 65])
            with pytest.raises(FrameError, match="too large"):
                send_mux_frame(a, 1, 2, b"x" * 65)
            with pytest.raises(FrameError, match="too large"):
                send_mux_frames(a, 1, [(2, b"x" * 65)])
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_recv(self, monkeypatch):
        a, b = _socketpair()
        try:
            # handcrafted legacy header advertising an over-limit frame
            a.sendall(struct.pack(">Q", 65))
            monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
            with pytest.raises(FrameError, match="too large"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_mux_recv(self, monkeypatch):
        a, b = _socketpair()
        try:
            a.sendall(message_mod.MUX_HEADER.pack(1, 0, 3, 4, 65))
            monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
            with pytest.raises(FrameError, match="too large"):
                recv_mux_frame(b)
        finally:
            a.close()
            b.close()

    def test_closed_mid_header(self):
        a, b = _socketpair()
        a.sendall(b"\x00\x00\x00")  # 3 of 8 header bytes
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_closed_mid_payload(self):
        a, b = _socketpair()
        a.sendall(struct.pack(">Q", 10) + b"abcd")  # 4 of 10 payload bytes
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_clean_eof_is_peer_closed(self):
        a, b = _socketpair()
        a.close()
        try:
            with pytest.raises(PeerClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_mux_roundtrip(self):
        a, b = _socketpair()
        try:
            send_mux_frame(a, 3, 7, b"payload", flags=0)
            flags, src, dst, payload = recv_mux_frame(b)
            assert (flags, src, dst) == (0, 3, 7)
            assert payload == b"payload"
        finally:
            a.close()
            b.close()

    def test_mux_version_mismatch_rejected(self):
        a, b = _socketpair()
        try:
            a.sendall(message_mod.MUX_HEADER.pack(99, 0, 0, 0, 0))
            with pytest.raises(FrameError, match="version"):
                recv_mux_frame(b)
        finally:
            a.close()
            b.close()

    def test_batched_frames_arrive_individually(self):
        a, b = _socketpair()
        try:
            payloads = [b"one", b"", b"three" * 100]
            send_frames(a, payloads)
            for expect in payloads:
                assert recv_frame(b) == expect
        finally:
            a.close()
            b.close()


class TestStreamReader:
    def test_incremental_header_and_payload(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            wire = struct.pack(">Q", 5) + b"hello"
            for i, byte in enumerate(wire):
                a.sendall(bytes([byte]))
                # tiny wait so the byte is visible to the reader
                deadline = time.time() + 1
                while True:
                    frames = reader.feed(b)
                    if frames or i < len(wire) - 1:
                        break
                    if time.time() > deadline:  # pragma: no cover
                        pytest.fail("frame never completed")
                if i < len(wire) - 1:
                    assert frames == []
            assert frames == [b"hello"]
        finally:
            a.close()
            b.close()

    def test_many_frames_single_feed(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            send_frames(a, [b"x", b"yy", b"zzz"])
            time.sleep(0.05)
            frames = reader.feed(b)
            assert frames == [b"x", b"yy", b"zzz"]
        finally:
            a.close()
            b.close()

    def test_mux_mode_metadata(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader(mux=True)
        try:
            send_mux_frames(a, 5, [(8, b"p1"), (9, b"p2")])
            time.sleep(0.05)
            frames = reader.feed(b)
            assert [(s, d, bytes(p)) for _, s, d, p in frames] == [
                (5, 8, b"p1"),
                (5, 9, b"p2"),
            ]
        finally:
            a.close()
            b.close()

    def test_one_read_returns_whole_frames_and_keeps_the_tail(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader(mux=True)
        try:
            third = struct.pack(">BBHHI", 1, 0, 5, 9, 6) + b"thr"
            send_mux_frames(a, 5, [(8, b"one"), (9, b"")])
            a.sendall(third)  # header + half the payload
            time.sleep(0.05)
            frames = reader.feed(b)
            assert [(d, bytes(p)) for _, _, d, p in frames] == [
                (8, b"one"), (9, b""),
            ]
            assert reader.feed(b) == []  # nothing new on the wire
            a.sendall(b"ee!")
            time.sleep(0.05)
            (last,) = reader.feed(b)
            assert (last[2], bytes(last[3])) == (9, b"three!")
        finally:
            a.close()
            b.close()

    def test_frame_larger_than_one_read(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        big = bytes(range(256)) * (3 * StreamReader.CHUNK // 256) + b"tail"
        sender = threading.Thread(target=send_frames, args=(a, [big, b"next"]))
        sender.start()
        try:
            frames, reads = [], 0
            deadline = time.time() + 5
            while len(frames) < 2:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("large frame never completed")
                frames += reader.feed(b)
                reads += 1
            assert frames == [big, b"next"]
            assert reads > 3  # reassembled across reads, not in one
        finally:
            sender.join(timeout=5)
            a.close()
            b.close()

    def test_eof_mid_payload_raises(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            a.sendall(struct.pack(">Q", 10) + b"1234")
            a.close()
            time.sleep(0.05)
            # one read per feed: the partial frame first, the EOF behind it
            assert reader.feed(b) == []
            with pytest.raises(FrameError, match="mid-payload"):
                reader.feed(b)
        finally:
            b.close()


# ----------------------------------------------------------------------
# socket timeout hygiene
# ----------------------------------------------------------------------
class TestTimeoutRestored:
    def test_recv_bytes_restores_socket_timeout(self):
        t = TcpTransport()
        listener = t.listen("tcp://127.0.0.1:0")
        got = []

        def server():
            conn = listener.accept(timeout=2)
            got.append(conn)

        th = threading.Thread(target=server, daemon=True)
        th.start()
        client = t.connect(listener.endpoint.url)
        th.join(timeout=2)
        try:
            assert client._sock.gettimeout() is None
            with pytest.raises(TimeoutError):
                client.recv_bytes(timeout=0.05)
            # the per-call timeout must not leak into the socket state
            assert client._sock.gettimeout() is None
        finally:
            client.close()
            for conn in got:
                conn.close()
            listener.close()


# ----------------------------------------------------------------------
# pooled client
# ----------------------------------------------------------------------
class TestPooledClient:
    def _tcp_pair(self, **kw):
        registry = EndpointRegistry()
        rx = MWClient("rx", registry)
        rx.serve("tcp://127.0.0.1:0")
        tx = MWClient("tx", registry, **kw)
        return registry, rx, tx

    def test_connection_reused_across_sends(self):
        _, rx, tx = self._tcp_pair()
        try:
            for i in range(10):
                tx.send("rx", b"m%d" % i)
            for i in range(10):
                assert rx.recv(timeout=2) == b"m%d" % i
            assert tx.dials == 1
        finally:
            tx.close()
            rx.close()

    def test_unpooled_dials_per_message(self):
        _, rx, tx = self._tcp_pair(pool=False)
        try:
            for i in range(3):
                tx.send("rx", b"x")
            for _ in range(3):
                rx.recv(timeout=2)
            assert tx.dials == 3
        finally:
            tx.close()
            rx.close()

    def test_reconnect_after_broken_connection(self):
        registry, rx, tx = self._tcp_pair()
        try:
            tx.send("rx", b"first")
            assert rx.recv(timeout=2) == b"first"
            # break the pooled connection out from under the client
            url = registry.resolve("rx")
            tx._pool[url].close()
            tx.send("rx", b"second")  # transparent re-dial
            assert rx.recv(timeout=2) == b"second"
            assert tx.dials == 2
        finally:
            tx.close()
            rx.close()

    def test_idle_connections_reaped(self):
        t = InprocTransport()
        registry = EndpointRegistry()
        a = MWClient("a", registry, inproc=t)
        b = MWClient("b", registry, inproc=t)
        a.serve("inproc://a")
        b.serve("inproc://b")
        tx = MWClient("tx", registry, inproc=t, pool_idle_timeout=0.05)
        try:
            tx.send("a", b"x")
            assert len(tx._pool) == 1
            time.sleep(0.1)
            tx.send("b", b"y")  # reaps the idle connection to a
            assert len(tx._pool) == 1
            assert registry.resolve("a") not in tx._pool
            tx.send("a", b"z")  # re-dial
            assert tx.dials == 3
            assert a.recv(timeout=2) == b"x"
            assert a.recv(timeout=2) == b"z"
            assert b.recv(timeout=2) == b"y"
        finally:
            tx.close()
            a.close()
            b.close()

    def test_interleaved_concurrent_senders_one_connection(self):
        """Many threads share one pooled connection; frames never tear."""
        _, rx, tx = self._tcp_pair()
        n_threads, n_msgs = 8, 25
        try:
            def sender(tid):
                for i in range(n_msgs):
                    # distinct fill byte and length per (thread, message)
                    tx.send("rx", bytes([tid]) * (100 + tid * 13 + i))

            threads = [
                threading.Thread(target=sender, args=(tid,), daemon=True)
                for tid in range(1, n_threads + 1)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10)
            counts = {}
            for _ in range(n_threads * n_msgs):
                payload = bytes(rx.recv(timeout=5))
                tid = payload[0]
                assert payload == bytes([tid]) * len(payload)  # untorn
                counts[tid] = counts.get(tid, 0) + 1
            assert counts == {tid: n_msgs for tid in range(1, n_threads + 1)}
            assert tx.dials == 1
        finally:
            tx.close()
            rx.close()

    def test_send_many_coalesces_in_order(self):
        _, rx, tx = self._tcp_pair()
        try:
            tx.send_many("rx", [b"a", b"bb", b"ccc"])
            assert [bytes(rx.recv(timeout=2)) for _ in range(3)] == [
                b"a",
                b"bb",
                b"ccc",
            ]
            assert tx.dials == 1
        finally:
            tx.close()
            rx.close()


# ----------------------------------------------------------------------
# mux router data plane
# ----------------------------------------------------------------------
class TestMuxFabric:
    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_roundtrip_and_stats(self, use_tcp):
        pairs = [("a", "b"), ("b", "a"), ("a", "c")]
        with MiddlewareFabric(
            ["a", "b", "c"], pairs=pairs, use_tcp=use_tcp, fast=True
        ) as fab:
            fab.send("a", "b", b"hello")
            assert bytes(fab.recv("b", timeout=2)) == b"hello"
            fab.send_many("a", [("b", b"x" * 10), ("c", b"y" * 20)])
            assert bytes(fab.recv("b", timeout=2)) == b"x" * 10
            assert bytes(fab.recv("c", timeout=2)) == b"y" * 20
            deadline = time.time() + 2
            while (
                fab.relay_stats()[("a", "b")][0] < 2
                or fab.relay_stats()[("a", "c")][0] < 1
            ):
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("stats never caught up")
                time.sleep(0.01)
            stats = fab.relay_stats()
            assert stats[("a", "b")] == (2, 15)
            assert stats[("a", "c")] == (1, 20)
            assert stats[("b", "a")] == (0, 0)

    def test_tcp_receiver_drains_its_own_link(self):
        """No reader thread per TCP link: recv() reads the socket itself,
        one read handing over everything that has arrived — until a
        checkpoint sink needs frames delivered while nobody is in recv()."""
        def readers():
            return [
                t for t in threading.enumerate()
                if t.name.startswith("mux-link-")
            ]

        before = len(readers())
        with MiddlewareFabric(
            ["a", "b"], pairs=[("a", "b")], use_tcp=True, fast=True
        ) as fab:
            assert len(readers()) == before
            fab.send_many("a", [("b", b"one"), ("b", b"two")])
            assert bytes(fab.recv("b", timeout=2)) == b"one"
            assert bytes(fab.recv("b", timeout=2)) == b"two"
            assert fab.clients["b"].bytes_received == 6
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                fab.recv("b", timeout=0.1)
            assert 0.09 <= time.monotonic() - t0 < 2.0
            fab.set_checkpoint_sink("b", lambda p: None)
            assert len(readers()) == before + 1
            fab.send("a", "b", b"three")
            assert bytes(fab.recv("b", timeout=2)) == b"three"
        assert len(readers()) == before

    def test_tcp_recv_fails_fast_when_the_hub_is_gone(self):
        with MiddlewareFabric(
            ["a", "b"], pairs=[("a", "b")], use_tcp=True, fast=True
        ) as fab:
            fab._hub.stop()
            t0 = time.monotonic()
            with pytest.raises(ClientClosed):
                fab.recv("b", timeout=5)
            assert time.monotonic() - t0 < 2.0

    def test_relay_stats_accumulate_across_exchanges(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], fast=True) as fab:
            for k in (1, 2, 3):
                fab.send("a", "b", b"12345")
                fab.recv("b", timeout=2)
                deadline = time.time() + 2
                while fab.relay_stats()[("a", "b")] != (k, 5 * k):
                    if time.time() > deadline:  # pragma: no cover
                        pytest.fail("stats never caught up")
                    time.sleep(0.01)

    def test_unknown_pair_rejected(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], fast=True) as fab:
            with pytest.raises(KeyError, match="no pipeline"):
                fab.send("b", "a", b"x")
            with pytest.raises(KeyError, match="no pipeline"):
                fab.send_many("b", [("a", b"x")])

    def test_state_update_through_fast_fabric(self):
        with MiddlewareFabric(["s0", "s1"], pairs=[("s0", "s1")], fast=True) as fab:
            payload = pack_state_update(
                np.array([7, 8]), np.array([1.01, 0.99]), np.array([0.05, -0.02])
            )
            fab.send("s0", "s1", payload)
            ids, vm, va = unpack_state_update(fab.recv("s1", timeout=2))
            assert ids.tolist() == [7, 8]
            assert vm[0] == pytest.approx(1.01)

    def test_router_drops_frames_for_unknown_destination(self):
        router = MuxRouter()
        router.start()
        got = []
        link = router.attach(1, got.append)
        try:
            link.send(99, b"nobody home")
            deadline = time.time() + 2
            while router.frames_dropped == 0:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("drop never recorded")
                time.sleep(0.01)
            assert got == []
        finally:
            link.close()
            router.stop()

    def test_bytes_accounting(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], fast=True) as fab:
            fab.send("a", "b", b"12345")
            fab.recv("b", timeout=2)
            assert fab.clients["a"].bytes_sent == 5
            assert fab.clients["b"].bytes_received == 5


# ----------------------------------------------------------------------
# zero-copy pack/unpack contracts
# ----------------------------------------------------------------------
class TestZeroCopyStateUpdate:
    def test_pack_matches_legacy_wire_format(self):
        ids = np.array([5, 9], dtype=np.int64)
        vm = np.array([1.0, 0.98])
        va = np.array([-0.1, 0.2])
        legacy = (
            struct.pack(">Q", 2) + ids.tobytes() + vm.tobytes() + va.tobytes()
        )
        assert bytes(pack_state_update(ids, vm, va)) == legacy

    def test_unpack_views_alias_buffer(self):
        buf = pack_state_update(
            np.array([1, 2]), np.array([1.0, 2.0]), np.array([3.0, 4.0])
        )
        ids, vm, va = unpack_state_update(buf, copy=False)
        assert np.shares_memory(vm, np.frombuffer(buf, dtype=np.uint8))
        # mutating the wire buffer is visible through the views
        np.frombuffer(buf, dtype=np.float64, count=2, offset=8 + 16)[:] = [9.0, 8.0]
        assert vm.tolist() == [9.0, 8.0]

    def test_unpack_copy_owns_memory(self):
        buf = pack_state_update(
            np.array([1]), np.array([1.5]), np.array([2.5])
        )
        ids, vm, va = unpack_state_update(buf, copy=True)
        assert not np.shares_memory(vm, np.frombuffer(buf, dtype=np.uint8))
