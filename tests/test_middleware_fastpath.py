"""Tests for the mux data plane: framing, the hub fabric, zero-copy.

Covers the frame edge cases (MAX_FRAME boundary, oversized rejection on
both ends, undefined flag bits, mid-header / mid-payload disconnects), the
incremental reassembler, a site's one pooled link shared by concurrent senders, the
mux router data plane (routing, statistics counted before delivery,
frames cut inside their extension block), and the zero-copy pack/unpack
contracts.
"""

import queue
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.faults import FaultPlan
from repro.middleware import (
    ClientClosed,
    FrameError,
    InprocMuxRouter,
    MiddlewareFabric,
    MuxRouter,
    PeerClosed,
    StreamReader,
    pack_extension,
    pack_state_update,
    parse_endpoint,
    recv_mux_frame,
    send_mux_frame,
    send_mux_frames,
    unpack_state_update,
)
from repro.middleware import message as message_mod
from repro.middleware.message import (
    FLAG_CONTROL,
    FLAG_EPOCH,
    FLAG_TRACED,
    MUX_HEADER,
    MUX_VERSION,
)


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
            send_mux_frame(a, 1, 2, b"x" * 64)  # exactly MAX_FRAME: allowed
            assert recv_mux_frame(b)[3] == b"x" * 64
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_send(self, monkeypatch):
        monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
        a, b = _socketpair()
        try:
            with pytest.raises(FrameError, match="too large"):
                send_mux_frame(a, 1, 2, b"x" * 65)
            with pytest.raises(FrameError, match="too large"):
                send_mux_frames(a, 1, [(2, b"ok"), (2, b"x" * 65)])
            # the extension block counts toward the frame
            flags, ext = pack_extension(None, 7)
            with pytest.raises(FrameError, match="too large"):
                send_mux_frame(a, 1, 2, b"x" * 60, flags=flags, ext=ext)
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_recv(self, monkeypatch):
        """The incremental reader refuses an over-limit header too."""
        a, b = _socketpair()
        b.setblocking(False)
        try:
            a.sendall(MUX_HEADER.pack(1, 0, 3, 4, 65))
            time.sleep(0.05)
            monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
            with pytest.raises(FrameError, match="too large"):
                StreamReader().feed(b)
        finally:
            a.close()
            b.close()

    def test_oversized_rejected_on_mux_recv(self, monkeypatch):
        a, b = _socketpair()
        try:
            a.sendall(MUX_HEADER.pack(1, 0, 3, 4, 65))
            monkeypatch.setattr(message_mod, "MAX_FRAME", 64)
            with pytest.raises(FrameError, match="too large"):
                recv_mux_frame(b)
        finally:
            a.close()
            b.close()

    def test_closed_mid_header(self):
        a, b = _socketpair()
        a.sendall(b"\x01\x00\x00")  # 3 of 10 header bytes
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_mux_frame(b)
        finally:
            b.close()

    def test_closed_mid_payload(self):
        a, b = _socketpair()
        a.sendall(MUX_HEADER.pack(1, 0, 3, 4, 10) + b"abcd")  # 4 of 10 bytes
        a.close()
        try:
            with pytest.raises(FrameError, match="mid-frame"):
                recv_mux_frame(b)
        finally:
            b.close()

    def test_clean_eof_is_peer_closed(self):
        a, b = _socketpair()
        a.close()
        try:
            with pytest.raises(PeerClosed):
                recv_mux_frame(b)
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
            a.sendall(MUX_HEADER.pack(99, 0, 0, 0, 0))
            with pytest.raises(FrameError, match="version"):
                recv_mux_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("flags", [0x04, 0x80])
    def test_undefined_flag_bits_rejected(self, flags):
        """0x04 (retired) and the never-defined high bits are refused at
        the header, before the payload is read."""
        a, b = _socketpair()
        try:
            a.sendall(MUX_HEADER.pack(MUX_VERSION, flags, 3, 4, 2) + b"xy")
            with pytest.raises(FrameError, match="undefined mux frame flags"):
                StreamReader().feed(b)
        finally:
            a.close()
            b.close()

    def test_batched_frames_arrive_individually(self):
        a, b = _socketpair()
        try:
            payloads = [b"one", b"", b"three" * 100]
            send_mux_frames(a, 1, [(2, p) for p in payloads])
            for expect in payloads:
                assert recv_mux_frame(b) == (0, 1, 2, expect)
        finally:
            a.close()
            b.close()


def _frame(dst: int, payload: bytes) -> bytes:
    return MUX_HEADER.pack(1, 0, 5, dst, len(payload)) + payload


class TestStreamReader:
    def test_incremental_header_and_payload(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            wire = _frame(8, b"hello")
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
            assert frames == [(0, 5, 8, b"hello")]
        finally:
            a.close()
            b.close()

    def test_many_frames_single_feed(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            send_mux_frames(a, 5, [(8, b"x"), (8, b"yy"), (8, b"zzz")])
            time.sleep(0.05)
            frames = reader.feed(b)
            assert [p for _, _, _, p in frames] == [b"x", b"yy", b"zzz"]
        finally:
            a.close()
            b.close()

    def test_mux_mode_metadata(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
        try:
            send_mux_frames(a, 5, [(8, b"p1"), (9, b"p2")], flags=FLAG_EPOCH)
            time.sleep(0.05)
            frames = reader.feed(b)
            assert [(f, s, d, bytes(p)) for f, s, d, p in frames] == [
                (FLAG_EPOCH, 5, 8, b"p1"),
                (FLAG_EPOCH, 5, 9, b"p2"),
            ]
        finally:
            a.close()
            b.close()

    def test_one_read_returns_whole_frames_and_keeps_the_tail(self):
        a, b = _socketpair()
        b.setblocking(False)
        reader = StreamReader()
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
        sender = threading.Thread(
            target=send_mux_frames, args=(a, 5, [(8, big), (8, b"next")])
        )
        sender.start()
        try:
            frames, reads = [], 0
            deadline = time.time() + 5
            while len(frames) < 2:
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("large frame never completed")
                frames += reader.feed(b)
                reads += 1
            assert [p for _, _, _, p in frames] == [big, b"next"]
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
            a.sendall(MUX_HEADER.pack(1, 0, 5, 8, 10) + b"1234")
            a.close()
            time.sleep(0.05)
            # one read per feed: the partial frame first, the EOF behind it
            assert reader.feed(b) == []
            with pytest.raises(FrameError, match="mid-payload"):
                reader.feed(b)
        finally:
            b.close()


# ----------------------------------------------------------------------
# a site's one pooled link
# ----------------------------------------------------------------------
class TestPooledClient:
    """What client-side connection pooling came to: a site dials the hub
    once and every send of every thread rides that one duplex link."""

    def test_connection_reused_across_sends(self):
        with MiddlewareFabric(
            ["tx", "rx"], pairs=[("tx", "rx")], use_tcp=True
        ) as fab:
            for i in range(10):
                fab.send("tx", "rx", b"m%d" % i)
            for i in range(10):
                assert fab.recv("rx", timeout=2) == b"m%d" % i
            # one registered connection per site, however many sends
            assert len(fab._hub._routes) == 2

    def test_interleaved_concurrent_senders_one_connection(self):
        """Many threads share one link; frames never tear."""
        n_threads, n_msgs = 8, 25
        with MiddlewareFabric(
            ["tx", "rx"], pairs=[("tx", "rx")], use_tcp=True
        ) as fab:
            def sender(tid):
                for i in range(n_msgs):
                    # distinct fill byte and length per (thread, message)
                    fab.send("tx", "rx", bytes([tid]) * (100 + tid * 13 + i))

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
                payload = bytes(fab.recv("rx", timeout=5))
                tid = payload[0]
                assert payload == bytes([tid]) * len(payload)  # untorn
                counts[tid] = counts.get(tid, 0) + 1
            assert counts == {tid: n_msgs for tid in range(1, n_threads + 1)}
            assert len(fab._hub._routes) == 2

    def test_send_many_coalesces_in_order(self):
        with MiddlewareFabric(
            ["tx", "rx"], pairs=[("tx", "rx")], use_tcp=True
        ) as fab:
            fab.send_many("tx", [("rx", b"a"), ("rx", b"bb"), ("rx", b"ccc")])
            assert [bytes(fab.recv("rx", timeout=2)) for _ in range(3)] == [
                b"a",
                b"bb",
                b"ccc",
            ]


# ----------------------------------------------------------------------
# mux router data plane
# ----------------------------------------------------------------------
class TestMuxFabric:
    @pytest.mark.parametrize("use_tcp", [False, True])
    def test_roundtrip_and_stats(self, use_tcp):
        pairs = [("a", "b"), ("b", "a"), ("a", "c")]
        with MiddlewareFabric(
            ["a", "b", "c"], pairs=pairs, use_tcp=use_tcp
        ) as fab:
            fab.send("a", "b", b"hello")
            assert bytes(fab.recv("b", timeout=2)) == b"hello"
            fab.send_many("a", [("b", b"x" * 10), ("c", b"y" * 20)])
            assert bytes(fab.recv("b", timeout=2)) == b"x" * 10
            assert bytes(fab.recv("c", timeout=2)) == b"y" * 20
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
            ["a", "b"], pairs=[("a", "b")], use_tcp=True
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
            ["a", "b"], pairs=[("a", "b")], use_tcp=True
        ) as fab:
            fab._hub.stop()
            t0 = time.monotonic()
            with pytest.raises(ClientClosed):
                fab.recv("b", timeout=5)
            assert time.monotonic() - t0 < 2.0

    def test_relay_stats_accumulate_across_exchanges(self):
        """A hub counts a frame before it hands it on: whoever holds the
        payload finds it in the statistics, every time, on both hubs."""
        for use_tcp in (False, True):
            with MiddlewareFabric(
                ["a", "b"], pairs=[("a", "b")], use_tcp=use_tcp
            ) as fab:
                for k in range(1, 501):
                    fab.send("a", "b", b"12345")
                    fab.recv("b", timeout=2)
                    assert fab.relay_stats()[("a", "b")] == (k, 5 * k)

    @pytest.mark.parametrize("hub_cls", [InprocMuxRouter, MuxRouter])
    def test_frame_cut_inside_its_extension_block_is_dropped(self, hub_cls):
        """A frame whose payload ends inside the block its flags announce
        — sent that way, or cut by a ``corrupt`` fault at the hop — is
        dropped and counted at the hub, never delivered empty or shifted."""
        hub = hub_cls()
        hub.start()
        got = queue.SimpleQueue()
        ctx = obs.SpanContext(trace_id=1, span_id=2, sampled=True)
        flags, ext = pack_extension(ctx, 9)
        assert flags == FLAG_TRACED | FLAG_EPOCH and len(ext) == 25
        try:
            sender = hub.attach(1, lambda p: None)
            hub.attach(2, got.put)
            for cut in range(len(ext)):  # every truncation of the block
                sender.send(2, ext[:cut], flags=flags)
            # a small traced payload halved in flight ends inside the block
            with faults.injection(FaultPlan(seed=0).add("mux.forward", "corrupt")):
                sender.send(2, b"abc", flags=flags, ext=ext)
                sender.send(2, b"intact", flags=0)  # halved, but no block
                # frames are handled in order: once this one is here,
                # everything before it is accounted
                assert bytes(got.get(timeout=2)) == b"int"
            assert got.empty()
            assert hub.frames_dropped == len(ext) + 1
            assert hub.stats() == {(1, 2): (1, 6)}
        finally:
            hub.stop()

    def test_undefined_flag_frame_closes_the_senders_link(self):
        """A site that sends a frame with an undefined flag bit is cut off
        at the hub; the frame reaches no deliver callback and the other
        links keep routing."""
        hub = MuxRouter()
        hub.start()
        got = queue.SimpleQueue()
        sender = hub.attach(1, lambda p: None)
        receiver = hub.attach(2, got.put)
        ep = parse_endpoint(hub.endpoint)
        raw = socket.create_connection((ep.host, ep.port), timeout=5.0)
        try:
            send_mux_frame(raw, 3, 0, b"", flags=FLAG_CONTROL)
            assert recv_mux_frame(raw)[0] == FLAG_CONTROL  # registered
            raw.sendall(MUX_HEADER.pack(MUX_VERSION, 0x04, 3, 2, 3) + b"bad")
            try:
                assert raw.recv(1) == b""  # the hub closed the link
            except ConnectionResetError:
                pass
            sender.send(2, b"good")
            assert bytes(got.get(timeout=2)) == b"good"
            assert got.empty()
            assert hub.stats() == {(1, 2): (1, 4)}
        finally:
            for sock in (raw, sender, receiver):
                sock.close()
            hub.stop()

    def test_unknown_pair_rejected(self):
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
            with pytest.raises(KeyError, match="no pipeline"):
                fab.send("b", "a", b"x")
            with pytest.raises(KeyError, match="no pipeline"):
                fab.send_many("b", [("a", b"x")])

    def test_state_update_through_fast_fabric(self):
        with MiddlewareFabric(["s0", "s1"], pairs=[("s0", "s1")]) as fab:
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
        with MiddlewareFabric(["a", "b"], pairs=[("a", "b")]) as fab:
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
