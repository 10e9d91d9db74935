"""The TCP hub's per-destination write coalescing.

The frames one ``select()`` batch routes are held per destination
connection and written with one ``sendmsg`` each after the batch.  Routing
stays per frame: fault decisions, the epoch fence and the relay statistics
are those of the frames one by one.  These tests drive the routing
sequence and the batch's write directly, on socket pairs, so a batch is
exactly the frames a test routes.
"""

import socket

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.middleware import MuxRouter, recv_mux_frame
from repro.middleware import fastpath


@pytest.fixture()
def hub():
    """A hub that is not started, with destinations 2 and 3 on socket
    pairs: ``(router, {dst: the site's end})``."""
    router = MuxRouter()
    ends = {}
    for dst in (2, 3):
        hub_end, site_end = socket.socketpair()
        router._routes[dst] = hub_end
        ends[dst] = site_end
    yield router, ends
    for sock in [*router._routes.values(), *ends.values()]:
        sock.close()
    router._sel.close()


def _route_all(router, frames):
    for dst, payload in frames:
        fastpath._route(router, 0, 1, dst, payload)


def _received(sock, n):
    sock.settimeout(2.0)
    return [(dst, bytes(p)) for _, _, dst, p in (recv_mux_frame(sock) for _ in range(n))]


def test_a_batch_is_one_write_per_destination(hub, monkeypatch):
    router, ends = hub
    send, writes = fastpath.sendmsg_all, []

    def record(sock, parts):
        writes.append(sock)
        return send(sock, parts)

    monkeypatch.setattr(fastpath, "sendmsg_all", record)
    frames = [(2, b"a1"), (3, b"b1"), (2, b"a2"), (2, b"a3"), (3, b"b2")]
    _route_all(router, frames)
    # counted when routed, before anything is written
    assert router.stats() == {(1, 2): (3, 6), (1, 3): (2, 4)}
    assert writes == []
    router._write_held()
    assert len(writes) == 2 and set(writes) == {router._routes[2], router._routes[3]}
    # each destination's frames arrive in routing order
    assert _received(ends[2], 3) == [(2, b"a1"), (2, b"a2"), (2, b"a3")]
    assert _received(ends[3], 2) == [(3, b"b1"), (3, b"b2")]
    assert router.stats() == {(1, 2): (3, 6), (1, 3): (2, 4)}
    assert router.frames_dropped == 0


def test_a_failed_write_takes_back_its_frames(hub, monkeypatch):
    router, ends = hub
    dead = router._routes[2]
    send = fastpath.sendmsg_all

    def fail_on_dead(sock, parts):
        if sock is dead:
            raise OSError("broken pipe")
        return send(sock, parts)

    monkeypatch.setattr(fastpath, "sendmsg_all", fail_on_dead)
    _route_all(router, [(2, b"a1"), (3, b"b1"), (2, b"a2")])
    router._write_held()
    assert router.stats() == {(1, 2): (0, 0), (1, 3): (1, 2)}
    assert 2 not in router._routes and 3 in router._routes
    assert _received(ends[3], 1) == [(3, b"b1")]
    assert router.frames_dropped == 0


def test_a_disconnect_discards_the_held_frames(hub):
    """The third frame to 2 disconnects it: the two held before it are
    never written, their counts are taken back and they count as dropped,
    as does the frame that fired the fault."""
    router, ends = hub
    plan = FaultPlan(seed=0).add(
        "mux.forward", "disconnect", key=(1, 2), after=2, count=1
    )
    with faults.injection(plan):
        _route_all(router, [(2, b"a1"), (3, b"b1"), (2, b"a2"), (2, b"a3")])
    router._write_held()
    assert router.stats() == {(1, 2): (0, 0), (1, 3): (1, 2)}
    assert router.frames_dropped == 3
    assert 2 not in router._routes
    ends[2].settimeout(2.0)
    assert ends[2].recv(64) == b""      # closed, nothing written
    assert _received(ends[3], 1) == [(3, b"b1")]
