"""Per-site endpoint: the interface-layer objects an estimator owns.

The paper's ``MW_Client_Send`` / ``MW_Client_Recv`` (Figure 6) are
:meth:`MiddlewareFabric.send <repro.middleware.router.MiddlewareFabric.send>`
and :meth:`~repro.middleware.router.MiddlewareFabric.recv`: an estimator
names the destination estimator and the fabric's hub does the routing.
What each site keeps for itself lives here — the local :class:`DataBuffer`
the data processor drains, and the byte accounting around it
(:class:`MWClient`, one per site, ``fabric.clients[name]``).
"""

from __future__ import annotations

import queue

from .. import obs
from .errors import ClientClosed, RecvTimeout

__all__ = ["DataBuffer", "MWClient"]

#: queue sentinel: buffer closed (latched so every blocked reader wakes)
_CLOSED = object()


class DataBuffer:
    """The local data buffer of the architecture's interface layer.

    Shutdown-aware: :meth:`close` wakes every blocked :meth:`get` with
    :class:`~repro.middleware.errors.ClientClosed` instead of leaving it
    to hang until its timeout.  Payloads enqueued before the close are
    still drained first (FIFO), so a closing client loses no data that
    already arrived.
    """

    def __init__(self):
        self._q: "queue.Queue[bytes]" = queue.Queue()
        self._closed = False

    def put(self, payload: bytes) -> None:
        self._q.put(payload)

    def get(self, timeout: float | None = None) -> bytes:
        try:
            item = self._q.get(timeout=timeout)
        except queue.Empty as exc:
            if self._closed:
                raise ClientClosed("data buffer closed") from None
            raise RecvTimeout("data buffer empty") from exc
        if item is _CLOSED:
            self._q.put(_CLOSED)  # latch for any other blocked reader
            raise ClientClosed("data buffer closed")
        return item

    def close(self) -> None:
        """Mark closed and wake every blocked reader (idempotent)."""
        if not self._closed:
            self._closed = True
            self._q.put(_CLOSED)

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self._q.qsize()


class MWClient:
    """One site's end of the fabric: its data buffer and byte counters.

    The fabric's link for this site hands every received application
    payload to :meth:`_deliver`; ``bytes_sent`` is kept by the fabric's
    send calls (application bytes, extension blocks excluded).
    """

    def __init__(self, name: str):
        self.name = name
        self.buffer = DataBuffer()
        self.bytes_sent = 0
        self.bytes_received = 0

    def _deliver(self, payload) -> None:
        """Account for and enqueue one received payload."""
        self.bytes_received += len(payload)
        if obs.enabled():
            obs.metrics().counter("mw.client.frames_received_total").inc()
        self.buffer.put(payload)

    def recv(self, timeout: float | None = 5.0) -> bytes:
        """Take the next payload from the local buffer.

        Raises :class:`~repro.middleware.errors.RecvTimeout` (a
        ``TimeoutError``) when nothing arrives in time, and
        :class:`~repro.middleware.errors.ClientClosed` once the client is
        closed — a shutdown wakes blocked receivers immediately instead
        of letting them sit out the timeout.
        """
        return self.buffer.get(timeout=timeout)

    def close(self) -> None:
        self.buffer.close()  # wake anyone blocked in recv
