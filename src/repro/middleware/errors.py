"""Typed middleware errors and the retry policy that handles them.

The middleware used to leak raw ``OSError`` / ``RuntimeError`` from
whichever socket primitive failed first, which callers could neither
classify nor handle uniformly.  Every failure that crosses the fabric
or serving API now maps onto this hierarchy:

``MiddlewareError``
    base class (subclasses ``RuntimeError`` so legacy ``except
    RuntimeError`` call sites keep working)
``ConnectFailed``
    the destination cannot be reached (refused, unreachable, no live
    replica)
``SendFailed``
    a send could not be completed: the site's link to the hub is closed
    or broken
``RecvTimeout``
    no payload arrived within the receive timeout (subclasses
    ``TimeoutError`` — existing ``except TimeoutError`` degradation
    paths see no difference)
``ClientClosed``
    the client (or its buffer) was closed while the caller was blocked
    in ``recv`` — shutdown wakes receivers instead of letting them hang
    until their timeout
``DeadlineExceeded``
    an operation-level deadline (per-frame exchange round, serving
    request) expired (also a ``TimeoutError``)

:class:`RetryPolicy` is the one retry/backoff/jitter implementation (the
serving tier's shard router retries with it): exponential backoff with
deterministic decorrelated jitter — the jitter sequence is derived from
the policy's seed, so a faulted run retries on the same schedule every
replay.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass

__all__ = [
    "MiddlewareError",
    "ConnectFailed",
    "SendFailed",
    "RecvTimeout",
    "ClientClosed",
    "DeadlineExceeded",
    "RetryPolicy",
]


class MiddlewareError(RuntimeError):
    """Base class for every typed middleware failure."""


class ConnectFailed(MiddlewareError, ConnectionRefusedError):
    """Dialling the destination endpoint failed.

    Also a :class:`ConnectionRefusedError` so pre-hierarchy call sites
    (``except ConnectionError`` / ``except OSError``) keep working.
    """


class SendFailed(MiddlewareError):
    """A send could not be delivered (closed or broken link)."""


class RecvTimeout(MiddlewareError, TimeoutError):
    """No payload arrived within the receive timeout."""


class ClientClosed(MiddlewareError):
    """The client was closed while an operation was blocked on it."""


class DeadlineExceeded(MiddlewareError, TimeoutError):
    """An operation-level deadline expired before completion."""


_U64 = struct.Struct(">Q")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    attempt plus at most two retries.  The backoff before retry ``k``
    (1-based) is ``min(max_delay, base_delay * 2**(k-1)) * j`` with
    ``j`` drawn deterministically from ``[1 - jitter, 1]`` — seeded
    jitter keeps replayed fault runs on identical schedules while still
    decorrelating real-world retry storms.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 0.5
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int) -> float:
        """Sleep duration before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        h = hashlib.blake2b(digest_size=8)
        h.update(_U64.pack(self.seed & 0xFFFFFFFFFFFFFFFF))
        h.update(_U64.pack(attempt))
        frac = _U64.unpack(h.digest())[0] / float(1 << 64)
        return raw * (1.0 - self.jitter * frac)

    def sleep(self, attempt: int, *, deadline: float | None = None) -> None:
        """Back off before retry ``attempt``; raises
        :class:`DeadlineExceeded` if the backoff would cross ``deadline``
        (a ``time.monotonic`` timestamp)."""
        delay = self.backoff(attempt)
        if deadline is not None and time.monotonic() + delay > deadline:
            raise DeadlineExceeded(
                f"retry backoff ({delay:.3f}s) would exceed the deadline"
            )
        if delay > 0:
            time.sleep(delay)

