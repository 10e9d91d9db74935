"""Span-based tracing with cross-thread / cross-wire context.

A *span* is one timed operation; spans link into trace trees through
``(trace_id, span_id, parent_id)``.  One DSE frame becomes one trace::

    dse.frame
    ├── dse.step1
    │   ├── dse.step1.subsystem {s=0}     (apportioned share of one stacked solve)
    │   └── ...
    ├── dse.exchange {round=0}
    │   └── mux.forward {src, dst}        (recorded at the router hop)
    ├── dse.step2 {round=0}
    │   └── dse.step2.subsystem {s=0}
    └── partition.remap

Propagation model:

- **same thread** — a ``contextvars.ContextVar`` holds the active span's
  context; ``start_span`` parents to it by default.
- **another thread** — capture :func:`current_context` and pass it as
  the parent, or re-activate it there with :func:`use_context`.
- **the wire** — the packed context rides a mux-frame payload prefix
  (``FLAG_TRACED``); the router hop and the receiving site join the
  sender's trace (see :mod:`repro.middleware.message`).

Timing uses the monotonic clock for durations (``perf_counter``) and the
epoch clock only to anchor span start times (an apportioned span is laid
out on it, and spans from different processes line up on it).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "SpanContext",
    "Span",
    "NOOP_SPAN",
    "Tracer",
    "use_context",
    "current_context",
    "pack_span_context",
    "unpack_span_context",
    "TRACE_CTX_SIZE",
]

#: wire encoding of a span context: sampled flag, trace id, span id
_TRACE_CTX = struct.Struct(">BQQ")
TRACE_CTX_SIZE = _TRACE_CTX.size

_ID_LOCK = threading.Lock()
_ID_COUNTER = itertools.count(1)


def _new_id() -> int:
    """Process-unique id, salted with the pid so ids minted by two
    processes of one trace (joined over the wire) cannot collide."""
    with _ID_LOCK:
        n = next(_ID_COUNTER)
    return ((os.getpid() & 0xFFFFF) << 40) | (n & 0xFFFFFFFFFF)


@dataclass(frozen=True)
class SpanContext:
    """The portable identity of a span: enough to parent children to it
    anywhere — another thread, another process, the far side of a socket."""

    trace_id: int
    span_id: int
    sampled: bool = True


#: the active span context of the current thread/task
_current: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_context() -> SpanContext | None:
    """The active span context in this thread (``None`` outside spans)."""
    return _current.get()


@contextmanager
def use_context(ctx: SpanContext | None):
    """Re-activate a captured span context (cross-thread propagation)."""
    if ctx is None:
        yield
        return
    token = _current.set(ctx)
    try:
        yield
    finally:
        _current.reset(token)


def pack_span_context(ctx: SpanContext) -> bytes:
    """Compact wire/pickle encoding (17 bytes)."""
    return _TRACE_CTX.pack(1 if ctx.sampled else 0, ctx.trace_id, ctx.span_id)


def unpack_span_context(buf, offset: int = 0) -> SpanContext:
    sampled, trace_id, span_id = _TRACE_CTX.unpack_from(buf, offset)
    return SpanContext(trace_id=trace_id, span_id=span_id, sampled=bool(sampled))


class Span:
    """One timed operation; use as a context manager.

    ``__exit__`` is exception-safe: an exception marks the span
    ``status="error"`` (with the exception repr as an attribute) and the
    span still ends and records.
    """

    __slots__ = (
        "name", "context", "parent_id", "attrs",
        "status", "_sink", "_t0", "_wall0", "_token", "_ended",
    )

    def __init__(self, name: str, context: SpanContext, parent_id: int | None,
                 sink, attrs: dict | None = None):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self._sink = sink
        self._t0 = 0.0
        self._wall0 = 0.0
        self._token = None
        self._ended = False

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._token = _current.set(self.context)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", repr(exc))
        try:
            self.end()
        finally:
            # Restore the contextvar even when the sink raises — otherwise
            # this thread's "current span" leaks past the with-block and
            # every later span silently parents into a dead trace.
            if self._token is not None:
                _current.reset(self._token)
                self._token = None

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        if self.context.sampled and self._sink is not None:
            self._sink._record(self.to_dict(time.perf_counter() - self._t0))

    def record(self, start: float, duration: float) -> None:
        """Finish a span that was never entered with a given wall-clock
        ``start`` and ``duration`` — a share of its parent's interval that
        was not timed on its own (one block of a stacked solve)."""
        self._wall0 = start
        self._ended = True
        if self.context.sampled and self._sink is not None:
            self._sink._record(self.to_dict(duration))

    def to_dict(self, duration: float) -> dict:
        return {
            "kind": "span",
            "trace": self.context.trace_id,
            "span": self.context.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self._wall0,
            "dur": duration,
            "status": self.status,
            "attrs": self.attrs,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
        }


class _NoopSpan:
    """Recorded-nowhere span — the disabled/unsampled fast path."""

    __slots__ = ()
    context = None
    parent_id = None
    name = ""
    status = "ok"
    attrs: dict = {}

    def set_attr(self, key, value) -> None:
        pass

    def end(self) -> None:
        pass

    def record(self, start, duration) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: sentinel: "parent not given — use the thread's current context"
_USE_CURRENT = object()


class Tracer:
    """Creates spans and collects the finished ones (thread-safe, bounded).

    Parameters
    ----------
    sample_every:
        Head sampling: record every N-th root trace (1 = all, 0 = none).
        The decision is made once per root and inherited by every child
        and wire hop, so sampled traces stay complete.
    max_spans:
        Retention bound; beyond it finished spans are counted as dropped
        instead of retained (the JSONL exporter reports the drop count).
    """

    def __init__(self, *, sample_every: int = 1, max_spans: int = 200_000):
        self.sample_every = int(sample_every)
        self.max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._finished: list[dict] = []
        self._root_count = 0
        self.spans_dropped = 0
        #: optional ``callback(span_dict)`` mirror — the health plane's
        #: flight recorder.  Fed every finished span (even ones the
        #: retention bound drops), outside this tracer's lock.
        self.mirror = None

    # -- span creation ------------------------------------------------------
    def _sample_root(self) -> bool:
        with self._lock:
            self._root_count += 1
            n = self.sample_every
            return n > 0 and (self._root_count - 1) % n == 0

    def start_span(self, name: str, *, parent=_USE_CURRENT, attrs=None) -> Span:
        """Open a span.

        ``parent`` may be a :class:`SpanContext`, a :class:`Span`, ``None``
        (force a new root) or omitted (parent to the thread's current
        context, root if there is none).
        """
        if parent is _USE_CURRENT:
            parent = _current.get()
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            ctx = SpanContext(
                trace_id=_new_id(), span_id=_new_id(),
                sampled=self._sample_root(),
            )
            parent_id = None
        else:
            ctx = SpanContext(
                trace_id=parent.trace_id, span_id=_new_id(),
                sampled=parent.sampled,
            )
            parent_id = parent.span_id
        return Span(name, ctx, parent_id, self, attrs)

    # -- collection ---------------------------------------------------------
    def _record(self, span_dict: dict) -> None:
        mirror = self.mirror
        if mirror is not None:
            mirror(span_dict)
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.spans_dropped += 1
                return
            self._finished.append(span_dict)

    def finished(self) -> list[dict]:
        """Copy of the finished spans recorded so far."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[dict]:
        """Remove and return every finished span."""
        with self._lock:
            out, self._finished = self._finished, []
            return out

    def spans_named(self, name: str) -> list[dict]:
        return [d for d in self.finished() if d["name"] == name]

    def reset(self) -> None:
        with self._lock:
            self._finished = []
            self._root_count = 0
            self.spans_dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
