"""Deterministic fault injection at runtime.

A :class:`FaultInjector` is consulted from the instrumented call sites
(mux forwards, pool task submission, simulated link transfers).  Each call site asks :meth:`decide` with its
layer and key; the injector returns the :class:`Decision` to apply —
``NO_FAULT`` almost always — and the call site acts on it.

Determinism: the ``(layer, key)`` pair indexes a private event counter,
and each probabilistic draw is ``blake2b(seed, layer, key, seq)`` mapped
to ``[0, 1)``.  Counters advance only on matching events, events at one
key are sequential by construction (one pair's forwards, one task
list's indices), so the same seed over the same workload fires the same
faults — regardless of thread scheduling across keys.

The injector is installed process-wide with :func:`repro.faults.install`
(or the :func:`repro.faults.injection` context manager); when nothing is
installed the instrumented sites cost one ``is None`` check.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass

from .plan import FaultPlan, FaultRule

__all__ = ["Decision", "NO_FAULT", "FaultInjector"]


@dataclass(frozen=True)
class Decision:
    """What an instrumented call site should do for one event."""

    action: str | None = None  # None = proceed normally
    delay: float = 0.0
    rule: FaultRule | None = None

    def __bool__(self) -> bool:
        return self.action is not None


#: the universal fast path: proceed normally
NO_FAULT = Decision()

_U64 = struct.Struct(">Q")
_DENOM = float(1 << 64)


def _draw(seed: int, layer: str, key, seq: int, rule_idx: int) -> float:
    """Pure uniform [0, 1) draw for one (event, rule) pair."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_U64.pack(seed & 0xFFFFFFFFFFFFFFFF))
    h.update(layer.encode())
    h.update(repr(key).encode())
    h.update(_U64.pack(seq))
    h.update(_U64.pack(rule_idx))
    return _U64.unpack(h.digest())[0] / _DENOM


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` against events.

    Thread-safe; cheap when a layer has no rules (one dict lookup).  The
    injector records every fired fault in :attr:`fired` — ``(layer, key,
    action)`` counts — so a chaos test can assert exactly which faults a
    seed produced, and the observability layer (when enabled) mirrors
    them as ``faults.injected_total`` counters.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        # rules pre-bucketed by layer, with their global index (the index
        # feeds the deterministic draw so stacked rules draw independently)
        self._by_layer: dict[str, list[tuple[int, FaultRule]]] = {}
        for idx, rule in enumerate(plan.rules):
            self._by_layer.setdefault(rule.layer, []).append((idx, rule))
        self._lock = threading.Lock()
        self._seq: dict[tuple, int] = {}
        self._fires: dict[tuple, int] = {}  # (layer, key, rule_idx) -> fires
        self.fired: dict[tuple, int] = {}  # (layer, key, action) -> count

    # ------------------------------------------------------------------
    def decide(self, layer: str, key) -> Decision:
        """The decision for one event at ``(layer, key)``.

        Rules are evaluated in plan order; the first that matches, is
        inside its firing window and wins its probability draw fires.
        """
        rules = self._by_layer.get(layer)
        if not rules:
            return NO_FAULT
        with self._lock:
            ckey = (layer, key)
            seq = self._seq.get(ckey, 0)
            self._seq[ckey] = seq + 1
            for idx, rule in rules:
                if not rule.matches(key):
                    continue
                if seq < rule.after:
                    continue
                fkey = (layer, key, idx)
                if rule.count is not None and self._fires.get(fkey, 0) >= rule.count:
                    continue
                if rule.probability < 1.0:
                    if _draw(self.plan.seed, layer, key, seq, idx) >= rule.probability:
                        continue
                self._fires[fkey] = self._fires.get(fkey, 0) + 1
                akey = (layer, key, rule.action)
                self.fired[akey] = self.fired.get(akey, 0) + 1
                self._record(layer, rule.action)
                return Decision(action=rule.action, delay=rule.delay, rule=rule)
        return NO_FAULT

    @staticmethod
    def _record(layer: str, action: str) -> None:
        from .. import obs

        if obs.enabled():
            obs.metrics().counter(
                "faults.injected_total", layer=layer, action=action
            ).inc()

    # ------------------------------------------------------------------
    def total_fired(self, layer: str | None = None) -> int:
        with self._lock:
            return sum(
                n for (lyr, _key, _act), n in self.fired.items()
                if layer is None or lyr == layer
            )

    def fired_summary(self) -> dict[tuple, int]:
        """Snapshot of ``(layer, key, action) -> count`` (stable, for
        replay assertions)."""
        with self._lock:
            return dict(self.fired)

    def reset(self) -> None:
        """Forget all counters: the next run replays the plan from the
        start (the mechanism behind exact chaos regressions)."""
        with self._lock:
            self._seq.clear()
            self._fires.clear()
            self.fired.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(seed={self.plan.seed}, rules={len(self.plan)}, "
            f"fired={self.total_fired()})"
        )
