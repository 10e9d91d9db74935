"""Declarative, seeded fault plans.

A :class:`FaultPlan` is a list of :class:`FaultRule` records: each rule
names an injection *layer* (a call site in the middleware, executor or
cluster-sim code), a *match* over that layer's keys (a site name, a
``(src, dst)`` pair, a worker task index — empty matches everything), an
*action* and a firing window.  Rules are plain data — picklable,
comparable, printable — so a chaos test can log the exact plan it ran
and a failing seed is an exact regression.

Determinism
-----------
Nothing in a plan draws from a shared RNG at injection time.  Every
probabilistic decision is a pure function of ``(plan.seed, layer, key,
sequence-number)`` (see :mod:`repro.faults.injector`), and sequence
numbers are counted per ``(layer, key)`` — a stream of events that is
sequential by construction (one site's sends, one pair's forwards, one
task list's indices).  Thread interleaving *across* keys therefore cannot
change any decision: the same seed replays the same faults.

Layers
------
``mux.forward``
    The mux hub forwarding one frame; key = ``(src_id, dst_id)``.
``worker``
    A process-pool task; key = the task's submission index.
``simmpi.link``
    A simulated inter-cluster transfer; key = ``(src_cluster, dst_cluster)``.

Actions
-------
``drop``        silently discard the frame / message
``delay``       sleep ``rule.delay`` seconds, then proceed
``duplicate``   deliver the frame twice
``corrupt``     truncate the payload (framing stays valid; the
                application-level decode fails loudly)
``disconnect``  hard-fail the destination's connection to the hub
``fail``        raise the layer's typed error (link down)
``kill``        terminate the worker process mid-task
``hang``        stall the worker for ``rule.delay`` seconds
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["FaultRule", "FaultPlan", "LAYERS", "ACTIONS"]

LAYERS = (
    "mux.forward",
    "worker",
    "simmpi.link",
)

ACTIONS = (
    "drop",
    "delay",
    "duplicate",
    "corrupt",
    "disconnect",
    "fail",
    "kill",
    "hang",
)

#: actions that make sense per layer (validated when a rule is added)
_LAYER_ACTIONS = {
    "mux.forward": {"drop", "delay", "duplicate", "corrupt", "disconnect"},
    "worker": {"kill", "hang"},
    "simmpi.link": {"drop", "fail", "delay"},
}


@dataclass(frozen=True)
class FaultRule:
    """One fault to inject.

    Parameters
    ----------
    layer, action:
        Injection point and what to do there (see the module docstring).
    match:
        Key filter.  Keys are layer-specific: an int (worker task index)
        or a tuple (``(src, dst)`` pair).  A
        value of ``None`` in the tuple position acts as a wildcard; an
        empty dict matches every key.  Recognised fields: ``key`` (exact
        or wildcard-tuple match).
    probability:
        Chance each matching event fires the rule (deterministic draw —
        see :class:`~repro.faults.injector.FaultInjector`).
    delay:
        Seconds for ``delay`` / ``hang`` actions.
    after:
        Skip the first ``after`` matching events at each key.
    count:
        Fire at most ``count`` times *per key* (``None`` = unlimited).
    """

    layer: str
    action: str
    match: dict = field(default_factory=dict)
    probability: float = 1.0
    delay: float = 0.0
    after: int = 0
    count: int | None = None

    def __post_init__(self):
        if self.layer not in LAYERS:
            raise ValueError(f"unknown fault layer {self.layer!r}; one of {LAYERS}")
        if self.action not in _LAYER_ACTIONS[self.layer]:
            raise ValueError(
                f"action {self.action!r} is not valid for layer {self.layer!r} "
                f"(valid: {sorted(_LAYER_ACTIONS[self.layer])})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.after < 0:
            raise ValueError("after must be non-negative")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None)")

    # ------------------------------------------------------------------
    def matches(self, key) -> bool:
        """Whether this rule applies to an event at ``key``."""
        want = self.match.get("key")
        if want is None:
            return True
        if isinstance(want, tuple) and isinstance(key, tuple):
            if len(want) != len(key):
                return False
            return all(w is None or w == k for w, k in zip(want, key))
        return want == key


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded collection of fault rules.

    ``seed`` anchors every probabilistic decision; two injectors built
    from equal plans replay the same faults against the same workload.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        return replace(self, rules=self.rules + (rule,))

    def add(self, layer: str, action: str, **kwargs) -> "FaultPlan":
        """Convenience: ``plan.add("mux.forward", "drop", key=(1, 2))``.

        ``key`` lands in the rule's ``match``; everything else is passed
        through to :class:`FaultRule`.
        """
        match = {}
        if "key" in kwargs:
            match["key"] = kwargs.pop("key")
        return self.with_rule(
            FaultRule(layer=layer, action=action, match=match, **kwargs)
        )

    def for_layer(self, layer: str) -> tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.layer == layer)

    @property
    def layers(self) -> frozenset:
        return frozenset(r.layer for r in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        layers=("mux.forward",),
        n_rules: int = 3,
        max_probability: float = 0.3,
        max_delay: float = 0.005,
        allow_disconnect: bool = True,
    ) -> "FaultPlan":
        """Generate a random (but fully seed-determined) chaos plan.

        Used by the chaos-fuzz tests: every run logs its seed, and
        re-running with that seed rebuilds the exact plan.  Actions are
        drawn from the layer's valid set (``kill``/``hang`` excluded from
        the mux layer by construction; ``disconnect`` optionally).
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        rules: list[FaultRule] = []
        for _ in range(n_rules):
            layer = str(rng.choice(list(layers)))
            actions = sorted(_LAYER_ACTIONS[layer])
            if not allow_disconnect and "disconnect" in actions:
                actions.remove("disconnect")
            action = str(rng.choice(actions))
            rules.append(
                FaultRule(
                    layer=layer,
                    action=action,
                    probability=float(rng.uniform(0.02, max_probability)),
                    delay=float(rng.uniform(0.0, max_delay))
                    if action in ("delay", "hang")
                    else 0.0,
                )
            )
        return cls(seed=seed, rules=tuple(rules))
