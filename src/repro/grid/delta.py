"""Copy-on-write scenario forking for :class:`~repro.grid.network.Network`.

A *scenario* is the base network plus a small typed delta: branch-status
flips (outages / restorations), injection overrides (load changes) and
voltage-profile seeds.  :class:`NetworkDelta` stores the delta as compact
``(indices, values)`` pairs, so creating a scenario and shipping it to a
process-pool worker or over the wire costs O(changed elements) — never a
deep copy of the whole network.

:meth:`Network.fork` applies a delta copy-on-write: the forked network
*shares* every untouched array with its base and owns fresh copies only of
the columns the delta patches.  Forked networks must therefore be treated
as read-only views (as all estimation / power-flow code already does);
call :meth:`NetworkDelta.materialize` for a fully-owned deep copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = ["DeltaError", "NetworkDelta"]


class DeltaError(ValueError):
    """Raised for structurally invalid scenario deltas."""


def _as_idx(idx) -> np.ndarray:
    return np.atleast_1d(np.asarray(idx, dtype=np.int64))


def _as_val(val, dtype=float) -> np.ndarray:
    return np.atleast_1d(np.asarray(val, dtype=dtype))


def _keep_last(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate an override list so the *last* write per index wins."""
    if len(idx) < 2:
        return idx, val
    # stable sort, then keep the final record of each run of equal indices
    order = np.argsort(idx, kind="stable")
    sidx, sval = idx[order], val[order]
    last = np.ones(len(sidx), dtype=bool)
    last[:-1] = sidx[1:] != sidx[:-1]
    return sidx[last], sval[last]


_EMPTY_IDX = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=float)
_EMPTY_I8 = np.zeros(0, dtype=np.int8)


@dataclass(frozen=True)
class NetworkDelta:
    """A typed, compact difference against a base network.

    Every field is an ``(idx, val)`` pair; indices are internal bus/branch
    indices of the base network.  Deltas are immutable — build new ones
    with the class-method constructors and combine them with
    :meth:`compose`.

    Fields
    ------
    br_idx, br_val:
        Branch-status overrides (``0`` = out of service, ``1`` = in).
    pd_idx, pd_val / qd_idx, qd_val:
        Real/reactive load overrides in per-unit (absolute values, not
        increments).
    vm_idx, vm_val / va_idx, va_val:
        Stored voltage-profile seeds (``Vm0`` / ``Va0``) in p.u. / radians.
    label:
        Optional human-readable scenario tag.
    """

    br_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    br_val: np.ndarray = field(default_factory=lambda: _EMPTY_I8)
    pd_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    pd_val: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    qd_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    qd_val: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    vm_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    vm_val: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    va_idx: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    va_val: np.ndarray = field(default_factory=lambda: _EMPTY_F)
    label: str = ""

    _PAIRS = (
        ("br_idx", "br_val"),
        ("pd_idx", "pd_val"),
        ("qd_idx", "qd_val"),
        ("vm_idx", "vm_val"),
        ("va_idx", "va_val"),
    )

    def __post_init__(self) -> None:
        for iname, vname in self._PAIRS:
            idx, val = getattr(self, iname), getattr(self, vname)
            if len(idx) != len(val):
                raise DeltaError(f"{iname}/{vname} length mismatch")
            if len(idx) and idx.min() < 0:
                raise DeltaError(f"{iname} contains negative indices")
        if len(self.br_val) and not np.isin(self.br_val, (0, 1)).all():
            raise DeltaError("branch status values must be 0 or 1")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def branch_outage(cls, *branches: int, label: str = "") -> "NetworkDelta":
        """Switch the given branches out of service."""
        idx = _as_idx(list(branches))
        return cls(br_idx=idx, br_val=np.zeros(len(idx), np.int8), label=label)

    @classmethod
    def branch_status(cls, idx, val, *, label: str = "") -> "NetworkDelta":
        """Explicit branch-status overrides (0/1 per index)."""
        return cls(br_idx=_as_idx(idx), br_val=_as_val(val, np.int8), label=label)

    @classmethod
    def load_override(
        cls, idx, *, Pd=None, Qd=None, label: str = ""
    ) -> "NetworkDelta":
        """Absolute per-unit load overrides at the given buses."""
        idx = _as_idx(idx)
        kw: dict = {"label": label}
        if Pd is not None:
            kw["pd_idx"], kw["pd_val"] = idx, _as_val(Pd)
        if Qd is not None:
            kw["qd_idx"], kw["qd_val"] = idx, _as_val(Qd)
        return cls(**kw)

    @classmethod
    def v0_seed(cls, Vm=None, Va=None, *, idx=None, label: str = "") -> "NetworkDelta":
        """Seed the stored voltage profile (``Vm0``/``Va0``).

        With ``idx=None`` the seed covers every bus of the given arrays
        (a warm start from a previous estimate).
        """
        kw: dict = {"label": label}
        if Vm is not None:
            vm = _as_val(Vm)
            kw["vm_idx"] = _as_idx(idx) if idx is not None else np.arange(
                len(vm), dtype=np.int64
            )
            kw["vm_val"] = vm
        if Va is not None:
            va = _as_val(Va)
            kw["va_idx"] = _as_idx(idx) if idx is not None else np.arange(
                len(va), dtype=np.int64
            )
            kw["va_val"] = va
        return cls(**kw)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return self.n_changes == 0

    @property
    def n_changes(self) -> int:
        """Number of overridden elements across all fields."""
        return sum(len(getattr(self, i)) for i, _ in self._PAIRS)

    @property
    def touches_topology(self) -> bool:
        """True when the delta flips any branch status."""
        return len(self.br_idx) > 0

    @property
    def nbytes(self) -> int:
        """Payload size of the delta arrays (the wire/process-pool cost)."""
        return sum(
            getattr(self, name).nbytes
            for pair in self._PAIRS
            for name in pair
        )

    # ------------------------------------------------------------------
    # Combination / application
    # ------------------------------------------------------------------
    def compose(self, other: "NetworkDelta") -> "NetworkDelta":
        """This delta followed by ``other`` (later writes win per index)."""
        kw: dict = {"label": other.label or self.label}
        for iname, vname in self._PAIRS:
            idx = np.concatenate([getattr(self, iname), getattr(other, iname)])
            val = np.concatenate([getattr(self, vname), getattr(other, vname)])
            kw[iname], kw[vname] = _keep_last(idx, val)
        return NetworkDelta(**kw)

    def check_bounds(self, net) -> None:
        """Raise :class:`DeltaError` if an override indexes past ``net``."""
        if len(self.br_idx) and self.br_idx.max() >= net.n_branch:
            raise DeltaError(
                f"branch override {self.br_idx.max()} >= n_branch {net.n_branch}"
            )
        for iname in ("pd_idx", "qd_idx", "vm_idx", "va_idx"):
            idx = getattr(self, iname)
            if len(idx) and idx.max() >= net.n_bus:
                raise DeltaError(
                    f"{iname} override {idx.max()} >= n_bus {net.n_bus}"
                )

    def apply_to(self, net):
        """Fork ``net`` copy-on-write (equivalent to ``net.fork(self)``).

        Only the arrays this delta touches are copied; everything else is
        shared with the base.  The result is a fully functional
        :class:`~repro.grid.network.Network` that must be treated as
        read-only.
        """
        self.check_bounds(net)
        patch: dict = {}

        def patched(arr: np.ndarray, idx: np.ndarray, val: np.ndarray):
            out = arr.copy()
            out[idx] = val
            return out

        if len(self.br_idx):
            patch["br_status"] = patched(
                net.br_status, self.br_idx, self.br_val.astype(net.br_status.dtype)
            )
        if len(self.pd_idx):
            patch["Pd"] = patched(net.Pd, self.pd_idx, self.pd_val)
        if len(self.qd_idx):
            patch["Qd"] = patched(net.Qd, self.qd_idx, self.qd_val)
        if len(self.vm_idx):
            patch["Vm0"] = patched(net.Vm0, self.vm_idx, self.vm_val)
        if len(self.va_idx):
            patch["Va0"] = patched(net.Va0, self.va_idx, self.va_val)
        if not patch:
            return replace(net)
        return replace(net, **patch)

    def materialize(self, net):
        """Eager deep copy of the forked scenario (all arrays owned)."""
        return self.apply_to(net).copy()

    def branch_status_of(self, net) -> np.ndarray:
        """The scenario's full branch-status vector (owned array)."""
        self.check_bounds(net)
        status = net.br_status.copy()
        if len(self.br_idx):
            status[self.br_idx] = self.br_val.astype(status.dtype)
        return status

    # ------------------------------------------------------------------
    # Wire / process-pool payload
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Compact plain-dict form for framing (O(changed elements))."""
        out: dict = {"label": self.label}
        for iname, vname in self._PAIRS:
            idx = getattr(self, iname)
            if len(idx):
                out[iname] = idx
                out[vname] = getattr(self, vname)
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "NetworkDelta":
        """Rebuild a delta from :meth:`to_payload` output."""
        return cls(**payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [
            f"{iname[:-4]}={len(getattr(self, iname))}"
            for iname, _ in self._PAIRS
            if len(getattr(self, iname))
        ]
        tag = f" {self.label!r}" if self.label else ""
        return f"NetworkDelta({', '.join(parts) or 'empty'}{tag})"
