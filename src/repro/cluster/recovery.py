"""Self-healing DSE: checkpointed subsystem state, leases, and failover.

The paper's architecture assumes every subsystem node survives the whole
estimation run; on a long-lived cluster a killed site would otherwise
degrade Step 2 forever — neighbours keep substituting prior boundary
values and nobody ever re-hosts the lost subsystem.  This module closes
the detect → recover loop between the PR 5 fault injector and the PR 9
health plane:

- :class:`SubsystemCheckpoint` — a compact, O(state) snapshot of one
  subsystem's Step-2 state (own-bus voltages, the extended warm start,
  the carried gain factor's point, epoch and round counters) with a
  versioned ``to_payload`` wire form.  The live runtime replicates it
  every round to the subsystem's hash-ring successor over the mux fabric
  as a ``FLAG_CHECKPOINT`` frame.
- :class:`MembershipView` — round-based leases: a site's lease is
  renewed by the heartbeats and checkpoints it pushes *through the
  fabric* (so an in-process zombie cannot self-beat), and expires after
  ``lease_rounds`` rounds of silence.  Loss bumps a monotonic cluster
  epoch.
- :class:`RecoveryCoordinator` — the shared failover brain: ingests
  replicas, scans leases once per round (first barrier arrival wins, the
  scan is deterministic), promotes a lost site's subsystems onto the
  successor that holds their replica, rebinds ownership so publication
  sets follow the subsystem, and fences the zombie at the mux hub so a
  stale site can never corrupt a post-failover round.

Leases are counted in Step-2 *rounds*, not wall-clock seconds: the live
runtime is barrier-lockstep, so round arithmetic keeps detection and
promotion bit-for-bit replayable under the deterministic fault injector.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..middleware.hashring import ConsistentHashRing, EmptyRing
from ..middleware.message import FrameError

__all__ = [
    "SubsystemCheckpoint",
    "MembershipView",
    "RecoveryConfig",
    "RecoveryCoordinator",
    "CKPT_VERSION",
    "HEARTBEAT_SUBSYSTEM",
    "heartbeat_payload",
]

#: checkpoint payload header: version, flags, subsystem id, hosting site
#: id, cluster epoch, round (signed: -1 marks the pre-round bootstrap
#: seed), own-bus count, extended-bus count
_CKPT_HEADER = struct.Struct(">BBHHQqII")
CKPT_VERSION = 1
#: the payload carries the extended warm-start state (Step-2 ``prev2``)
_CKPT_HAS_WARM = 0x01
#: the payload carries the carried gain factor's point (``lin0``)
_CKPT_HAS_LIN = 0x02

_F8 = np.dtype(">f8")
_I8 = np.dtype(">i8")

#: sentinel ``subsystem`` id marking a header-only heartbeat frame — it
#: renews the sender's lease but carries (and replaces) no replica.
HEARTBEAT_SUBSYSTEM = 0xFFFF


def heartbeat_payload(site: int, epoch: int, rnd: int) -> bytes:
    """Header-only lease beat for ``site`` covering round ``rnd``.

    Checkpoints only reach one destination (the hash-ring successor), so
    a lease that rode exclusively on them would starve the moment that
    successor died — every site therefore also beats *all* peers each
    round with this header-only frame.  A partitioned zombie cannot deliver
    it, which is exactly what makes the lease an end-to-end liveness
    proof.
    """
    return _CKPT_HEADER.pack(
        CKPT_VERSION, 0, HEARTBEAT_SUBSYSTEM, site, epoch, rnd, 0, 0
    )


@dataclass
class SubsystemCheckpoint:
    """One subsystem's recoverable Step-2 state at the end of a round.

    ``own_ids``/``own_vm``/``own_va`` are the subsystem's own buses and
    their current voltage estimate; ``warm_vm``/``warm_va`` (optional)
    are the extended-network warm start the next round would have used;
    ``lin_vm``/``lin_va`` (optional) is the point of the subsystem's
    carried gain factor.  Float64 state round-trips the wire
    bit-exactly, so in the donor's process a promoted replica's point
    still hits the factor the Step-2 estimator holds — failover does not
    refactor.
    """

    subsystem: int
    site: int
    epoch: int
    round: int
    own_ids: np.ndarray
    own_vm: np.ndarray
    own_va: np.ndarray
    warm_vm: np.ndarray | None = None
    warm_va: np.ndarray | None = None
    lin_vm: np.ndarray | None = None
    lin_va: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        n_own = len(self.own_ids)
        n_ext = 0 if self.warm_vm is None else len(self.warm_vm)
        n_lin = 0 if self.lin_vm is None else len(self.lin_vm)
        return _CKPT_HEADER.size + n_own * 24 + (n_ext + n_lin) * 16

    def to_payload(self) -> bytes:
        """Serialise to the compact wire form (single allocation)."""
        flags = 0
        n_ext = 0
        if self.warm_vm is not None:
            flags |= _CKPT_HAS_WARM
            n_ext = len(self.warm_vm)
        if self.lin_vm is not None:
            flags |= _CKPT_HAS_LIN
            if n_ext and len(self.lin_vm) != n_ext:
                raise FrameError("warm/lin extended lengths disagree")
            n_ext = len(self.lin_vm)
        n_own = len(self.own_ids)
        buf = bytearray(self.nbytes)
        _CKPT_HEADER.pack_into(
            buf, 0, CKPT_VERSION, flags, self.subsystem, self.site,
            self.epoch, self.round, n_own, n_ext,
        )
        off = _CKPT_HEADER.size
        for arr, dt in ((self.own_ids, _I8), (self.own_vm, _F8), (self.own_va, _F8)):
            block = np.frombuffer(buf, dtype=dt, count=n_own, offset=off)
            block[:] = arr
            off += n_own * 8
        if flags & _CKPT_HAS_WARM:
            for arr in (self.warm_vm, self.warm_va):
                block = np.frombuffer(buf, dtype=_F8, count=n_ext, offset=off)
                block[:] = arr
                off += n_ext * 8
        if flags & _CKPT_HAS_LIN:
            for arr in (self.lin_vm, self.lin_va):
                block = np.frombuffer(buf, dtype=_F8, count=n_ext, offset=off)
                block[:] = arr
                off += n_ext * 8
        return bytes(buf)

    @classmethod
    def from_payload(cls, buf) -> "SubsystemCheckpoint":
        if len(buf) < _CKPT_HEADER.size:
            raise FrameError("short checkpoint payload")
        (version, flags, subsystem, site, epoch, rnd, n_own, n_ext) = (
            _CKPT_HEADER.unpack_from(buf, 0)
        )
        if version != CKPT_VERSION:
            raise FrameError(f"unsupported checkpoint version {version}")
        need = _CKPT_HEADER.size + n_own * 24
        if flags & _CKPT_HAS_WARM:
            need += n_ext * 16
        if flags & _CKPT_HAS_LIN:
            need += n_ext * 16
        if len(buf) != need:
            raise FrameError(
                f"checkpoint length mismatch: {len(buf)} != {need}"
            )
        off = _CKPT_HEADER.size

        def take(dt, n):
            # native-endian copies: downstream math never touches the wire
            nonlocal off
            out = np.frombuffer(buf, dtype=dt, count=n, offset=off).astype(
                np.int64 if dt is _I8 else np.float64
            )
            off += n * 8
            return out

        own_ids = take(_I8, n_own)
        own_vm = take(_F8, n_own)
        own_va = take(_F8, n_own)
        warm_vm = warm_va = lin_vm = lin_va = None
        if flags & _CKPT_HAS_WARM:
            warm_vm = take(_F8, n_ext)
            warm_va = take(_F8, n_ext)
        if flags & _CKPT_HAS_LIN:
            lin_vm = take(_F8, n_ext)
            lin_va = take(_F8, n_ext)
        return cls(
            subsystem=int(subsystem), site=int(site), epoch=int(epoch),
            round=int(rnd), own_ids=own_ids, own_vm=own_vm, own_va=own_va,
            warm_vm=warm_vm, warm_va=warm_va, lin_vm=lin_vm, lin_va=lin_va,
        )


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning for the self-healing layer (off unless passed to the
    runtime).

    ``lease_rounds`` — rounds of checkpoint silence before a site is
    declared lost (round-based, so replays are deterministic).
    Checkpoints replicate every round, after the pre-round bootstrap
    seed.
    """

    lease_rounds: int = 2
    vnodes: int = 64

    def __post_init__(self):
        if self.lease_rounds < 1:
            raise ValueError("lease_rounds must be >= 1")


class MembershipView:
    """Round-based lease table with a monotonic cluster epoch.

    Not thread-safe on its own — the :class:`RecoveryCoordinator` owns
    the lock; the epoch fence only does atomic dict reads.
    """

    def __init__(self, sites, *, epoch0: int = 0):
        self._last: dict[str, int] = {s: -1 for s in sites}
        self._lost: dict[str, int] = {}  # site -> epoch at loss
        self.epoch = epoch0

    def beat(self, site: str, rnd: int) -> None:
        """Renew ``site``'s lease from a checkpoint covering round
        ``rnd`` (monotonic: stale replicas never rewind a lease)."""
        if site in self._last and rnd > self._last[site]:
            self._last[site] = rnd

    def expired(self, rnd: int, lease_rounds: int) -> list[str]:
        """Sites whose lease has lapsed as of round ``rnd``."""
        return sorted(
            s for s, last in self._last.items()
            if s not in self._lost and rnd - last > lease_rounds
        )

    def declare_lost(self, site: str) -> int:
        """Mark ``site`` lost; bumps and returns the cluster epoch."""
        if site not in self._lost:
            self.epoch += 1
            self._lost[site] = self.epoch
        return self.epoch

    def is_lost(self, site: str) -> bool:
        return site in self._lost

    def live(self) -> list[str]:
        return sorted(s for s in self._last if s not in self._lost)

    def last_seen(self, site: str) -> int:
        return self._last.get(site, -1)


@dataclass
class _Promotion:
    """A promotion the successor site picks up at its next round start."""

    checkpoint: SubsystemCheckpoint
    round: int  # round the promotion was decided


class RecoveryCoordinator:
    """Shared failover brain for one live DSE run.

    ``sites`` maps site name → wire id; ``hosted`` maps site name → the
    subsystem ids it initially hosts.  All mutation happens under one
    lock; the per-round lease scan runs exactly once (first
    :meth:`begin_round` caller wins) and depends only on round
    arithmetic, never on thread arrival order — so a seeded chaos run
    replays bit-for-bit.

    ``epoch0`` is the epoch the run starts in.  A fabric that outlives the
    run hands the next coordinator a higher one, so a frame stamped by the
    previous run — still in flight when this one installed its fence and
    sinks — is rejected like any other stale epoch.
    """

    def __init__(self, sites: dict[str, int], hosted: dict[str, list[int]],
                 *, config: RecoveryConfig | None = None, epoch0: int = 0):
        self.config = config or RecoveryConfig()
        self._ids = dict(sites)
        self._names = {i: n for n, i in sites.items()}
        self._epoch0 = epoch0
        self.ring = ConsistentHashRing(sorted(sites), vnodes=self.config.vnodes)
        self.membership = MembershipView(sorted(sites), epoch0=epoch0)
        self._site_of: dict[int, str] = {}
        for site, subs in hosted.items():
            for sub in subs:
                self._site_of[sub] = site
        self._replicas: dict[str, dict[int, SubsystemCheckpoint]] = {
            s: {} for s in sites
        }
        self._pending: dict[str, list[_Promotion]] = {}
        self._lock = threading.Lock()
        self._scanned_round = -1
        #: subsystem id -> round it was promoted (recovered)
        self.recovered: dict[int, int] = {}
        #: site names declared lost, in declaration order
        self.lost_sites: list[str] = []
        #: subsystems whose site died with no surviving replica
        self.unrecoverable: list[int] = []

    # -- read side -----------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.membership.epoch

    def site_of(self, sub: int) -> str:
        """The site currently hosting ``sub`` (rebound on promotion)."""
        return self._site_of[sub]

    def owns(self, site: str, sub: int) -> bool:
        return self._site_of.get(sub) == site

    def is_lost(self, site: str) -> bool:
        return self.membership.is_lost(site)

    def successor(self, sub: int) -> str | None:
        """The live replica target for ``sub``: the first hash-ring
        preference that is not its current host (``None`` when the ring
        has no other site)."""
        host = self._site_of.get(sub)
        try:
            candidates = self.ring.preference(("ckpt", sub))
        except EmptyRing:
            return None
        for cand in candidates:
            if cand != host:
                return cand
        return None

    def fence(self, src_id: int, epoch: int) -> bool:
        """Mux-hub epoch fence: frames from a declared-lost site are
        rejected regardless of the epoch they claim (a zombie cannot
        learn the new epoch — and must not be able to fake it)."""
        name = self._names.get(src_id)
        if name is None:
            return True
        if self.membership.is_lost(name):
            return False
        return epoch >= self._epoch0

    # -- write side ----------------------------------------------------
    def ingest(self, dst_site: str, payload) -> None:
        """Checkpoint-sink callback for ``dst_site``: store the replica
        and renew the sender's lease.  Only checkpoints that traversed
        the fabric land here, so the lease proves liveness end-to-end."""
        try:
            ckpt = (payload if isinstance(payload, SubsystemCheckpoint)
                    else SubsystemCheckpoint.from_payload(payload))
        except FrameError:
            return
        if ckpt.epoch < self._epoch0:
            return  # left over from an earlier run on the same fabric
        sender = self._names.get(ckpt.site)
        heartbeat = ckpt.subsystem == HEARTBEAT_SUBSYSTEM
        with self._lock:
            if sender is not None and self.membership.is_lost(sender):
                return  # belt and braces: the hub fence already drops these
            if not heartbeat:
                self._replicas.setdefault(dst_site, {})[ckpt.subsystem] = ckpt
            if sender is not None:
                self.membership.beat(sender, ckpt.round)
        if not heartbeat and obs.enabled():
            obs.metrics().counter("recovery.replicas_stored_total").inc()

    def begin_round(self, site: str, rnd: int) -> list[SubsystemCheckpoint]:
        """Round-start hook, called by every site right after the
        barrier.  The first caller for ``rnd`` runs the lease scan; the
        return value is the list of checkpoints newly promoted *onto*
        ``site`` (empty for everyone else)."""
        with self._lock:
            if rnd > self._scanned_round:
                self._scanned_round = rnd
                self._scan(rnd)
            out = self._pending.pop(site, [])
        return [p.checkpoint for p in out]

    def _scan(self, rnd: int) -> None:
        # grace: nothing can have checkpointed before the bootstrap seed
        for site in self.membership.expired(rnd, self.config.lease_rounds):
            self.membership.declare_lost(site)
            self.lost_sites.append(site)
            try:
                self.ring.remove(site)
            except Exception:  # pragma: no cover - single-site ring
                pass
            if obs.enabled():
                m = obs.metrics()
                m.counter("membership.leases_expired_total").inc()
                m.gauge("membership.epoch").set(self.membership.epoch)
                m.gauge("membership.live_sites").set(len(self.membership.live()))
            if obs.health_enabled():
                obs.health().site_lost(
                    site, round=rnd, epoch=self.membership.epoch,
                    last_seen=self.membership.last_seen(site),
                )
            for sub, owner in sorted(self._site_of.items()):
                if owner != site:
                    continue
                promoted = False
                try:
                    candidates = self.ring.preference(("ckpt", sub))
                except EmptyRing:
                    candidates = []  # every site is gone
                for cand in candidates:
                    if self.membership.is_lost(cand):
                        continue
                    ckpt = self._replicas.get(cand, {}).get(sub)
                    if ckpt is None:
                        continue
                    self._site_of[sub] = cand
                    self.recovered[sub] = rnd
                    self._pending.setdefault(cand, []).append(
                        _Promotion(checkpoint=ckpt, round=rnd)
                    )
                    promoted = True
                    if obs.enabled():
                        m = obs.metrics()
                        m.counter("recovery.promotions_total").inc()
                        m.histogram("recovery.rounds_to_recover").observe(
                            max(0, rnd - ckpt.round)
                        )
                    break
                if not promoted:
                    self.unrecoverable.append(sub)

    def snapshot(self) -> dict:
        """Diagnostic view (tests, demos, flight-recorder meta)."""
        with self._lock:
            return {
                "epoch": self.membership.epoch,
                "live": self.membership.live(),
                "lost": list(self.lost_sites),
                "recovered": dict(self.recovered),
                "unrecoverable": list(self.unrecoverable),
                "site_of": dict(self._site_of),
            }
