"""Power network data model.

The model is a struct-of-arrays representation of a transmission network in
per-unit: bus, branch and generator tables stored as NumPy arrays so that
admittance construction, power flow and measurement evaluation are fully
vectorised.  External bus numbers (the identifiers used in published test
cases, e.g. "bus 117" in the IEEE 118 system) are mapped to contiguous
internal indices ``0..n_bus-1``; all array columns use internal indices.

The :func:`Network.from_case` constructor accepts a MATPOWER-style case
dictionary, which is the format used by the bundled IEEE cases in
:mod:`repro.grid.cases`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "BusType",
    "Network",
    "NetworkError",
]


class NetworkError(ValueError):
    """Raised for structurally invalid network data."""


class BusType:
    """Bus type codes (MATPOWER convention)."""

    PQ = 1
    PV = 2
    SLACK = 3
    ISOLATED = 4


# Column layouts of MATPOWER-style case dicts.
_BUS_COLS = 13  # BUS_I, TYPE, PD, QD, GS, BS, AREA, VM, VA, BASE_KV, ZONE, VMAX, VMIN
_GEN_COLS = 10  # GEN_BUS, PG, QG, QMAX, QMIN, VG, MBASE, STATUS, PMAX, PMIN
_BRANCH_COLS = 13  # F_BUS, T_BUS, R, X, B, RATE_A..C, TAP, SHIFT, STATUS, ANGMIN, ANGMAX


@dataclass
class Network:
    """A transmission network in per-unit struct-of-arrays form.

    Attributes
    ----------
    base_mva:
        System MVA base.
    bus_ids:
        External bus numbers, shape ``(n_bus,)``.
    bus_type:
        :class:`BusType` codes per bus.
    Pd, Qd:
        Real/reactive load in per-unit on ``base_mva``.
    Gs, Bs:
        Shunt conductance/susceptance in per-unit.
    area:
        Area number per bus (1-based, as in the case data).
    Vm0, Va0:
        Initial voltage magnitude (p.u.) and angle (radians).
    base_kv:
        Bus voltage base in kV.
    f, t:
        Branch terminal buses as internal indices.
    r, x, b:
        Branch series resistance/reactance and total line-charging
        susceptance (p.u.).
    tap:
        Off-nominal tap ratio (1.0 for lines).
    shift:
        Phase-shift angle in radians.
    br_status:
        1 for in-service branches, 0 otherwise.
    gen_bus:
        Internal bus index of each generator.
    Pg, Qg:
        Generator injections in per-unit.
    Vg:
        Generator voltage setpoint (p.u.).
    gen_status:
        1 for in-service units.
    name:
        Human-readable case name.
    """

    base_mva: float
    bus_ids: np.ndarray
    bus_type: np.ndarray
    Pd: np.ndarray
    Qd: np.ndarray
    Gs: np.ndarray
    Bs: np.ndarray
    area: np.ndarray
    Vm0: np.ndarray
    Va0: np.ndarray
    base_kv: np.ndarray
    f: np.ndarray
    t: np.ndarray
    r: np.ndarray
    x: np.ndarray
    b: np.ndarray
    tap: np.ndarray
    shift: np.ndarray
    br_status: np.ndarray
    gen_bus: np.ndarray
    Pg: np.ndarray
    Qg: np.ndarray
    Vg: np.ndarray
    gen_status: np.ndarray
    name: str = "network"
    _id_to_idx: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_case(cls, case: dict) -> "Network":
        """Build a network from a MATPOWER-style case dictionary.

        The dictionary must contain ``baseMVA`` (float), ``bus``, ``gen`` and
        ``branch`` (2-D array-likes with the standard MATPOWER columns).
        Loads, shunts and generation are converted to per-unit; angles to
        radians; bus numbers to internal indices.
        """
        bus = np.asarray(case["bus"], dtype=float)
        gen = np.asarray(case["gen"], dtype=float)
        branch = np.asarray(case["branch"], dtype=float)
        base_mva = float(case["baseMVA"])
        name = str(case.get("name", "network"))

        if bus.ndim != 2 or bus.shape[1] < _BUS_COLS:
            raise NetworkError(
                f"bus table must have >= {_BUS_COLS} columns, got {bus.shape}"
            )
        if gen.size and (gen.ndim != 2 or gen.shape[1] < _GEN_COLS):
            raise NetworkError(
                f"gen table must have >= {_GEN_COLS} columns, got {gen.shape}"
            )
        if branch.ndim != 2 or branch.shape[1] < _BRANCH_COLS:
            raise NetworkError(
                f"branch table must have >= {_BRANCH_COLS} columns, got {branch.shape}"
            )
        if base_mva <= 0:
            raise NetworkError("baseMVA must be positive")

        bus_ids = bus[:, 0].astype(np.int64)
        if len(np.unique(bus_ids)) != len(bus_ids):
            raise NetworkError("duplicate bus numbers in bus table")
        id_to_idx = {int(i): k for k, i in enumerate(bus_ids)}

        def _lookup(ids: np.ndarray, what: str) -> np.ndarray:
            try:
                return np.array([id_to_idx[int(i)] for i in ids], dtype=np.int64)
            except KeyError as exc:  # pragma: no cover - message path
                raise NetworkError(f"{what} references unknown bus {exc}") from exc

        tap = branch[:, 8].copy()
        tap[tap == 0.0] = 1.0  # MATPOWER encodes nominal taps as 0

        if gen.size:
            gen_bus = _lookup(gen[:, 0], "generator")
            Pg = gen[:, 1] / base_mva
            Qg = gen[:, 2] / base_mva
            Vg = gen[:, 5].copy()
            gen_status = (gen[:, 7] > 0).astype(np.int8)
        else:
            gen_bus = np.zeros(0, dtype=np.int64)
            Pg = Qg = Vg = np.zeros(0)
            gen_status = np.zeros(0, dtype=np.int8)

        net = cls(
            base_mva=base_mva,
            bus_ids=bus_ids,
            bus_type=bus[:, 1].astype(np.int8),
            Pd=bus[:, 2] / base_mva,
            Qd=bus[:, 3] / base_mva,
            Gs=bus[:, 4] / base_mva,
            Bs=bus[:, 5] / base_mva,
            area=bus[:, 6].astype(np.int64),
            Vm0=bus[:, 7].copy(),
            Va0=np.deg2rad(bus[:, 8]),
            base_kv=bus[:, 9].copy(),
            f=_lookup(branch[:, 0], "branch from"),
            t=_lookup(branch[:, 1], "branch to"),
            r=branch[:, 2].copy(),
            x=branch[:, 3].copy(),
            b=branch[:, 4].copy(),
            tap=tap,
            shift=np.deg2rad(branch[:, 9]),
            br_status=(branch[:, 10] > 0).astype(np.int8),
            gen_bus=gen_bus,
            Pg=Pg,
            Qg=Qg,
            Vg=Vg,
            gen_status=gen_status,
            name=name,
            _id_to_idx=id_to_idx,
        )
        net.validate()
        return net

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_bus(self) -> int:
        """Number of buses."""
        return len(self.bus_ids)

    @property
    def n_branch(self) -> int:
        """Number of branches (including out-of-service ones)."""
        return len(self.f)

    @property
    def n_gen(self) -> int:
        """Number of generator records."""
        return len(self.gen_bus)

    @property
    def slack_buses(self) -> np.ndarray:
        """Internal indices of slack (reference) buses."""
        return np.flatnonzero(self.bus_type == BusType.SLACK)

    @property
    def pv_buses(self) -> np.ndarray:
        """Internal indices of PV buses."""
        return np.flatnonzero(self.bus_type == BusType.PV)

    @property
    def pq_buses(self) -> np.ndarray:
        """Internal indices of PQ buses."""
        return np.flatnonzero(self.bus_type == BusType.PQ)

    def index_of(self, bus_id: int) -> int:
        """Map an external bus number to its internal index."""
        try:
            return self._id_to_idx[int(bus_id)]
        except KeyError as exc:
            raise NetworkError(f"unknown bus number {bus_id}") from exc

    def indices_of(self, bus_ids) -> np.ndarray:
        """Vectorised :meth:`index_of` over a sequence of bus numbers."""
        return np.array([self.index_of(b) for b in bus_ids], dtype=np.int64)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetworkError` if violated."""
        n = self.n_bus
        if n == 0:
            raise NetworkError("network has no buses")
        if not len(self.slack_buses):
            raise NetworkError("network has no slack bus")
        for name, arr in (("f", self.f), ("t", self.t), ("gen_bus", self.gen_bus)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise NetworkError(f"{name} contains out-of-range bus indices")
        if np.any(self.f == self.t):
            raise NetworkError("self-loop branch (f == t)")
        live = self.br_status > 0
        if np.any((self.r[live] == 0.0) & (self.x[live] == 0.0)):
            raise NetworkError("branch with zero series impedance")
        if np.any(self.tap <= 0.0):
            raise NetworkError("non-positive tap ratio")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def bus_injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Net scheduled complex injection per bus: (P, Q) in per-unit.

        Generation minus load, with out-of-service units excluded.  Used as
        the power-flow specification.
        """
        P = -self.Pd.copy()
        Q = -self.Qd.copy()
        if self.n_gen:
            on = self.gen_status > 0
            np.add.at(P, self.gen_bus[on], self.Pg[on])
            np.add.at(Q, self.gen_bus[on], self.Qg[on])
        return P, Q

    def live_branches(self) -> np.ndarray:
        """Indices of in-service branches."""
        return np.flatnonzero(self.br_status > 0)

    def adjacency_pairs(self) -> np.ndarray:
        """Unique unordered in-service bus pairs, shape ``(m, 2)``.

        Parallel branches collapse to one pair; used for topology analyses
        (islands, decomposition, tie-line identification).
        """
        live = self.live_branches()
        lo = np.minimum(self.f[live], self.t[live])
        hi = np.maximum(self.f[live], self.t[live])
        pairs = np.unique(np.column_stack([lo, hi]), axis=0)
        return pairs

    def to_networkx(self):
        """Export the in-service topology as an undirected networkx graph.

        Nodes are internal bus indices with ``bus_id`` attributes; edges carry
        the branch index list in ``branches``.
        """
        import networkx as nx

        g = nx.Graph(name=self.name)
        for i in range(self.n_bus):
            g.add_node(i, bus_id=int(self.bus_ids[i]), area=int(self.area[i]))
        for k in self.live_branches():
            u, v = int(self.f[k]), int(self.t[k])
            if g.has_edge(u, v):
                g[u][v]["branches"].append(int(k))
            else:
                g.add_edge(u, v, branches=[int(k)])
        return g

    def fork(self, delta=None) -> "Network":
        """Copy-on-write scenario fork: base arrays plus a small delta.

        ``delta`` is a :class:`~repro.grid.delta.NetworkDelta` (or ``None``
        for a plain zero-cost view).  Only the arrays the delta touches are
        copied — forking is O(changed elements), never a deep copy — so the
        fork shares storage with its base and must be treated as read-only.
        Use :meth:`copy` (or ``delta.materialize``) for an owned snapshot.
        """
        if delta is None:
            from dataclasses import replace

            return replace(self)
        return delta.apply_to(self)

    @classmethod
    def disjoint_union(
        cls, nets: "list[Network]", *, name: str = "union"
    ) -> "Network":
        """The members side by side as one network with no branch between
        them: member ``k``'s buses, branches and generators follow member
        ``k - 1``'s, terminal indices shifted by the bus offset, every
        other column concatenated as is.  Members may share external bus
        numbers (overlapping extracts of one grid), so the union numbers
        its buses ``0..n-1``.
        """
        if not nets:
            raise NetworkError("disjoint union of no networks")
        if any(net.base_mva != nets[0].base_mva for net in nets):
            raise NetworkError("disjoint union over different MVA bases")
        offsets = np.cumsum([0] + [net.n_bus for net in nets[:-1]])
        cols = {
            f.name: np.concatenate([getattr(net, f.name) for net in nets])
            for f in fields(cls)
            if f.name not in ("base_mva", "name", "_id_to_idx", "bus_ids")
        }
        for col in ("f", "t", "gen_bus"):
            cols[col] = np.concatenate(
                [getattr(net, col) + off for net, off in zip(nets, offsets)]
            )
        n = sum(net.n_bus for net in nets)
        union = cls(
            base_mva=nets[0].base_mva,
            bus_ids=np.arange(n, dtype=np.int64),
            name=name,
            _id_to_idx={k: k for k in range(n)},
            **cols,
        )
        union.validate()
        return union

    def copy(self) -> "Network":
        """Deep copy (all arrays owned by the copy)."""
        return Network(
            base_mva=self.base_mva,
            bus_ids=self.bus_ids.copy(),
            bus_type=self.bus_type.copy(),
            Pd=self.Pd.copy(),
            Qd=self.Qd.copy(),
            Gs=self.Gs.copy(),
            Bs=self.Bs.copy(),
            area=self.area.copy(),
            Vm0=self.Vm0.copy(),
            Va0=self.Va0.copy(),
            base_kv=self.base_kv.copy(),
            f=self.f.copy(),
            t=self.t.copy(),
            r=self.r.copy(),
            x=self.x.copy(),
            b=self.b.copy(),
            tap=self.tap.copy(),
            shift=self.shift.copy(),
            br_status=self.br_status.copy(),
            gen_bus=self.gen_bus.copy(),
            Pg=self.Pg.copy(),
            Qg=self.Qg.copy(),
            Vg=self.Vg.copy(),
            gen_status=self.gen_status.copy(),
            name=self.name,
            _id_to_idx=dict(self._id_to_idx),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(name={self.name!r}, n_bus={self.n_bus}, "
            f"n_branch={self.n_branch}, n_gen={self.n_gen})"
        )
