"""Power-system decomposition into non-overlapping subsystems.

The preliminary step of the DSE algorithm (paper, section II): split the
network into ``m`` subsystems connected by tie lines, identify the boundary
buses, and expose the decomposition as a weighted quotient graph — the
object the paper's mapping method partitions onto HPC clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.islands import subgraph_components
from ..grid.network import BusType, Network
from ..partition import WeightedGraph, partition_kway

__all__ = ["Decomposition", "decompose", "decompose_by_areas", "extract_subnetwork"]


@dataclass
class Decomposition:
    """A partition of a network's buses into ``m`` subsystems.

    Attributes
    ----------
    net:
        The decomposed network.
    part:
        Bus → subsystem label, shape ``(n_bus,)``.
    m:
        Number of subsystems.
    """

    net: Network
    part: np.ndarray
    m: int
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.part = np.asarray(self.part, dtype=np.int64)
        if len(self.part) != self.net.n_bus:
            raise ValueError("part vector length mismatch")
        if self.part.min() < 0 or self.part.max() >= self.m:
            raise ValueError("subsystem labels out of range")

    # ------------------------------------------------------------------
    def buses(self, s: int) -> np.ndarray:
        """Bus indices of subsystem ``s``."""
        return np.flatnonzero(self.part == s)

    def sizes(self) -> np.ndarray:
        """Bus count per subsystem."""
        return np.bincount(self.part, minlength=self.m)

    @property
    def tie_lines(self) -> np.ndarray:
        """Indices of in-service branches crossing subsystems."""
        if "ties" not in self._cache:
            live = self.net.live_branches()
            cross = self.part[self.net.f[live]] != self.part[self.net.t[live]]
            self._cache["ties"] = live[cross]
        return self._cache["ties"]

    def internal_branches(self, s: int) -> np.ndarray:
        """In-service branches with both ends in subsystem ``s``."""
        live = self.net.live_branches()
        inside = (self.part[self.net.f[live]] == s) & (self.part[self.net.t[live]] == s)
        return live[inside]

    def boundary_buses(self, s: int) -> np.ndarray:
        """Buses of ``s`` incident to at least one tie line."""
        ties = self.tie_lines
        ends = np.concatenate([self.net.f[ties], self.net.t[ties]])
        ours = ends[self.part[ends] == s]
        return np.unique(ours)

    def external_boundary_buses(self, s: int) -> np.ndarray:
        """Buses of *other* subsystems directly across a tie line from ``s``."""
        ties = self.incident_tie_lines(s)
        ends = np.concatenate([self.net.f[ties], self.net.t[ties]])
        theirs = ends[self.part[ends] != s]
        return np.unique(theirs)

    def incident_tie_lines(self, s: int) -> np.ndarray:
        """Tie lines with exactly one end in subsystem ``s``."""
        ties = self.tie_lines
        touch = (self.part[self.net.f[ties]] == s) | (self.part[self.net.t[ties]] == s)
        return ties[touch]

    def neighbors(self, s: int) -> np.ndarray:
        """Subsystems sharing a tie line with ``s``.

        Memoised per subsystem like the tie lines it is read from; the
        cached array is shared by every caller and therefore read-only.
        """
        key = ("neighbors", s)
        if key not in self._cache:
            ties = self.incident_tie_lines(s)
            labels = np.concatenate(
                [self.part[self.net.f[ties]], self.part[self.net.t[ties]]]
            )
            nbrs = np.unique(labels[labels != s])
            nbrs.flags.writeable = False
            self._cache[key] = nbrs
        return self._cache[key]

    def quotient_edges(self) -> list[tuple[int, int]]:
        """Unique subsystem adjacency pairs (u < v)."""
        if "edges" not in self._cache:
            ties = self.tie_lines
            a = self.part[self.net.f[ties]]
            b = self.part[self.net.t[ties]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            pairs = np.unique(np.column_stack([lo, hi]), axis=0)
            self._cache["edges"] = tuple((int(u), int(v)) for u, v in pairs)
        return list(self._cache["edges"])

    def diameter(self) -> int:
        """Diameter of the quotient graph (bounds DSE Step 2 rounds).

        Memoised like the edge list: a decomposition does not change after
        construction, and every DSE frame asks.
        """
        if "diameter" not in self._cache:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(self.m))
            g.add_edges_from(self.quotient_edges())
            # disconnected quotient graph: m is a defensive upper bound
            self._cache["diameter"] = (
                nx.diameter(g) if nx.is_connected(g) else self.m
            )
        return self._cache["diameter"]

    def quotient_graph(
        self,
        *,
        vwgt: np.ndarray | None = None,
        ewgt_map=None,
    ) -> WeightedGraph:
        """The decomposition graph G = (V, E) of section IV-B.1.

        Default weights follow the paper's initialisation: vertex weight =
        bus count, edge weight = sum of the endpoint subsystems' bus counts
        (the upper bound of Expression (5)).
        """
        sizes = self.sizes()
        if vwgt is None:
            vwgt = sizes
        edges = self.quotient_edges()
        if ewgt_map is None:
            ewgt = [int(sizes[u] + sizes[v]) for u, v in edges]
        else:
            ewgt = [int(ewgt_map(u, v)) for u, v in edges]
        return WeightedGraph.from_edges(self.m, edges, vwgt=vwgt, ewgt=ewgt)

    def is_internally_connected(self) -> bool:
        """True when every subsystem induces a connected subgraph: the
        branches inside subsystems leave one component per subsystem."""
        n, pairs = self.net.n_bus, self.net.adjacency_pairs()
        inside = pairs[self.part[pairs[:, 0]] == self.part[pairs[:, 1]]]
        comps = subgraph_components(n, inside, np.arange(n))
        return len(comps) == len(np.unique(self.part))


# ----------------------------------------------------------------------
def decompose(
    net: Network,
    m: int,
    *,
    seed: int = 0,
    tol: float = 1.05,
    max_fix_rounds: int = 20,
    attempts: int = 4,
) -> Decomposition:
    """Decompose a network into ``m`` balanced, internally connected
    subsystems.

    Two candidate generators are tried over several seeds and the most
    balanced connected result wins:

    - k-way partitioning of the bus graph, followed by a fragment fix-up
      (balanced partitions may strand disconnected fragments) and a
      connectivity-preserving balance pass;
    - BFS region growing from spread-out seed buses, which is connected by
      construction.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    pairs = net.adjacency_pairs()
    adj: list[list[int]] = [[] for _ in range(net.n_bus)]
    for u, v in pairs:
        adj[u].append(int(v))
        adj[v].append(int(u))

    best: np.ndarray | None = None
    best_spread = None
    for k in range(max(1, attempts)):
        for gen in ("kway", "grow"):
            if gen == "kway":
                part = _kway_connected(
                    net, m, pairs, adj, seed=seed + k, tol=tol,
                    max_fix_rounds=max_fix_rounds,
                )
            else:
                part = _grow_regions(net, m, adj, seed=seed + k)
                part = _balance_connected(net, part, m, adj, tol=tol)
            sizes = np.bincount(part, minlength=m)
            if sizes.min() == 0:
                continue
            dec = Decomposition(net=net, part=part, m=m)
            if not dec.is_internally_connected():
                continue
            spread = int(sizes.max() - sizes.min())
            if best_spread is None or spread < best_spread:
                best, best_spread = part, spread
        if best_spread == 0:
            break
    if best is None:  # pragma: no cover - all attempts failed
        raise RuntimeError(f"could not decompose {net.name} into {m} subsystems")
    return Decomposition(net=net, part=best, m=m)


def _kway_connected(
    net: Network,
    m: int,
    pairs: np.ndarray,
    adj: list[list[int]],
    *,
    seed: int,
    tol: float,
    max_fix_rounds: int,
) -> np.ndarray:
    """k-way partition + fragment adoption + balance pass."""
    g = WeightedGraph.from_edges(net.n_bus, pairs)
    part = partition_kway(g, m, tol=tol, seed=seed).part.copy()

    for _ in range(max_fix_rounds):
        dirty = False
        for s in range(m):
            members = np.flatnonzero(part == s)
            if not members.size:
                continue
            comps = _components(adj, members)
            if len(comps) <= 1:
                continue
            comps.sort(key=len, reverse=True)
            for frag in comps[1:]:
                # adopt the fragment into the most-connected neighbour label
                counts: dict[int, int] = {}
                for v in frag:
                    for u in adj[v]:
                        if part[u] != s:
                            counts[int(part[u])] = counts.get(int(part[u]), 0) + 1
                if counts:
                    target = max(counts, key=counts.get)
                    part[frag] = target
                    dirty = True
        if not dirty:
            break

    return _balance_connected(net, part, m, adj, tol=tol)


def _grow_regions(
    net: Network,
    m: int,
    adj: list[list[int]],
    *,
    seed: int,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Grow ``m`` connected regions by BFS from spread-out seed buses.

    At each step the region furthest below its target (uniform when
    ``targets`` is None) absorbs one unassigned bus from its frontier, so
    regions stay connected and sizes track the targets.
    """
    rng = np.random.default_rng(seed)
    n = net.n_bus
    part = np.full(n, -1, dtype=np.int64)

    # Seeds: first random, then iteratively the bus farthest (BFS hops)
    # from all chosen seeds.
    seeds = [int(rng.integers(0, n))]
    dist = _bfs_distance(adj, seeds[0], n)
    for _ in range(1, m):
        far = int(np.argmax(dist))
        seeds.append(far)
        dist = np.minimum(dist, _bfs_distance(adj, far, n))

    frontiers: list[set[int]] = []
    for s, b in enumerate(seeds):
        part[b] = s
        frontiers.append({u for u in adj[b] if part[u] == -1})

    sizes = np.ones(m, dtype=np.int64)
    if targets is None:
        targets = np.full(m, n / m)
    assigned = m
    while assigned < n:
        # most-deficient region first (relative to its target)
        order = np.argsort(sizes / np.asarray(targets, dtype=float), kind="stable")
        for s in order:
            frontier = frontiers[s]
            # prune already-assigned buses lazily
            while frontier:
                v = frontier.pop()
                if part[v] == -1:
                    part[v] = s
                    sizes[s] += 1
                    assigned += 1
                    frontier.update(u for u in adj[v] if part[u] == -1)
                    break
            else:
                continue
            break
        else:
            # all frontiers empty but buses remain (disconnected graph):
            # dump leftovers on their own nearest region via any neighbour
            for v in np.flatnonzero(part == -1):
                labels = [part[u] for u in adj[v] if part[u] != -1]
                part[v] = labels[0] if labels else int(np.argmin(sizes))
                sizes[part[v]] += 1
                assigned += 1
    return part


def _bfs_distance(adj: list[list[int]], src: int, n: int) -> np.ndarray:
    from collections import deque

    dist = np.full(n, n + 1, dtype=np.int64)
    dist[src] = 0
    q = deque([src])
    while q:
        v = q.popleft()
        for u in adj[v]:
            if dist[u] > dist[v] + 1:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _components(adj: list[list[int]], members: np.ndarray) -> list[np.ndarray]:
    """Connected components of the subgraph ``members`` induces, as
    :func:`~repro.grid.islands.subgraph_components` returns them (sorted
    arrays, ordered by smallest bus), by search over the adjacency lists —
    no sparse graph is built for a subsystem-sized question."""
    left = set(members.tolist())
    comps = []
    for v in sorted(left):
        if v not in left:
            continue
        left.remove(v)
        comp, stack = [v], [v]
        while stack:
            for u in adj[stack.pop()]:
                if u in left:
                    left.remove(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(np.array(sorted(comp), dtype=np.int64))
    return comps


def _connected(adj: list[list[int]], members: np.ndarray) -> bool:
    """True when the non-empty ``members`` induce a connected subgraph."""
    left = set(members.tolist())
    stack = [left.pop()]
    while stack:
        for u in adj[stack.pop()]:
            if u in left:
                left.remove(u)
                stack.append(u)
    return not left


def _balance_connected(
    net: Network,
    part: np.ndarray,
    m: int,
    adj: list[list[int]],
    *,
    tol: float,
    max_moves: int | None = None,
) -> np.ndarray:
    """Move boundary buses from oversized to smaller adjacent subsystems,
    only accepting moves that keep the donor connected."""
    part = part.copy()
    n = net.n_bus
    limit = int(np.ceil(tol * n / m))
    if max_moves is None:
        max_moves = 4 * n

    for _ in range(max_moves):
        sizes = np.bincount(part, minlength=m)
        donors = np.flatnonzero(sizes > limit)
        if not donors.size:
            break
        donor = int(donors[np.argmax(sizes[donors])])
        members = np.flatnonzero(part == donor)
        # Candidate buses: adjacent to a *smaller* subsystem.
        best = None  # (target_size, bus, target)
        for v in members:
            targets = {int(part[u]) for u in adj[v] if part[u] != donor}
            targets = {t for t in targets if sizes[t] < sizes[donor] - 1}
            if not targets:
                continue
            rest = members[members != v]
            if len(rest) and not _connected(adj, rest):
                continue  # removal would split the donor
            t = min(targets, key=lambda t: sizes[t])
            if best is None or sizes[t] < best[0]:
                best = (sizes[t], int(v), t)
        if best is None:
            break
        _, v, t = best
        part[v] = t
    return part


def decompose_with_sizes(
    net: Network,
    sizes,
    *,
    seed: int = 0,
    attempts: int = 8,
    max_moves: int | None = None,
) -> Decomposition:
    """Decompose into subsystems with the given target bus counts.

    Used to reproduce published decompositions exactly (e.g. the paper's
    9-way IEEE-118 split with sizes 14,13,13,13,13,12,14,13,13).  Regions
    grow by BFS with priority to the most-deficient region, then a
    connectivity-preserving pass moves boundary buses from oversized to
    undersized subsystems.  Raises ``RuntimeError`` if no attempt reaches
    the exact sizes while keeping every subsystem connected.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    m = len(sizes)
    if sizes.sum() != net.n_bus:
        raise ValueError(
            f"target sizes sum to {sizes.sum()}, network has {net.n_bus} buses"
        )
    if np.any(sizes < 1):
        raise ValueError("target sizes must be positive")
    pairs = net.adjacency_pairs()
    adj: list[list[int]] = [[] for _ in range(net.n_bus)]
    for u, v in pairs:
        adj[u].append(int(v))
        adj[v].append(int(u))
    if max_moves is None:
        max_moves = 20 * net.n_bus

    best: np.ndarray | None = None
    best_err = None
    for k in range(attempts):
        part = _grow_regions(net, m, adj, seed=seed + k, targets=sizes)
        part = _move_to_targets(part, sizes, pairs, adj, max_moves=max_moves)
        counts = np.bincount(part, minlength=m)
        dec = Decomposition(net=net, part=part, m=m)
        if not dec.is_internally_connected():
            continue
        err = int(np.abs(counts - sizes).sum())
        if best_err is None or err < best_err:
            best, best_err = part, err
        if best_err == 0:
            break
    if best is None or best_err != 0:
        raise RuntimeError(
            f"could not reach target sizes {sizes.tolist()} "
            f"(best residual {best_err})"
        )
    return Decomposition(net=net, part=best, m=m)


def _move_to_targets(
    part: np.ndarray,
    targets: np.ndarray,
    pairs: np.ndarray,
    adj: list[list[int]],
    *,
    max_moves: int,
) -> np.ndarray:
    """Move boundary buses from over-target to under-target subsystems,
    keeping donors connected."""
    part = part.copy()
    m = len(targets)
    from collections import deque

    def _shift_one(a: int, b: int) -> bool:
        """Move one boundary bus from subsystem a to adjacent b, keeping a
        connected."""
        members = np.flatnonzero(part == a)
        for v in members:
            if not any(part[u] == b for u in adj[v]):
                continue
            rest = members[members != v]
            if len(rest) and not _connected(adj, rest):
                continue
            part[v] = b
            return True
        return False

    for _ in range(max_moves):
        counts = np.bincount(part, minlength=m)
        surplus = counts - targets
        over = np.flatnonzero(surplus > 0)
        if not over.size:
            break
        # Quotient adjacency on the current partition.
        qadj: list[set[int]] = [set() for _ in range(m)]
        for u, v in pairs:
            a, b = int(part[u]), int(part[v])
            if a != b:
                qadj[a].add(b)
                qadj[b].add(a)
        # BFS from the most-oversized subsystem to any deficient one, then
        # shift one bus along each edge of the path (a diffusion chain).
        src = int(over[np.argmax(surplus[over])])
        prev = {src: -1}
        q = deque([src])
        dest = -1
        while q:
            a = q.popleft()
            if surplus[a] < 0 and a != src:
                dest = a
                break
            for b in qadj[a]:
                if b not in prev:
                    prev[b] = a
                    q.append(b)
        if dest < 0:
            break
        path = [dest]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()  # src ... dest
        progressed = False
        for a, b in zip(path[:-1], path[1:]):
            if not _shift_one(a, b):
                break
            progressed = True
        if not progressed:
            break
    return part


def decompose_by_areas(net: Network) -> Decomposition:
    """Decompose along the case's area labels (balancing authorities)."""
    labels = np.unique(net.area)
    remap = {int(a): i for i, a in enumerate(labels)}
    part = np.array([remap[int(a)] for a in net.area], dtype=np.int64)
    return Decomposition(net=net, part=part, m=len(labels))


# ----------------------------------------------------------------------
def extract_subnetwork(
    net: Network,
    buses: np.ndarray,
    branches: np.ndarray,
    *,
    reference_bus: int | None = None,
    name: str = "subnetwork",
) -> tuple[Network, np.ndarray, np.ndarray]:
    """Induce a standalone :class:`Network` on ``buses`` and ``branches``.

    Parameters
    ----------
    buses:
        Global bus indices to keep (order defines local numbering).
    branches:
        Global branch indices to keep; both endpoints must be in ``buses``.
    reference_bus:
        Global bus index to mark as the local slack; defaults to the first
        bus (a slack is required by the Network invariants even though the
        estimator may use PMU anchoring instead).

    Returns
    -------
    (subnet, bus_map, branch_map):
        ``bus_map[g] = local index`` (-1 where absent); ``branch_map``
        likewise for branches.
    """
    buses = np.asarray(buses, dtype=np.int64)
    branches = np.asarray(branches, dtype=np.int64)
    n = len(buses)
    bus_map = -np.ones(net.n_bus, dtype=np.int64)
    bus_map[buses] = np.arange(n)
    if np.any(bus_map[net.f[branches]] < 0) or np.any(bus_map[net.t[branches]] < 0):
        raise ValueError("branch endpoint outside the subnetwork")

    if reference_bus is None:
        reference_bus = int(buses[0])
    if bus_map[reference_bus] < 0:
        raise ValueError("reference bus not in subnetwork")

    bus_type = net.bus_type[buses].copy()
    # Exactly one local slack.
    bus_type[bus_type == BusType.SLACK] = BusType.PV
    bus_type[bus_map[reference_bus]] = BusType.SLACK

    gsel = np.flatnonzero(bus_map[net.gen_bus] >= 0) if net.n_gen else np.array([], int)

    branch_map = -np.ones(net.n_branch, dtype=np.int64)
    branch_map[branches] = np.arange(len(branches))

    sub = Network(
        base_mva=net.base_mva,
        bus_ids=net.bus_ids[buses].copy(),
        bus_type=bus_type,
        Pd=net.Pd[buses].copy(),
        Qd=net.Qd[buses].copy(),
        Gs=net.Gs[buses].copy(),
        Bs=net.Bs[buses].copy(),
        area=net.area[buses].copy(),
        Vm0=net.Vm0[buses].copy(),
        Va0=net.Va0[buses].copy(),
        base_kv=net.base_kv[buses].copy(),
        f=bus_map[net.f[branches]],
        t=bus_map[net.t[branches]],
        r=net.r[branches].copy(),
        x=net.x[branches].copy(),
        b=net.b[branches].copy(),
        tap=net.tap[branches].copy(),
        shift=net.shift[branches].copy(),
        br_status=net.br_status[branches].copy(),
        gen_bus=bus_map[net.gen_bus[gsel]],
        Pg=net.Pg[gsel].copy(),
        Qg=net.Qg[gsel].copy(),
        Vg=net.Vg[gsel].copy(),
        gen_status=net.gen_status[gsel].copy(),
        name=name,
        _id_to_idx={int(net.bus_ids[b]): k for k, b in enumerate(buses)},
    )
    sub.validate()
    return sub, bus_map, branch_map
