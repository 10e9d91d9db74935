"""Contingency definition and N-1 enumeration.

State estimation exists to feed operational tools; the first of them in the
paper's list is contingency analysis.  A contingency here is a single
branch outage (N-1); enumeration skips outages that would island the
network (they need special handling, reported separately).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..grid.delta import NetworkDelta
from ..grid.network import Network

__all__ = [
    "Contingency",
    "enumerate_n1",
    "islanding_branches",
    "apply_outage",
    "outage_delta",
]


@dataclass(frozen=True)
class Contingency:
    """A single-branch outage."""

    branch: int
    label: str

    def __post_init__(self) -> None:
        if self.branch < 0:
            raise ValueError("branch index must be non-negative")


def islanding_branches(net: Network) -> frozenset[int]:
    """Live branches whose outage disconnects the network: bridges of the
    bus-pair graph with no parallel circuit in service (the twin of a
    parallel pair keeps the buses connected)."""
    live = net.live_branches().tolist()
    pairs = [
        (min(a, b), max(a, b))
        for a, b in zip(net.f[live].tolist(), net.t[live].tolist())
    ]
    circuits = Counter(pairs)
    bridges = _bridges(net.n_bus, net.adjacency_pairs())
    return frozenset(
        k for k, pair in zip(live, pairs)
        if circuits[pair] == 1 and pair in bridges
    )


def enumerate_n1(net: Network) -> tuple[list[Contingency], list[Contingency]]:
    """All single-branch outages, split into (safe, islanding).

    A "safe" outage leaves the network connected; an "islanding" outage
    disconnects it (see :func:`islanding_branches`).
    """
    islands = islanding_branches(net)
    safe: list[Contingency] = []
    islanding: list[Contingency] = []
    for k in net.live_branches().tolist():
        c = Contingency(
            branch=k,
            label=f"{net.bus_ids[net.f[k]]}-{net.bus_ids[net.t[k]]}",
        )
        (islanding if k in islands else safe).append(c)
    return safe, islanding


def outage_delta(contingency: Contingency) -> NetworkDelta:
    """The contingency as a compact copy-on-write scenario delta."""
    return NetworkDelta.branch_outage(contingency.branch, label=contingency.label)


def apply_outage(net: Network, contingency: Contingency) -> Network:
    """Copy-on-write fork of ``net`` with the contingency branch out.

    The fork shares every untouched array with the base (O(1) per
    scenario, not O(network)); treat it as read-only like all power-flow
    and estimation consumers already do.
    """
    if contingency.branch >= net.n_branch:
        raise ValueError(f"branch {contingency.branch} out of range")
    return net.fork(outage_delta(contingency))


def _bridges(n: int, pairs: np.ndarray) -> set[tuple[int, int]]:
    """Bridge edges of the (pair-collapsed) graph via Tarjan's low-link."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(pairs):
        adj[int(u)].append((int(v), idx))
        adj[int(v)].append((int(u), idx))

    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = [0]

    for root in range(n):
        if visited[root]:
            continue
        # iterative DFS
        parent_edge = {root: -1}
        visited[root] = True
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        dfs = [(root, iter(adj[root]))]
        while dfs:
            v, it = dfs[-1]
            advanced = False
            for u, eidx in it:
                if eidx == parent_edge.get(v, -1):
                    continue
                if not visited[u]:
                    visited[u] = True
                    disc[u] = low[u] = timer[0]
                    timer[0] += 1
                    parent_edge[u] = eidx
                    dfs.append((u, iter(adj[u])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[u])
            if not advanced:
                dfs.pop()
                if dfs:
                    p = dfs[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        bridges.add((min(p, v), max(p, v)))
    return bridges
