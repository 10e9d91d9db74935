"""The mapping method: placing subsystems onto HPC clusters.

Section IV-B.3 of the paper: before DSE Step 1 the decomposition graph is
(re)partitioned to balance compute; before DSE Step 2 the weights are
updated and the graph repartitioned to minimise communication while staying
balanced, with subsystems that change cluster paying a data-redistribution
cost.

The partitioner is a pure function of its integer inputs, and the noise
level a session feeds it moves the vertex weights only in whole units, so
:class:`ClusterMapper` memoizes both partitions on those integers and a
steady frame usually partitions nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster.topology import ClusterTopology
from ..dse.decomposition import Decomposition
from ..partition import (
    load_imbalance,
    migration_volume,
    partition_kway,
    repartition,
)
from .weights import (
    IterationModel,
    PAPER_ITERATION_MODEL,
    edge_weight_exchange,
    edge_weight_upper_bound,
    step1_graph,
    step2_graph,
    vertex_weights,
)

__all__ = ["Mapping", "ClusterMapper"]


@dataclass
class Mapping:
    """Subsystem → cluster assignment and its quality metrics."""

    assignment: np.ndarray  # subsystem -> cluster index
    cluster_names: list[str]
    imbalance: float
    edge_cut: int

    def cluster_of(self, s: int) -> str:
        """Cluster name hosting subsystem ``s``."""
        return self.cluster_names[int(self.assignment[s])]

    def subsystems_on(self, cluster: str) -> np.ndarray:
        """Subsystem ids mapped to a cluster."""
        idx = self.cluster_names.index(cluster)
        return np.flatnonzero(self.assignment == idx)

    def as_dict(self) -> dict[str, list[int]]:
        """``{cluster: [subsystems...]}`` — the Figure 4/5 presentation."""
        return {
            name: self.subsystems_on(name).tolist() for name in self.cluster_names
        }


class ClusterMapper:
    """Implements the paper's mapping method over a cluster topology.

    Parameters
    ----------
    topology:
        The available HPC clusters (``p`` = number of clusters).
    tol:
        Balance tolerance for the partitioner (METIS' suggested 1.05).
    iteration_model:
        The ``Ni = g1·x + g2`` model used for vertex weights.
    migration_factor:
        Edge-cut units one unit of migrated vertex weight costs during
        repartitioning (bounds data redistribution).
    seed:
        Seed for the partitioner.

    Both partitions are memoized on what determines them: Step 1 on the
    integer vertex-weight vector, Step 2 on the vertex weights, the
    Expression-5 edge weights and the previous assignment, each with ``p``,
    ``tol``, ``seed`` and ``migration_factor``.  The key is looked up
    before any graph is built; a hit returns a new :class:`Mapping` over
    the cached assignment, which every later caller shares and which is
    therefore read-only.  The memo belongs to one decomposition and is
    cleared when a call passes another (an outage repair installs a new
    one).  It needs no size bound: the level a session feeds it comes from
    :class:`~repro.core.noise.NoiseLevelEstimator`, clipped to [0.05, 10],
    over which ``rint(Nb_s·(g1·x + g2))`` takes at most
    ``Σ_s ⌈Nb_s·g1·9.95⌉ + 1`` distinct vectors (≈ 4 420 on IEEE-118/9
    with the paper's ``g1``).  A session's Step-2 key adds nothing free:
    its previous assignment is the Step-1 partition of the same weights,
    and its edge weights are fixed by the placement.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        tol: float = 1.05,
        iteration_model: IterationModel = PAPER_ITERATION_MODEL,
        migration_factor: float = 0.5,
        seed: int = 0,
    ):
        self.topology = topology
        self.tol = tol
        self.iteration_model = iteration_model
        self.migration_factor = migration_factor
        self.seed = seed
        self.cluster_names = [c.name for c in topology.clusters]
        self._memo_dec: Decomposition | None = None
        self._memo: dict[tuple, Mapping | tuple[Mapping, int]] = {}

    @property
    def p(self) -> int:
        """Number of clusters."""
        return len(self.cluster_names)

    # ------------------------------------------------------------------
    def map_step1(self, dec: Decomposition, noise_level: float) -> Mapping:
        """Partition for DSE Step 1: balance the computational loads."""
        vw = vertex_weights(dec, noise_level, model=self.iteration_model)
        memo, key = self._memo_for(dec), ("step1", vw.tobytes(), *self._settings())
        hit = memo.get(key)
        if hit is None:
            g = step1_graph(dec, noise_level, model=self.iteration_model)
            hit = memo[key] = self._mapping(
                partition_kway(g, self.p, tol=self.tol, seed=self.seed)
            )
        return replace(hit)

    def remap_step2(
        self,
        dec: Decomposition,
        noise_level: float,
        previous: Mapping,
        exchange_sets: dict[int, np.ndarray] | None = None,
    ) -> tuple[Mapping, int]:
        """Repartition for DSE Step 2: minimise communication, stay
        balanced, limit migration.

        Returns ``(mapping, migrated_weight)`` where the second element is
        the vertex weight (≈ measurement volume) that must be redistributed
        between clusters (section IV-C's data-redistribution step).
        """
        vw = vertex_weights(dec, noise_level, model=self.iteration_model)
        wmap = (
            edge_weight_upper_bound(dec) if exchange_sets is None
            else edge_weight_exchange(dec, exchange_sets)
        )
        old = np.asarray(previous.assignment, dtype=np.int64)
        memo = self._memo_for(dec)
        key = (
            "step2", vw.tobytes(), tuple(wmap[e] for e in dec.quotient_edges()),
            old.tobytes(), *self._settings(),
        )
        hit = memo.get(key)
        if hit is None:
            g = step2_graph(
                dec, noise_level, exchange_sets, model=self.iteration_model
            )
            res = repartition(
                g,
                self.p,
                old,
                tol=self.tol,
                migration_factor=self.migration_factor,
                seed=self.seed,
            )
            hit = memo[key] = (
                self._mapping(res), migration_volume(g, old, res.part)
            )
        return replace(hit[0]), hit[1]

    def _memo_for(self, dec: Decomposition) -> dict:
        """The partitions computed on ``dec``; a new decomposition starts
        an empty memo."""
        if dec is not self._memo_dec:
            self._memo_dec, self._memo = dec, {}
        return self._memo

    def _settings(self) -> tuple:
        """The partitioner settings every memo key carries."""
        return (self.p, self.tol, self.seed, self.migration_factor)

    def _mapping(self, res) -> Mapping:
        """The memo's copy of a partition: its assignment is shared by
        every later hit, so it is made read-only."""
        res.part.flags.writeable = False
        return Mapping(
            assignment=res.part,
            cluster_names=self.cluster_names,
            imbalance=res.imbalance,
            edge_cut=res.edge_cut,
        )

    # ------------------------------------------------------------------
    def static_mapping(self, dec: Decomposition) -> Mapping:
        """The "w/o mapping" baseline of Table II: contiguous block
        assignment of subsystems to clusters, ignoring weights."""
        sizes = dec.sizes()
        order = np.arange(dec.m)
        assignment = np.zeros(dec.m, dtype=np.int64)
        # contiguous chunks of ~m/p subsystems
        bounds = np.linspace(0, dec.m, self.p + 1).astype(int)
        for c in range(self.p):
            assignment[order[bounds[c] : bounds[c + 1]]] = c
        g = step1_graph(dec, 1.0, model=self.iteration_model)
        return Mapping(
            assignment=assignment,
            cluster_names=self.cluster_names,
            imbalance=load_imbalance(g, assignment, self.p),
            edge_cut=0,
        )
