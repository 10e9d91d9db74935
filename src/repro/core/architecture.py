"""The system-architecture prototype: wiring all substrates together.

``ArchitecturePrototype`` owns the pieces of the paper's Figure 1: the
decomposed power system, the HPC cluster topology, the mapping method and
the cost models used to replay execution on the simulated testbed.
Estimator sites that exchange pseudo-measurements over a live middleware
fabric are :class:`repro.core.runtime.LiveDseRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.costmodel import MiddlewareCostModel
from ..cluster.executor import SimExecutor
from ..cluster.topology import ClusterTopology, pnnl_testbed
from ..dse.decomposition import Decomposition, decompose
from ..grid.network import Network
from .mapper import ClusterMapper
from .weights import IterationModel, PAPER_ITERATION_MODEL

__all__ = ["ArchitecturePrototype"]


@dataclass
class ArchitecturePrototype:
    """A configured instance of the distributed-SE architecture.

    Build with :meth:`assemble`; then hand it to
    :class:`repro.core.session.DseSession` to process telemetry frames.
    """

    net: Network
    dec: Decomposition
    topology: ClusterTopology
    mapper: ClusterMapper
    executor: SimExecutor
    middleware_cost: MiddlewareCostModel
    iteration_model: IterationModel

    @classmethod
    def assemble(
        cls,
        net: Network,
        *,
        m_subsystems: int = 9,
        subsystem_sizes=None,
        topology: ClusterTopology | None = None,
        iteration_model: IterationModel = PAPER_ITERATION_MODEL,
        middleware_cost: MiddlewareCostModel | None = None,
        seed: int = 0,
    ) -> "ArchitecturePrototype":
        """Decompose ``net`` and wire the architecture around it.

        ``subsystem_sizes`` forces exact subsystem bus counts (e.g. the
        paper's 14,13,... split); otherwise a balanced ``m_subsystems``-way
        decomposition is computed.  Communication is accounted analytically
        on the simulated testbed.
        """
        topology = topology or pnnl_testbed()
        if subsystem_sizes is not None:
            from ..dse.decomposition import decompose_with_sizes

            dec = decompose_with_sizes(net, subsystem_sizes, seed=seed)
        else:
            dec = decompose(net, m_subsystems, seed=seed)
        mapper = ClusterMapper(topology, iteration_model=iteration_model, seed=seed)
        middleware_cost = middleware_cost or MiddlewareCostModel()
        executor = SimExecutor(topology, middleware=middleware_cost)

        return cls(
            net=net,
            dec=dec,
            topology=topology,
            mapper=mapper,
            executor=executor,
            middleware_cost=middleware_cost,
            iteration_model=iteration_model,
        )
