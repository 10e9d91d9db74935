"""Distributed state estimation: decomposition, sensitivity, DSE, hierarchical."""

from .baddata import (
    DistributedBadDataReport,
    SubsystemBadData,
    distributed_bad_data,
)
from .algorithm import (
    BYTES_PER_EXCHANGED_BUS,
    DistributedStateEstimator,
    DseResult,
    SubsystemRecord,
)
from .condensation import CondensedStep2, neighbor_publication_sets
from .decomposition import (
    Decomposition,
    decompose,
    decompose_by_areas,
    decompose_with_sizes,
    extract_subnetwork,
)
from .hierarchical import HierarchicalResult, HierarchicalStateEstimator
from .pseudo import (
    MeasurementAssignment,
    assign_measurements,
    dse_pmu_placement,
    localize_measurements,
    pseudo_measurements,
)
from .sensitivity import (
    boundary_sensitivity,
    exchange_bus_sets,
    sensitive_internal_buses,
)
from .stepper import SubsystemStepper

__all__ = [
    "Decomposition",
    "decompose",
    "decompose_by_areas",
    "decompose_with_sizes",
    "extract_subnetwork",
    "boundary_sensitivity",
    "sensitive_internal_buses",
    "exchange_bus_sets",
    "MeasurementAssignment",
    "assign_measurements",
    "localize_measurements",
    "pseudo_measurements",
    "dse_pmu_placement",
    "DistributedStateEstimator",
    "DseResult",
    "SubsystemRecord",
    "SubsystemStepper",
    "BYTES_PER_EXCHANGED_BUS",
    "CondensedStep2",
    "neighbor_publication_sets",
    "HierarchicalStateEstimator",
    "HierarchicalResult",
    "distributed_bad_data",
    "DistributedBadDataReport",
    "SubsystemBadData",
]
