"""Measurement substrate: types, h(x)/H(x), generation, SCADA & PMU streams."""

from .failures import drop_region, drop_rtu, random_rtu_dropout
from .functions import MeasurementModel
from .generator import generate_measurements, inject_bad_data, true_values
from .placement import (
    full_placement,
    greedy_pmu_sites,
    pmu_placement,
    scada_placement,
)
from .pmu import PmuSample, PmuStream, pmu_storage_bytes
from .scada import NoiseProcess, ScadaSystem, TelemetryFrame
from .types import DEFAULT_SIGMAS, Measurement, MeasurementSet, MeasType

__all__ = [
    "MeasType",
    "Measurement",
    "MeasurementSet",
    "DEFAULT_SIGMAS",
    "MeasurementModel",
    "generate_measurements",
    "true_values",
    "inject_bad_data",
    "full_placement",
    "scada_placement",
    "pmu_placement",
    "greedy_pmu_sites",
    "ScadaSystem",
    "NoiseProcess",
    "TelemetryFrame",
    "PmuStream",
    "PmuSample",
    "pmu_storage_bytes",
    "drop_rtu",
    "drop_region",
    "random_rtu_dropout",
]
