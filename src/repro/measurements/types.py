"""Measurement types and containers.

A measurement refers either to a bus (voltage magnitude, injections, PMU
phasor angle) or to a branch end (flows, current magnitude).  For vectorised
evaluation the :class:`MeasurementSet` stores measurements grouped by type as
index arrays, in a single canonical order that every consumer (h, Jacobian,
weights) shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["MeasType", "Measurement", "MeasurementSet", "DEFAULT_SIGMAS"]


class MeasType(Enum):
    """Supported measurement types.

    Bus types reference a bus index; branch types reference a branch index
    (flows at the *from* or *to* end).  ``PMU_VA`` is the synchrophasor
    voltage-angle measurement that distinguishes PMU-equipped buses.
    """

    V_MAG = "vm"  # bus voltage magnitude
    PMU_VA = "va"  # bus voltage angle (synchronized phasor)
    P_INJ = "pinj"  # bus real power injection
    Q_INJ = "qinj"  # bus reactive power injection
    P_FLOW_F = "pf"  # branch real flow, from end
    Q_FLOW_F = "qf"  # branch reactive flow, from end
    P_FLOW_T = "pt"  # branch real flow, to end
    Q_FLOW_T = "qt"  # branch reactive flow, to end
    I_MAG_F = "ifm"  # branch current magnitude, from end

    @property
    def is_bus(self) -> bool:
        """True for bus-referenced types."""
        return self in (MeasType.V_MAG, MeasType.PMU_VA, MeasType.P_INJ, MeasType.Q_INJ)

    @property
    def is_branch(self) -> bool:
        """True for branch-referenced types."""
        return not self.is_bus


#: Default measurement standard deviations (p.u. / radians), typical SCADA
#: and PMU accuracies used throughout the literature.
DEFAULT_SIGMAS: dict[MeasType, float] = {
    MeasType.V_MAG: 0.004,
    MeasType.PMU_VA: 0.002,
    MeasType.P_INJ: 0.010,
    MeasType.Q_INJ: 0.010,
    MeasType.P_FLOW_F: 0.008,
    MeasType.Q_FLOW_F: 0.008,
    MeasType.P_FLOW_T: 0.008,
    MeasType.Q_FLOW_T: 0.008,
    MeasType.I_MAG_F: 0.008,
}

#: Canonical type ordering inside a MeasurementSet.
_TYPE_ORDER: tuple[MeasType, ...] = (
    MeasType.V_MAG,
    MeasType.PMU_VA,
    MeasType.P_INJ,
    MeasType.Q_INJ,
    MeasType.P_FLOW_F,
    MeasType.Q_FLOW_F,
    MeasType.P_FLOW_T,
    MeasType.Q_FLOW_T,
    MeasType.I_MAG_F,
)


@dataclass(frozen=True)
class Measurement:
    """A single measurement record.

    ``element`` is a bus index for bus types and a branch index for branch
    types.  ``value`` is the (noisy) measured value in per-unit (radians for
    ``PMU_VA``); ``sigma`` its standard deviation.
    """

    mtype: MeasType
    element: int
    value: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.element < 0:
            raise ValueError("element index must be non-negative")


class MeasurementSet:
    """A batch of measurements in canonical order, stored struct-of-arrays.

    Canonical order: types in ``_TYPE_ORDER``; within a type, ascending
    element index with duplicates preserved in insertion order.  All exported
    arrays (``z``, ``sigma``, Jacobian rows, residuals) use this order.
    """

    def __init__(self, measurements: list[Measurement]):
        by_type: dict[MeasType, list[Measurement]] = {t: [] for t in _TYPE_ORDER}
        for m in measurements:
            by_type[m.mtype].append(m)
        for t in _TYPE_ORDER:
            by_type[t].sort(key=lambda m: m.element)

        ordered: list[Measurement] = []
        self._idx: dict[MeasType, np.ndarray] = {}
        self._rows: dict[MeasType, np.ndarray] = {}
        row = 0
        for t in _TYPE_ORDER:
            ms = by_type[t]
            ordered.extend(ms)
            self._idx[t] = np.array([m.element for m in ms], dtype=np.int64)
            self._rows[t] = np.arange(row, row + len(ms), dtype=np.int64)
            row += len(ms)
        self.z = np.array([m.value for m in ordered], dtype=float)
        self.sigma = np.array([m.sigma for m in ordered], dtype=float)
        self._records: list[Measurement] | None = ordered
        self._columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_columns(
        cls,
        type_pos: np.ndarray,
        elements: np.ndarray,
        values: np.ndarray,
        sigmas: np.ndarray,
    ) -> tuple["MeasurementSet", np.ndarray]:
        """The set of the measurements ``(_TYPE_ORDER[type_pos[i]],
        elements[i], values[i], sigmas[i])``, built from the four columns
        without a :class:`Measurement` record per row (records are made on
        first per-row access).  Returns ``(mset, rows)`` with ``rows[i]``
        the canonical row of input ``i``."""
        type_pos = np.asarray(type_pos, dtype=np.int64)
        elements = np.asarray(elements, dtype=np.int64)
        if np.any(np.asarray(sigmas) <= 0):
            raise ValueError("sigma must be positive")
        if np.any(elements < 0):
            raise ValueError("element index must be non-negative")
        # stable: equal (type, element) rows keep their input order
        order = np.lexsort((elements, type_pos))
        bounds = np.searchsorted(type_pos[order], np.arange(len(_TYPE_ORDER) + 1))
        self = cls.__new__(cls)
        sorted_elements = elements[order]
        self._idx = {
            t: sorted_elements[bounds[i]:bounds[i + 1]]
            for i, t in enumerate(_TYPE_ORDER)
        }
        self._rows = {
            t: np.arange(bounds[i], bounds[i + 1], dtype=np.int64)
            for i, t in enumerate(_TYPE_ORDER)
        }
        self.z = np.asarray(values, dtype=float)[order]
        self.sigma = np.asarray(sigmas, dtype=float)[order]
        self._records = None
        self._columns = None
        rows = np.empty(len(order), dtype=np.int64)
        rows[order] = np.arange(len(order))
        return self, rows

    @property
    def _ordered(self) -> list[Measurement]:
        """One record per row, canonical order."""
        if self._records is None:
            tpos, elem, _ = self.column_arrays()
            self._records = [
                Measurement(_TYPE_ORDER[t], e, v, s)
                for t, e, v, s in zip(
                    tpos.tolist(), elem.tolist(), self.z.tolist(), self.sigma.tolist()
                )
            ]
        return self._records

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.z)

    def __iter__(self):
        return iter(self._ordered)

    def __getitem__(self, i: int) -> Measurement:
        return self._ordered[i]

    # -- typed access -------------------------------------------------------
    def elements(self, mtype: MeasType) -> np.ndarray:
        """Element indices of all measurements of ``mtype`` (canonical order)."""
        return self._idx[mtype]

    def rows(self, mtype: MeasType) -> np.ndarray:
        """Row positions of all measurements of ``mtype`` in the stacked vector."""
        return self._rows[mtype]

    def count(self, mtype: MeasType) -> int:
        """Number of measurements of a given type."""
        return len(self._idx[mtype])

    def column_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full-length per-row columns ``(type_pos, element, is_bus)``.

        ``type_pos[i]`` is the row's type position in ``_TYPE_ORDER``,
        ``element[i]`` its bus/branch index and ``is_bus[i]`` the type's
        referent kind — the struct-of-arrays view consumers use to process
        row subsets vectorised instead of via per-row ``Measurement``
        lookups.  Built once per set and cached (the set is immutable).
        """
        if self._columns is None:
            n = len(self)
            tpos = np.empty(n, dtype=np.int64)
            elem = np.empty(n, dtype=np.int64)
            isb = np.zeros(n, dtype=bool)
            for i, t in enumerate(_TYPE_ORDER):
                rows = self._rows[t]
                tpos[rows] = i
                elem[rows] = self._idx[t]
                if t.is_bus:
                    isb[rows] = True
            self._columns = (tpos, elem, isb)
        return self._columns

    @property
    def weights(self) -> np.ndarray:
        """WLS weights ``1/sigma^2``."""
        return 1.0 / (self.sigma * self.sigma)

    def same_structure(self, other: "MeasurementSet") -> bool:
        """True when ``other`` holds the same (type, element, sigma) rows,
        i.e. differs from this set in measured values at most — the
        condition for serving it as a values-only frame over structures
        built for this one."""
        return (
            len(self) == len(other)
            and all(
                np.array_equal(self._idx[t], other._idx[t]) for t in _TYPE_ORDER
            )
            and np.array_equal(self.sigma, other.sigma)
        )

    def with_values(self, z: np.ndarray) -> "MeasurementSet":
        """A copy of this set with replaced measured values (same order)."""
        if len(z) != len(self):
            raise ValueError("value vector length mismatch")
        ms = [
            Measurement(m.mtype, m.element, float(v), m.sigma)
            for m, v in zip(self._ordered, z)
        ]
        return MeasurementSet(ms)

    def subset(self, keep: np.ndarray) -> "MeasurementSet":
        """A new set containing the rows selected by boolean/typed index ``keep``."""
        keep = np.asarray(keep)
        if keep.dtype == bool:
            keep = np.flatnonzero(keep)
        return MeasurementSet([self._ordered[int(i)] for i in keep])

    def merged_with(self, other: "MeasurementSet") -> "MeasurementSet":
        """Union of two measurement sets (re-canonicalised)."""
        return MeasurementSet(list(self._ordered) + list(other._ordered))

    def merged_with_positions(
        self, other: "MeasurementSet"
    ) -> tuple["MeasurementSet", np.ndarray, np.ndarray]:
        """Like :meth:`merged_with`, also returning row positions.

        Returns ``(merged, rows_self, rows_other)`` where ``rows_self[i]``
        is the row of ``self[i]`` in the merged canonical order (same for
        ``rows_other``).  Lets callers that re-merge structurally identical
        sets every cycle (e.g. DSE pseudo measurements) compute the merged
        value vector by scatter instead of rebuilding the set.
        """
        merged = self.merged_with(other)
        pos = {id(m): i for i, m in enumerate(merged._ordered)}
        rows_self = np.array([pos[id(m)] for m in self._ordered], dtype=np.int64)
        rows_other = np.array([pos[id(m)] for m in other._ordered], dtype=np.int64)
        return merged, rows_self, rows_other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{t.value}={self.count(t)}" for t in _TYPE_ORDER if self.count(t)
        )
        return f"MeasurementSet({len(self)}: {parts})"
