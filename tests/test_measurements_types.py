"""Unit tests for measurement types and containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurements import DEFAULT_SIGMAS, Measurement, MeasType, MeasurementSet


def _m(t, el, v=0.0, s=0.01):
    return Measurement(t, el, v, s)


class TestMeasurement:
    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            Measurement(MeasType.V_MAG, 0, 1.0, 0.0)

    def test_requires_nonnegative_element(self):
        with pytest.raises(ValueError):
            Measurement(MeasType.V_MAG, -1, 1.0, 0.01)

    def test_bus_branch_classification(self):
        assert MeasType.V_MAG.is_bus
        assert MeasType.PMU_VA.is_bus
        assert MeasType.P_FLOW_F.is_branch
        assert not MeasType.P_INJ.is_branch

    def test_default_sigmas_cover_all_types(self):
        assert set(DEFAULT_SIGMAS) == set(MeasType)


class TestMeasurementSet:
    def test_canonical_order_types_then_elements(self):
        ms = MeasurementSet(
            [
                _m(MeasType.P_FLOW_F, 3),
                _m(MeasType.V_MAG, 5),
                _m(MeasType.V_MAG, 1),
                _m(MeasType.P_INJ, 0),
            ]
        )
        kinds = [m.mtype for m in ms]
        assert kinds == [
            MeasType.V_MAG,
            MeasType.V_MAG,
            MeasType.P_INJ,
            MeasType.P_FLOW_F,
        ]
        assert ms.elements(MeasType.V_MAG).tolist() == [1, 5]

    def test_rows_match_iteration_order(self):
        ms = MeasurementSet(
            [_m(MeasType.Q_INJ, 2, v=7.0), _m(MeasType.V_MAG, 0, v=1.0)]
        )
        assert ms.z[ms.rows(MeasType.V_MAG)[0]] == 1.0
        assert ms.z[ms.rows(MeasType.Q_INJ)[0]] == 7.0

    def test_duplicates_preserved(self):
        ms = MeasurementSet([_m(MeasType.V_MAG, 2), _m(MeasType.V_MAG, 2)])
        assert len(ms) == 2
        assert ms.count(MeasType.V_MAG) == 2

    def test_weights_are_inverse_variance(self):
        ms = MeasurementSet([_m(MeasType.V_MAG, 0, s=0.1)])
        assert ms.weights[0] == pytest.approx(100.0)

    def test_with_values_roundtrip(self):
        ms = MeasurementSet([_m(MeasType.V_MAG, 0), _m(MeasType.P_INJ, 1)])
        ms2 = ms.with_values(np.array([1.5, -0.5]))
        assert ms2.z.tolist() == [1.5, -0.5]
        assert len(ms2) == 2

    def test_with_values_length_check(self):
        ms = MeasurementSet([_m(MeasType.V_MAG, 0)])
        with pytest.raises(ValueError):
            ms.with_values(np.zeros(3))

    def test_subset_boolean_and_index(self):
        ms = MeasurementSet(
            [_m(MeasType.V_MAG, i, v=float(i)) for i in range(5)]
        )
        sub = ms.subset(np.array([True, False, True, False, False]))
        assert sub.z.tolist() == [0.0, 2.0]
        sub2 = ms.subset(np.array([3, 4]))
        assert sub2.z.tolist() == [3.0, 4.0]

    def test_merged_with(self):
        a = MeasurementSet([_m(MeasType.V_MAG, 0)])
        b = MeasurementSet([_m(MeasType.P_INJ, 1)])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert merged.count(MeasType.P_INJ) == 1

    def test_empty_set(self):
        ms = MeasurementSet([])
        assert len(ms) == 0
        assert ms.z.shape == (0,)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(MeasType)),
                st.integers(min_value=0, max_value=30),
                st.floats(-10, 10, allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_canonical_order_is_idempotent(self, raw):
        """Property: re-canonicalising a canonical set changes nothing."""
        ms = MeasurementSet([_m(t, e, v) for t, e, v in raw])
        ms2 = MeasurementSet(list(ms))
        assert np.array_equal(ms.z, ms2.z)
        assert [m.mtype for m in ms] == [m.mtype for m in ms2]
        assert [m.element for m in ms] == [m.element for m in ms2]


def _same_set(a, b):
    """Column-for-column equality of two sets (order included)."""
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.sigma, b.sigma)
    for t in MeasType:
        assert np.array_equal(a.elements(t), b.elements(t))
        assert np.array_equal(a.rows(t), b.rows(t))
    for ca, cb in zip(a.column_arrays(), b.column_arrays()):
        assert np.array_equal(ca, cb)


#: rows over few elements, so (type, element) duplicates are common; the
#: distinct values and sigmas expose any reordering of duplicates
_rows = st.lists(
    st.tuples(
        st.sampled_from(list(MeasType)),
        st.integers(min_value=0, max_value=3),
        st.floats(-10, 10, allow_nan=False),
        st.floats(1e-3, 1.0),
    ),
    max_size=30,
)


class TestColumnBuiltSets:
    """``with_values`` / ``subset`` / ``merged_with`` /
    ``merged_with_positions`` build from columns; each must reproduce the
    set built from one :class:`Measurement` record per row."""

    @staticmethod
    def _set(raw):
        return MeasurementSet([Measurement(t, e, v, s) for t, e, v, s in raw])

    @settings(max_examples=60, deadline=None)
    @given(_rows, st.data())
    def test_with_values_matches_records(self, raw, data):
        ms = self._set(raw)
        z = np.array(data.draw(st.lists(
            st.floats(-5, 5, allow_nan=False),
            min_size=len(ms), max_size=len(ms),
        )), dtype=float)
        ref = MeasurementSet([
            Measurement(m.mtype, m.element, float(v), m.sigma)
            for m, v in zip(ms, z)
        ])
        out = ms.with_values(z)
        assert out._records is None
        _same_set(out, ref)
        assert list(out) == list(ref)

    @settings(max_examples=60, deadline=None)
    @given(_rows, st.data())
    def test_subset_matches_records(self, raw, data):
        ms = self._set(raw)
        n = len(ms)
        if data.draw(st.booleans()):
            keep = np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
            picked = np.flatnonzero(keep)
        else:
            # unordered, repeated row indices
            keep = np.array(data.draw(st.lists(
                st.integers(0, max(n - 1, 0)), max_size=2 * n if n else 0,
            )), dtype=np.int64)
            picked = keep
        ref = MeasurementSet([ms[int(i)] for i in picked])
        _same_set(ms.subset(keep), ref)

    @settings(max_examples=60, deadline=None)
    @given(_rows, _rows)
    def test_merges_match_records(self, raw_a, raw_b):
        a, b = self._set(raw_a), self._set(raw_b)
        ref = MeasurementSet(list(a) + list(b))
        pos = {id(m): i for i, m in enumerate(ref)}
        ref_a = np.array([pos[id(m)] for m in a], dtype=np.int64)
        ref_b = np.array([pos[id(m)] for m in b], dtype=np.int64)
        _same_set(a.merged_with(b), ref)
        merged, rows_a, rows_b = a.merged_with_positions(b)
        _same_set(merged, ref)
        assert np.array_equal(rows_a, ref_a)
        assert np.array_equal(rows_b, ref_b)

    def test_with_values_shares_structure_and_copies_z(self):
        ms = MeasurementSet([_m(MeasType.V_MAG, 0), _m(MeasType.P_INJ, 1)])
        z = np.array([1.5, -0.5])
        out = ms.with_values(z)
        assert out.sigma is ms.sigma and out._idx is ms._idx
        z[0] = 9.0
        assert out.z.tolist() == [1.5, -0.5]
