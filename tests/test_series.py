import numpy as np
import pytest
from hypothesis import given, strategies as st

from tvroad import series as series_module
from tvroad.series import (
    VelocitySeries,
    nearest_interpolate,
    pair_average,
    total_variation,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestVelocitySeries:
    def test_defaults(self):
        s = VelocitySeries(road_id="r", day=1, values=[1.0, 2.0, 3.0])
        assert s.h == 5.0
        assert s.n_slices == 3
        assert s.observed_mask.all()

    def test_non_finite_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            VelocitySeries(road_id="r", day=1, values=[1.0, 2.0, np.nan])

    def test_too_short(self):
        with pytest.raises(ValueError):
            VelocitySeries(road_id="r", day=1, values=[1.0])

    def test_bad_h(self):
        with pytest.raises(ValueError):
            VelocitySeries(road_id="r", day=1, values=[1.0, 2.0], h=0.0)

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            VelocitySeries(road_id="r", day=1, values=[1.0, 2.0], observed_mask=[True])

    def test_negative_values_allowed(self):
        # benchmark signals (noisy sine drafts) go below zero; the
        # nonnegativity contract lives in the CSV ingester instead
        s = VelocitySeries(road_id="r", day=1, values=[-1.0, 2.0])
        assert s.values[0] == -1.0

    def test_arrays_read_only(self):
        s = VelocitySeries(road_id="r", day=1, values=[1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestTotalVariation:
    def test_hand_values(self):
        assert total_variation([1.0, 3.0, 2.0]) == 3.0
        assert total_variation([2.0, 2.0, 2.0]) == 0.0
        assert total_variation([5.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            total_variation([])

    @given(st.lists(finite_floats, min_size=2, max_size=40), finite_floats)
    def test_shift_invariance(self, values, shift):
        assert total_variation(np.asarray(values) + shift) == pytest.approx(
            total_variation(values), rel=1e-9, abs=1e-6
        )

    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_lower_bound_is_range(self, values):
        v = np.asarray(values)
        assert total_variation(v) >= float(v.max() - v.min()) - 1e-9

    @given(
        st.lists(finite_floats, min_size=2, max_size=30),
        st.lists(finite_floats, min_size=2, max_size=30),
    )
    def test_subadditive(self, a, b):
        n = min(len(a), len(b))
        u, v = np.asarray(a[:n]), np.asarray(b[:n])
        assert total_variation(u + v) <= total_variation(u) + total_variation(v) + 1e-6


class TestCoarsening:
    def test_pair_average(self):
        np.testing.assert_array_equal(pair_average([1.0, 3.0, 5.0, 7.0]), [2.0, 6.0])

    def test_pair_average_odd_length(self):
        with pytest.raises(ValueError):
            pair_average([1.0, 2.0, 3.0])

    @given(st.lists(finite_floats, min_size=4, max_size=64).filter(lambda v: len(v) % 4 == 0))
    def test_mean_preserved(self, values):
        twice = pair_average(pair_average(values))
        assert np.mean(twice) == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)


class TestNearestInterpolate:
    def test_fills_with_nearest(self):
        s = nearest_interpolate([(1, 10.0), (4, 20.0)], 4)
        np.testing.assert_array_equal(s.values, [10.0, 10.0, 20.0, 20.0])
        np.testing.assert_array_equal(s.observed_mask, [True, False, False, True])

    def test_tie_resolves_to_earlier(self):
        s = nearest_interpolate([(1, 10.0), (3, 30.0)], 3)
        assert s.values[1] == 10.0

    def test_leading_and_trailing_gaps(self):
        s = nearest_interpolate([(3, 7.0)], 5)
        np.testing.assert_array_equal(s.values, [7.0] * 5)
        assert s.observed_mask.sum() == 1

    def test_duplicate_slice_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            nearest_interpolate([(2, 1.0), (2, 2.0)], 4)

    def test_increasing_records_are_not_sorted(self):
        s = nearest_interpolate([(1, 10.0), (4, 20.0), (6, 5.0)], 6)
        np.testing.assert_array_equal(s.values, [10.0, 10.0, 20.0, 20.0, 20.0, 5.0])
        np.testing.assert_array_equal(s.observed_mask, [True, False, False, True, False, True])

    def test_unordered_records_are_sorted_and_checked(self):
        records = [(1, 10.0), (4, 20.0), (6, 5.0)]
        want = nearest_interpolate(records, 6)
        got = nearest_interpolate(records[::-1], 6)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.observed_mask, want.observed_mask)
        with pytest.raises(ValueError, match="duplicate slice index in records"):
            nearest_interpolate([(4, 1.0), (1, 3.0), (4, 2.0)], 6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            nearest_interpolate([(0, 1.0)], 4)
        with pytest.raises(ValueError):
            nearest_interpolate([(5, 1.0)], 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_interpolate([], 4)

    @given(st.data())
    def test_observed_slices_kept_and_donors_observed(self, data):
        n = data.draw(st.integers(min_value=2, max_value=40))
        count = data.draw(st.integers(min_value=1, max_value=n))
        slices = data.draw(
            st.lists(st.integers(1, n), min_size=count, max_size=count, unique=True)
        )
        values = data.draw(
            st.lists(finite_floats, min_size=len(slices), max_size=len(slices))
        )
        records = list(zip(slices, values))
        s = nearest_interpolate(records, n)
        for slice_no, v in records:
            assert s.values[slice_no - 1] == v
            assert s.observed_mask[slice_no - 1]
        assert s.observed_mask.sum() == len(records)
        assert set(s.values) <= set(float(v) for v in values)


def _brute_nearest(values, observed):
    """Each slice's value from the observed slice at the least distance,
    the earlier one on a tie, by a search over all of them."""
    out = values.copy()
    for r, (row, seen) in enumerate(zip(values, observed)):
        donors = np.flatnonzero(seen)
        for i in range(row.size):
            out[r, i] = row[min(donors, key=lambda j: (abs(j - i), j))]
    return out


@st.composite
def observation_masks(draw):
    """(R, n) masks with at least one observed slice per row: lone observed
    slices, rows whose first or last slices are missing, and gaps of even
    length whose middle ties left against right."""
    n = draw(st.integers(min_value=2, max_value=30))
    rows = draw(st.integers(min_value=1, max_value=6))
    mask = np.zeros((rows, n), dtype=bool)
    for r in range(rows):
        shape = draw(st.sampled_from(["one", "ends-missing", "even-gaps", "random"]))
        if shape == "one":
            mask[r, draw(st.integers(0, n - 1))] = True
        elif shape == "ends-missing":
            lo = draw(st.integers(0, n - 1))
            mask[r, lo:draw(st.integers(lo + 1, n))] = True
        elif shape == "even-gaps":
            step = draw(st.sampled_from([1, 3, 5]))  # gaps of step - 1 slices
            mask[r, draw(st.integers(0, step - 1)) % n::step] = True
        else:
            mask[r] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            mask[r, draw(st.integers(0, n - 1))] = True
    return mask


class TestFillNearest:
    @given(observation_masks(), st.integers(0, 2**32 - 1))
    def test_rows_equal_brute_force(self, observed, seed):
        values = np.random.default_rng(seed).normal(size=observed.shape)
        values[~observed] = np.nan  # never read
        want = _brute_nearest(values, observed)
        got = series_module._fill_nearest(values, observed)
        assert got.tobytes() == want.tobytes()
        for row, seen, filled in zip(values, observed, got):
            records = [(int(i) + 1, float(row[i])) for i in np.flatnonzero(seen)]
            assert nearest_interpolate(records, row.size).values.tobytes() == filled.tobytes()
