import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from panolayout.errors import GeometryError, InputError
from panolayout.panorama import (
    ImageGrid,
    col_to_lon,
    cyclic_column_distance,
    lat_to_row,
    lon_to_col,
    row_to_lat,
    wrap_col,
    wrap_lon,
)

GRID = ImageGrid(1024)
BELOW_PI = math.nextafter(math.pi, 0)


class TestImageGrid:
    def test_default_dims(self):
        g = ImageGrid()
        assert (g.width, g.height) == (1024, 512)

    def test_rejects_non_two_to_one(self):
        # an odd width has no 2:1 grid of whole rows
        for width in (1023, 5):
            with pytest.raises(InputError, match="even integer >= 4"):
                ImageGrid(width)

    def test_rejects_nonpositive(self):
        for width in (0, -4, 2):  # 2 is even, but below 4
            with pytest.raises(InputError, match="even integer >= 4"):
                ImageGrid(width)

    @pytest.mark.parametrize("size", [(1024.0,), ("1024",), (True,)])
    def test_rejects_non_integer_sizes(self, size):
        with pytest.raises(InputError, match="integer"):
            ImageGrid(*size)

    def test_accepts_numpy_integers(self):
        assert ImageGrid(np.int64(64)) == ImageGrid(64)
        assert ImageGrid(np.int32(64)).height == 32

    def test_diagonal(self):
        assert GRID.diagonal == pytest.approx(math.sqrt(1024**2 + 512**2), abs=1e-12)


class TestForwardMaps:
    def test_col_to_lon_leftmost(self):
        assert col_to_lon(0, GRID) == pytest.approx(-math.pi + math.pi / 1024, abs=1e-12)

    def test_col_to_lon_center(self):
        assert col_to_lon(512, GRID) == pytest.approx(math.pi / 1024, abs=1e-12)

    def test_col_to_lon_rightmost(self):
        assert col_to_lon(1023, GRID) == pytest.approx(math.pi - math.pi / 1024, abs=1e-12)

    def test_row_to_lat_top(self):
        assert row_to_lat(0, GRID) == pytest.approx(math.pi / 2 - math.pi / 1024, abs=1e-12)

    def test_row_to_lat_below_horizon(self):
        assert row_to_lat(256, GRID) == pytest.approx(-math.pi / 1024, abs=1e-12)

    def test_row_to_lat_bottom(self):
        assert row_to_lat(511, GRID) == pytest.approx(-math.pi / 2 + math.pi / 1024, abs=1e-12)

    def test_monotone(self):
        lons = col_to_lon(np.arange(1024), GRID)
        lats = row_to_lat(np.arange(512), GRID)
        assert np.all(np.diff(lons) > 0)
        assert np.all(np.diff(lats) < 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            col_to_lon(1024, GRID)
        with pytest.raises(InputError):
            col_to_lon(-1, GRID)
        with pytest.raises(InputError):
            row_to_lat(512, GRID)


class TestInverseMaps:
    def test_lon_zero_center(self):
        assert lon_to_col(0.0, GRID) == pytest.approx(511.5, abs=1e-12)

    def test_lat_zero_horizon(self):
        assert lat_to_row(0.0, GRID) == pytest.approx(255.5, abs=1e-12)

    def test_lon_minus_pi_wraps_to_boundary(self):
        assert lon_to_col(-math.pi, GRID) == pytest.approx(-0.5, abs=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(GeometryError):
            lat_to_row(math.pi / 2, GRID)
        with pytest.raises(GeometryError):
            lat_to_row(-math.pi / 2, GRID)

    def test_integer_round_trip_all_columns(self):
        u = np.arange(1024)
        assert np.max(np.abs(lon_to_col(col_to_lon(u, GRID), GRID) - u)) < 1e-9

    def test_integer_round_trip_all_rows(self):
        v = np.arange(512)
        assert np.max(np.abs(lat_to_row(row_to_lat(v, GRID), GRID) - v)) < 1e-9

    @given(st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True))
    @example(math.nextafter(math.pi, 0))
    @example(-math.pi)
    def test_real_lon_round_trip(self, lon):
        # the seam column sits in [-0.5, 0); fold it back before the forward map
        col = lon_to_col(lon, GRID) % GRID.width
        assert wrap_lon(col_to_lon(col, GRID)) == pytest.approx(lon, abs=1e-9)

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
        st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
    )
    @example(BELOW_PI, BELOW_PI)
    @example(-math.pi, BELOW_PI)
    def test_lon_to_col_range_and_monotone(self, a, b):
        lo, hi = sorted((a, b))
        col_lo, col_hi = lon_to_col(lo, GRID), lon_to_col(hi, GRID)
        for col in (col_lo, col_hi):
            assert -0.5 <= col < GRID.width - 0.5
        assert col_lo <= col_hi

    def test_lon_to_col_at_both_ends_of_the_range(self):
        # every longitude within 200 ulps of either end, in increasing order
        bottom, top = [-math.pi], [BELOW_PI]
        for _ in range(200):
            bottom.append(math.nextafter(bottom[-1], math.inf))
            top.insert(0, math.nextafter(top[0], 0))
        cols = lon_to_col(np.array(bottom + top), GRID)
        assert cols[0] == -0.5
        assert cols[-1] < GRID.width - 0.5
        assert np.all(np.diff(cols) >= 0)

    @given(st.floats(min_value=0.0, max_value=1024.0, exclude_max=True))
    def test_real_col_round_trip(self, col):
        back = lon_to_col(col_to_lon(col, GRID), GRID)
        assert cyclic_column_distance(back, col, GRID.width) < 1e-9

    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_real_lat_round_trip(self, lat):
        assert row_to_lat(lat_to_row(lat, GRID), GRID) == pytest.approx(lat, abs=1e-9)


class TestWrap:
    def test_wrap_lon_canonical_range(self):
        for lon in (-math.pi, 0.0, 3.0, math.pi, 7.5, -9.0, BELOW_PI):
            w = wrap_lon(lon)
            assert -math.pi <= w < math.pi

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.nextafter(-math.pi, -math.inf))
    @example(BELOW_PI)
    @example(math.pi)
    def test_wrap_lon_result_in_canonical_range(self, lon):
        assert -math.pi <= wrap_lon(lon) < math.pi

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.nextafter(-math.pi, -math.inf))
    @example(BELOW_PI)
    def test_wrap_lon_idempotent(self, lon):
        once = wrap_lon(lon)
        assert wrap_lon(once) == once

    @given(st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True))
    @example(BELOW_PI)
    @example(-math.pi)
    def test_wrap_lon_identity_on_canonical_range(self, lon):
        assert wrap_lon(lon) == lon

    def test_wrap_lon_keeps_nan(self):
        assert math.isnan(wrap_lon(math.nan))

    def test_wrap_lon_identity_on_array(self):
        lons = np.array([-math.pi, -1.0, 0.0, 2.5, BELOW_PI])
        assert np.array_equal(wrap_lon(lons), lons)

    def test_wrap_lon_period(self):
        assert wrap_lon(1.0 + 2 * math.pi) == pytest.approx(1.0, abs=1e-12)
        assert wrap_lon(1.0 - 2 * math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_period_consistency_through_inverse(self):
        # shifting a longitude by a full turn maps back to the same column
        for u in (0, 17, 511, 1023):
            lon = col_to_lon(u, GRID)
            assert lon_to_col(wrap_lon(lon + 2 * math.pi), GRID) == pytest.approx(
                lon_to_col(lon, GRID), abs=1e-9
            )

    def test_wrap_col_seam_value(self):
        # plain % rounds this column up to the width itself
        assert -(2.0**-44) % 1024 == 1024.0
        assert wrap_col(-(2.0**-44), 1024) == 0.0
        cols = np.array([-(2.0**-44), -0.25, 1024.5])
        assert np.array_equal(wrap_col(cols, 1024), [0.0, 1023.75, 0.5])

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-(2.0**-44))
    @example(-0.0)
    def test_wrap_col_result_in_range(self, col):
        assert 0 <= wrap_col(col, 1024) < 1024

    @given(st.floats(min_value=0.0, max_value=1024.0, exclude_max=True))
    def test_wrap_col_identity_on_range(self, col):
        assert wrap_col(col, 1024) == col


class TestCyclicDistance:
    def test_plain(self):
        assert cyclic_column_distance(10, 14, 1024) == 4

    def test_wraparound(self):
        assert cyclic_column_distance(1020, 2, 1024) == 6

    def test_symmetric(self):
        assert cyclic_column_distance(3, 900, 1024) == cyclic_column_distance(900, 3, 1024)

    @given(
        st.floats(min_value=0, max_value=1023.99),
        st.floats(min_value=0, max_value=1023.99),
    )
    def test_bounded_by_half_width(self, a, b):
        assert 0 <= cyclic_column_distance(a, b, 1024) <= 512
