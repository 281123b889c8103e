import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from panolayout.detect import BoundarySignal, postprocess
from panolayout.errors import (
    AssemblyError,
    EstimationError,
    GeometryError,
    InputError,
)
from panolayout.geometry import (
    CameraModel,
    CornerKind,
    LayoutCorner,
    VisibleLayout,
    assemble_layout,
    estimate_room_height,
    floor_distance,
    floor_lat_of_distance,
    polygon_is_simple,
    polygon_signed_area,
    wall_distance_profile,
)
from panolayout.geometry import _median_height
from panolayout.panorama import ImageGrid, lon_to_col, wrap_col
from panolayout.synth import SyntheticRoom, perturb_signal, render_signal

CAM = CameraModel(1.6)


class TestCameraModel:
    @pytest.mark.parametrize("height", [0.0, -1.0, math.inf, math.nan, "tall", None, True])
    def test_bad_height_rejected_by_name(self, height):
        with pytest.raises(InputError, match="camera_height"):
            CameraModel(height)

    def test_numbers_accepted(self):
        assert CameraModel(2).camera_height == 2
        assert CameraModel(np.float64(1.5)).camera_height == 1.5


def floor_point(lon, floor_lat, cam=CAM):
    """Floor point of a visible corner at ``lon`` in a layout whose two other
    corners lie a third of a turn away on either side."""
    grid = ImageGrid()
    corners = [
        LayoutCorner(wrap_col(lon_to_col(lon + k * 2 * math.pi / 3, grid), grid.width), 0.5, lat)
        for k, lat in ((0, floor_lat), (1, -0.5), (2, -0.5))
    ]
    layout = VisibleLayout(
        sorted(corners, key=lambda c: c.column), cam, 4 * cam.camera_height, grid
    )
    return layout.floor_points()[[c.floor_lat for c in layout.corners].index(floor_lat)]


class TestFloorPoint:
    def test_45_degree_depression(self):
        x, y = floor_point(0.0, -math.pi / 4)
        assert x == pytest.approx(1.6, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_off_axis(self):
        x, y = floor_point(math.pi / 2, -math.atan(1.6 / 2.0))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)

    def test_nadir_limit(self):
        x, y = floor_point(0.0, -math.pi / 2 + 1e-9)
        assert math.hypot(x, y) == pytest.approx(1.6e-9, rel=1e-6)

    def test_rejects_floor_above_horizon(self):
        for lat in (0.01, 0.0):
            with pytest.raises(GeometryError):
                floor_point(0.0, lat)
            with pytest.raises(GeometryError, match="column 0"):
                wall_distance_profile([lat], CAM)

    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_scale_covariance(self, s):
        lon, lat = 0.7, -0.6
        x1, y1 = floor_point(lon, lat, CameraModel(1.6))
        x2, y2 = floor_point(lon, lat, CameraModel(1.6 * s))
        assert x2 == pytest.approx(x1 * s, rel=1e-12)
        assert y2 == pytest.approx(y1 * s, rel=1e-12)

    def test_distance_lat_round_trip(self):
        for lat in np.linspace(-math.pi / 2 + 0.01, -0.01, 200):
            d = floor_distance(lat, 1.6)
            assert floor_lat_of_distance(d, 1.6) == pytest.approx(lat, abs=1e-12)


# Latitudes over the open hemispheres, short of the horizon by enough that
# every wall distance below is finite
FLOOR_LATS = st.floats(-math.pi / 2, -1e-300, exclude_min=True)
CEIL_LATS = st.floats(1e-300, math.pi / 2, exclude_max=True)
HEIGHTS = st.floats(0.1, 10.0)


class TestProjection:
    """``floor_distance`` and ``floor_lat_of_distance`` are the one camera
    projection; a ceiling is the floor seen from ``room_height - camera_height``
    with its latitudes negated."""

    @given(st.lists(CEIL_LATS, min_size=1, max_size=16), HEIGHTS, HEIGHTS)
    def test_ceiling_profile_is_the_mirrored_floor(self, lats, h, above):
        y_c, room_height = np.array(lats), h + above
        got = wall_distance_profile(y_c, CameraModel(h), room_height)
        assert got.tolist() == ((room_height - h) / np.tan(y_c)).tolist()

    @given(st.lists(FLOOR_LATS, min_size=1, max_size=16), HEIGHTS)
    def test_floor_round_trip(self, lats, h):
        y_f = np.array(lats)
        d = wall_distance_profile(y_f, CameraModel(h))
        assert d.tolist() == floor_distance(y_f, h).tolist()
        assert floor_lat_of_distance(d, h) == pytest.approx(y_f, abs=1e-12)

    @given(st.lists(CEIL_LATS, min_size=1, max_size=16), HEIGHTS, HEIGHTS)
    def test_ceiling_round_trip(self, lats, h, above):
        y_c, room_height = np.array(lats), h + above
        d = wall_distance_profile(y_c, CameraModel(h), room_height)
        assert -floor_lat_of_distance(d, room_height - h) == pytest.approx(y_c, abs=1e-12)

    @given(st.data())
    def test_floor_points_lie_at_floor_distance_along_each_ray(self, data):
        n, h = data.draw(st.integers(3, 8)), data.draw(HEIGHTS)
        # columns a little past each n-th of the width keep every gap below half a turn
        offsets = data.draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))
        lats = data.draw(st.lists(FLOOR_LATS, min_size=n, max_size=n))
        corners = [
            LayoutCorner((k + f) * 1024 / n, 0.5, lat)
            for k, (f, lat) in enumerate(zip(offsets, lats))
        ]
        layout = VisibleLayout(corners, CameraModel(h), h + 1.0)
        rays = np.stack([np.cos(layout.lons()), np.sin(layout.lons())], axis=1)
        want = floor_distance(lats, h)[:, None] * rays
        assert layout.floor_points().tolist() == want.tolist()

    @given(st.lists(CEIL_LATS, min_size=1, max_size=16))
    def test_ceiling_profile_without_room_height_rejected(self, lats):
        with pytest.raises(GeometryError, match="floor latitude on wrong side of horizon at column 0"):
            wall_distance_profile(lats, CAM)


class TestWallDistanceProfile:
    def test_constant_floor(self):
        lats = np.full(64, -math.pi / 4)
        assert wall_distance_profile(lats, CAM) == pytest.approx(np.full(64, 1.6), abs=1e-12)

    def test_step_profile(self):
        d_true = np.where(np.arange(64) < 32, 1.6, 3.2)
        lats = -np.arctan(1.6 / d_true)
        d = wall_distance_profile(lats, CAM)
        assert d == pytest.approx(d_true, abs=1e-12)

    def test_ceiling_profile(self):
        lats = np.full(64, math.atan(1.4 / 2.0))
        d = wall_distance_profile(lats, CAM, room_height=3.0)
        assert d == pytest.approx(np.full(64, 2.0), abs=1e-12)

    def test_wrong_side_names_column(self):
        lats = np.full(64, -math.pi / 4)
        lats[17] = 0.3
        with pytest.raises(GeometryError, match="17"):
            wall_distance_profile(lats, CAM)

    @pytest.mark.parametrize("room_height", [None, 3.0])
    def test_latitude_at_or_beyond_the_pole_names_column(self, room_height):
        # a floor latitude in (-pi/2, 0), a ceiling one in (0, pi/2): at or past
        # the pole a wall would lie at a distance of about 0 or below it
        sign = 1.0 if room_height else -1.0
        for lat in (math.pi / 2, 2.0, math.inf):
            lats = np.full(64, 0.5 * sign)
            lats[17] = sign * lat
            with pytest.raises(GeometryError, match="at or beyond the pole at column 17"):
                wall_distance_profile(lats, CAM, room_height)
        lats = np.full(64, 0.5 * sign)
        lats[17] = sign * np.nextafter(math.pi / 2, 0.0)
        d = wall_distance_profile(lats, CAM, room_height)
        assert 0 < d[17] < 1e-15 and np.all(d > 0)

    @pytest.mark.parametrize("lat, room_height", [(-1e-320, None), (1e-320, 3.0)])
    def test_boundary_at_the_horizon_names_column(self, lat, room_height):
        # the wall distance overflows to inf, quietly; the profile names the column
        assert floor_distance(-abs(lat), 1.6) == math.inf
        lats = np.full(64, math.copysign(0.5, lat))
        lats[17] = lat
        with pytest.raises(GeometryError, match="column 17 is too close to the horizon"):
            wall_distance_profile(lats, CAM, room_height)


class TestEstimateRoomHeight:
    def test_symmetric_room(self):
        w = 64
        sig = BoundarySignal(np.zeros(w), np.full(w, math.pi / 4), np.full(w, -math.pi / 4))
        assert estimate_room_height(sig, CAM) == pytest.approx(3.2, abs=1e-12)

    def test_pentagon_oracle(self):
        ang = np.linspace(0, 2 * math.pi, 5, endpoint=False) + 0.3
        poly = np.stack([3.0 * np.cos(ang), 2.5 * np.sin(ang)], axis=1)
        room = SyntheticRoom(poly, 2.8, np.array([0.2, -0.1]), 1.6)
        sig, _ = render_signal(room)
        assert estimate_room_height(sig, CAM) == pytest.approx(2.8, abs=1e-6)

    def test_noisy_median_within_one_percent(self):
        ang = np.linspace(0, 2 * math.pi, 5, endpoint=False) + 0.3
        poly = np.stack([3.0 * np.cos(ang), 2.5 * np.sin(ang)], axis=1)
        room = SyntheticRoom(poly, 2.8, np.array([0.2, -0.1]), 1.6)
        sig, _ = render_signal(room)
        noisy = perturb_signal(sig, 0.002, seed=3)
        assert estimate_room_height(noisy, CAM) == pytest.approx(2.8, rel=0.01)

    @pytest.mark.parametrize("parity", [0, 1])
    @given(data=st.data())
    def test_median_height_is_np_median(self, parity, data):
        # drawn from a few values as well, so the middle heights often tie
        n = 2 * data.draw(st.integers(0 if parity else 1, 20)) + parity
        floor = st.sampled_from([-0.3, -0.7]) | st.floats(-1.5, -1e-3)
        ceil = st.sampled_from([0.4, 0.9]) | st.floats(1e-3, 1.5)
        floor_lats = data.draw(st.lists(floor, min_size=n, max_size=n))
        ceil_lats = data.draw(st.lists(ceil, min_size=n, max_size=n))
        h = data.draw(st.sampled_from([1.6]) | st.floats(0.1, 3.0))
        z = floor_distance(floor_lats, h) * np.tan(ceil_lats)
        want = h + float(np.median(z))
        assert _median_height(floor_lats, ceil_lats, h).hex() == want.hex()

    def test_too_few_columns(self):
        sig = BoundarySignal(np.zeros(4), np.full(4, 0.5), np.full(4, -0.5))
        with pytest.raises(EstimationError):
            estimate_room_height(sig, CAM)


class TestLayoutCorner:
    @pytest.mark.parametrize(
        "ceil_lat, floor_lat",
        [(0.5, -1.6), (0.5, -math.pi / 2), (0.5, 0.0), (0.5, math.nan),
         (1.6, -0.5), (math.pi / 2, -0.5), (0.0, -0.5), (math.nan, -0.5)],
    )
    def test_latitudes_outside_open_hemispheres_rejected(self, ceil_lat, floor_lat):
        with pytest.raises(GeometryError, match="floor_lat < 0 < ceil_lat"):
            LayoutCorner(10.0, ceil_lat, floor_lat)

    def test_latitudes_next_to_the_poles_accepted(self):
        below, above = math.nextafter(-math.pi / 2, 0), math.nextafter(math.pi / 2, 0)
        c = LayoutCorner(10.0, above, below)
        assert (c.ceil_lat, c.floor_lat) == (above, below)


def _corner(column, distance, kind=CornerKind.VISIBLE):
    """Corner whose floor point lies ``distance`` meters from the camera."""
    return LayoutCorner(column, 0.5, -math.atan(CAM.camera_height / distance), kind)


class TestVisibleLayout:
    def _square_layout(self):
        half = 1.6
        room = SyntheticRoom(
            np.array([[half, -half], [half, half], [-half, half], [-half, -half]]),
            3.2,
            np.zeros(2),
            1.6,
        )
        sig, truth = render_signal(room)
        return truth

    def test_square_floor_area(self):
        truth = self._square_layout()
        assert truth.floor_area() == pytest.approx(10.24, abs=1e-9)

    def test_corners_sorted(self):
        truth = self._square_layout()
        cols = [c.column for c in truth.corners]
        assert cols == sorted(cols)

    def test_bow_tie_rejected(self):
        # all corners bunched in one angular wedge with alternating radii: the
        # closing edge sweeps back across the wedge and crosses another wall
        grid = ImageGrid(64)
        lons = [0.1, 0.2, 0.3, 0.4]
        radii = [2.0, 0.3, 5.0, 0.4]
        corners = [
            LayoutCorner(lon_to_col(lon, grid) % 64, 0.5, -math.atan(1.6 / r))
            for lon, r in zip(lons, radii)
        ]
        with pytest.raises(AssemblyError):
            VisibleLayout(corners, CAM, 3.2, grid)

    def test_pair_must_be_adjacent(self):
        grid = ImageGrid(64)
        corners = [
            LayoutCorner(5, 0.5, -0.5, CornerKind.OCCLUSION_NEAR),
            LayoutCorner(20, 0.5, -0.5),
            LayoutCorner(40, 0.5, -0.6, CornerKind.OCCLUSION_FAR),
        ]
        with pytest.raises(AssemblyError):
            VisibleLayout(corners, CAM, 3.2, grid)

    # the near corner's floor latitude: farther than its partner at -0.9,
    # or at the same distance
    @pytest.mark.parametrize("near_lat", [-0.4, -0.9], ids=["farther", "equal"])
    def test_near_must_be_closer(self, near_lat):
        grid = ImageGrid(64)
        corners = [
            LayoutCorner(5.0, 0.5, near_lat, CornerKind.OCCLUSION_NEAR),
            LayoutCorner(5.0, 0.5, -0.9, CornerKind.OCCLUSION_FAR),
            LayoutCorner(25, 0.5, -0.5),
            LayoutCorner(45, 0.5, -0.5),
        ]
        with pytest.raises(AssemblyError, match="at column 5.0: near point not closer than far"):
            VisibleLayout(corners, CAM, 3.2, grid)

    def test_near_checked_against_its_own_partner(self):
        # a far-first pair followed by a pair whose far corner (1.5 m) is
        # nearer than the first pair's near corner (2 m)
        corners = [
            _corner(10, 4.0, CornerKind.OCCLUSION_FAR),
            _corner(10, 2.0, CornerKind.OCCLUSION_NEAR),
            _corner(20, 1.5, CornerKind.OCCLUSION_FAR),
            _corner(20, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(40, 2.0),
            _corner(52, 3.0),
        ]
        layout = VisibleLayout(corners, CAM, 3.2, ImageGrid(64))
        assert layout.occlusion_pairs() == [(0, 1), (2, 3)]
        assert layout.wall_edges() == [(1, 2), (3, 4), (4, 5), (5, 0)]

    def test_floor_points_next_to_the_camera_accepted(self):
        # the first and third floor points lie about 1e-16 m from the camera,
        # within 1e-8 of each other and of the origin, at distinct angles
        pole = -1.5707963267948963
        cols, lats = (0.0, 0.25, 0.75, 512.5), (pole, -0.0625, pole, -1.0)
        layout = VisibleLayout([LayoutCorner(c, 0.5, f) for c, f in zip(cols, lats)], CAM)
        assert layout.floor_area() > 0

    def test_two_pairs_in_one_column_rejected(self):
        corners = [
            _corner(10, 4.0, CornerKind.OCCLUSION_FAR),
            _corner(10, 2.0, CornerKind.OCCLUSION_NEAR),
            _corner(10, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(10, 3.0, CornerKind.OCCLUSION_FAR),
            _corner(30, 2.0),
            _corner(50, 2.0),
        ]
        with pytest.raises(AssemblyError, match="duplicate corner column 10"):
            VisibleLayout(corners, CAM, 3.2, ImageGrid(64))

    def test_shared_column_across_the_seam_rejected(self):
        # 64 - 1e-10 and 0 are one column on a 64-column grid
        corners = [_corner(0.0, 2.0), _corner(20, 2.0), _corner(40, 2.0), _corner(64 - 1e-10, 3.0)]
        with pytest.raises(AssemblyError, match="duplicate corner column"):
            VisibleLayout(corners, CAM, 3.2, ImageGrid(64))

    def test_non_finite_floor_point_rejected(self):
        # tan(5e-324) is 5e-324, so this corner's floor point is (inf, -inf)
        corners = [_corner(100, 2.0), LayoutCorner(300.0, 0.5, -5e-324), _corner(700, 2.0)]
        with pytest.raises(AssemblyError):
            VisibleLayout(corners, CAM)

    def test_floor_point_at_infinity_on_longitude_zero_rejected(self):
        # column 511.5 is longitude 0, where inf times sin(0) would be nan
        corners = [_corner(100, 2.0), LayoutCorner(511.5, 0.5, -5e-324), _corner(700, 2.0)]
        with pytest.raises(AssemblyError, match="vertex at infinity"):
            VisibleLayout(corners, CAM)

    @pytest.mark.parametrize("room_height", [math.nan, math.inf, 1.0, 1.6, 0.0, -3.2])
    def test_room_not_above_camera_rejected(self, room_height):
        corners = [_corner(100, 2.0), _corner(400, 2.0), _corner(700, 2.0)]
        with pytest.raises(GeometryError, match="camera_height < room_height"):
            VisibleLayout(corners, CAM, room_height)

    def test_floor_points_is_a_copy(self):
        truth = self._square_layout()
        truth.floor_points()[:] = 0.0
        assert truth.floor_area() == pytest.approx(10.24, abs=1e-9)

    def test_frozen(self):
        # the floor polygon is computed once, so the corners cannot be swapped
        truth = self._square_layout()
        with pytest.raises(dataclasses.FrozenInstanceError):
            truth.corners = truth.corners[:3]

    def test_last_pair_not_checked_against_first(self):
        # the near corner at the last index belongs to the pair before it,
        # not to the far corner at index 0, which is nearer than it
        corners = [
            _corner(3, 1.2, CornerKind.OCCLUSION_FAR),
            _corner(3, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(25, 2.0),
            _corner(45, 2.0),
            _corner(60, 3.0, CornerKind.OCCLUSION_FAR),
            _corner(60, 2.0, CornerKind.OCCLUSION_NEAR),
        ]
        layout = VisibleLayout(corners, CAM, 3.2, ImageGrid(64))
        assert layout.occlusion_pairs() == [(0, 1), (4, 5)]
        assert layout.wall_edges() == [(1, 2), (2, 3), (3, 4), (5, 0)]


class TestWindsAroundCamera:
    """Every cyclic gap between neighbouring corner columns is below half a
    turn; the layouts that pass are the ones that surround their camera."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([64, 1024]),
        st.lists(st.integers(0, 4 * 1024 - 1), min_size=1, max_size=12, unique=True),
        st.integers(0, 4 * 1024 - 1),
        st.booleans(),
    )
    def test_gap_of_half_a_turn_rejected(self, width, offsets, start, at_edge):
        # columns within one half turn of ``start``: the gap from the last
        # back round to the first is at least half a turn
        half = 2 * width  # quarter columns
        quarters = sorted({o % (half + 1) for o in offsets} | ({0, half} if at_edge else {0}))
        cols = sorted(((start + q) % (4 * width)) / 4 for q in quarters)
        assume(len(cols) >= 3)
        corners = [LayoutCorner(c, 0.5, -0.5) for c in cols]
        with pytest.raises(AssemblyError, match="half a turn"):
            VisibleLayout(corners, CAM, 3.2, ImageGrid(width))

    def test_gap_just_below_half_a_turn_accepted(self):
        corners = [LayoutCorner(c, 0.5, -0.5) for c in (0.0, 511.75, 767.0)]
        assert len(VisibleLayout(corners, CAM).corners) == 3

    def test_gap_across_the_seam_checked(self):
        corners = [LayoutCorner(c, 0.5, -0.5) for c in (700.0, 900.0, 1000.0)]
        with pytest.raises(AssemblyError, match="columns 1000.0 and 700.0"):
            VisibleLayout(corners, CAM)


class TestAssembleLayout:
    def test_oracle_l_room_collinear_occlusion(self, l_room_case):
        _, sig, _ = l_room_case
        layout = postprocess(sig)
        pairs = layout.occlusion_pairs()
        assert pairs
        pts = layout.floor_points()
        for i, j in pairs:
            cross = pts[i][0] * pts[j][1] - pts[i][1] * pts[j][0]
            assert abs(cross) < 1e-9 * max(1.0, np.linalg.norm(pts[i]) * np.linalg.norm(pts[j]))

    def test_snapped_pair_shares_column(self, l_room_case):
        _, sig, _ = l_room_case
        layout = postprocess(sig)
        for i, j in layout.occlusion_pairs():
            assert layout.corners[i].column == pytest.approx(layout.corners[j].column, abs=1e-9)

    def test_sort_keeps_pair_order(self, square_case):
        _, sig, _ = square_case
        # columns on the signal's 1024-column grid
        corners = [
            _corner(960, 2.0, CornerKind.OCCLUSION_FAR),
            _corner(960, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(400, 2.0),
            _corner(48, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(48, 1.2, CornerKind.OCCLUSION_FAR),
            _corner(720, 2.0),
        ]
        layout = assemble_layout(corners, sig, CAM)
        assert layout.grid == sig.grid
        assert layout.corners == [corners[i] for i in (3, 4, 2, 5, 0, 1)]
        assert layout.occlusion_pairs() == [(0, 1), (4, 5)]

    def test_pair_at_two_columns_rejected(self, square_case):
        # pairs are not moved onto a shared column: both corners must lie on
        # one camera ray already
        _, sig, _ = square_case
        corners = [
            _corner(80.0, 1.0, CornerKind.OCCLUSION_NEAR),
            _corner(88.0, 2.0, CornerKind.OCCLUSION_FAR),
            _corner(400, 2.0),
            _corner(720, 2.0),
        ]
        with pytest.raises(AssemblyError, match="no adjacent partner"):
            assemble_layout(corners, sig, CAM)


class TestPolygonHelpers:
    def test_signed_area_ccw_positive(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_signed_area(sq) == pytest.approx(1.0)
        assert polygon_signed_area(sq[::-1]) == pytest.approx(-1.0)

    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=12))
    def test_signed_area_matches_roll_form(self, pts):
        p = np.array(pts)
        x, y = p[:, 0], p[:, 1]
        assert polygon_signed_area(p) == 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def test_simple_polygon(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_is_simple(sq)
        bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        assert not polygon_is_simple(bow)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_vertex_not_simple(self, bad):
        assert not polygon_is_simple(np.array([[0.0, 0.0], [bad, 0.0], [1.0, 1.0]]))



@st.composite
def _star_polygons(draw):
    """3-20 vertices at random angles and radii; sorted angles give a star
    polygon, unsorted ones mostly a self-intersecting one."""
    n = draw(st.integers(3, 20))
    angles = draw(st.lists(st.floats(0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        angles = sorted(angles)
    return np.array([[r * math.cos(a), r * math.sin(a)] for a, r in zip(angles, radii)])


# vertices on a small integer grid: exact collinear overlaps, touching and
# repeated vertices
_grid_polygons = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=8
).map(lambda pts: 4.0 * np.array(pts))


class TestPolygonIsSimpleOracle:
    @given(_star_polygons())
    def test_star_polygons(self, polygon_oracle, pts):
        assert polygon_is_simple(pts) == polygon_oracle(pts)

    @given(_grid_polygons)
    def test_grid_polygons(self, polygon_oracle, pts):
        assert polygon_is_simple(pts) == polygon_oracle(pts)

    @given(_star_polygons(), st.data())
    def test_repeated_vertex_within_tolerance(self, polygon_oracle, pts, data):
        # a copy of vertex i moved by 0-2 times np.allclose's tolerance, or by
        # a hair more or less than it: np.allclose scales the tolerance by
        # the copy, not by vertex i
        i = data.draw(st.integers(0, len(pts) - 1))
        edge = st.sampled_from([s * (1 + e) for s in (-1, 1) for e in (-5e-6, 5e-6)])
        factor = st.floats(-2.0, 2.0) | edge
        t = data.draw(st.tuples(factor, factor))
        near = pts[i] + np.array(t) * (1e-8 + 1e-5 * np.abs(pts[i]))
        pts = np.insert(pts, i + 1, near, axis=0)
        assert polygon_is_simple(pts) == polygon_oracle(pts)

    @given(_grid_polygons, st.data())
    def test_vertex_on_non_adjacent_edge(self, polygon_oracle, pts, data):
        # an exact point of edge (j, j + 1), inserted as a vertex elsewhere
        n = len(pts)
        j = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, 4))
        on_edge = pts[j] + k / 4 * (pts[(j + 1) % n] - pts[j])
        apart = [i for i in range(n) if (i - j) % n > 2]  # no neighbour on the edge
        i = data.draw(st.sampled_from(apart or [j]))
        pts = np.insert(pts, i, on_edge, axis=0)
        assert polygon_is_simple(pts) == polygon_oracle(pts)
