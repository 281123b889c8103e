"""Forward model: ray casting, visibility, fixture families, perturbation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from panolayout import (
    AssemblyError,
    BoundarySignal,
    CornerKind,
    GeometryError,
    ImageGrid,
    InputError,
    LayoutCorner,
    SyntheticRoom,
    VisibleLayout,
    col_to_lon,
    corner_bumps,
    extract_corner_peaks,
    iou_2d,
    layout_boundaries,
    lon_to_col,
    perturb_signal,
    postprocess,
    raycast,
    render_signal,
    truth_layout,
)
from panolayout.panorama import cyclic_column_distance
from panolayout.geometry import polygon_is_simple
from panolayout.synth import (
    _PARITY_RAY,
    FIXTURE_FAMILIES,
    _grid_rays,
    _hit_params,
    _min_edge_distance,
    make_fixture,
)

GRID = ImageGrid()


def centered_square(half=1.6, room_height=3.2):
    poly = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    return SyntheticRoom(poly, room_height, np.zeros(2), 1.6)


def hand_l_room(cam=(4.5, 1.5)):
    # bottom bar y in [0, 3] x in [0, 6]; upper arm x in [0, 2] y in [3, 6]
    poly = np.array([[0, 0], [6, 0], [6, 3], [2, 3], [2, 6], [0, 6]], dtype=float)
    return SyntheticRoom(poly, 3.2, np.asarray(cam, float), 1.6)


class TestSyntheticRoom:
    def test_camera_outside_rejected(self):
        poly = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([5.0, 5.0]))

    def test_camera_on_edge_rejected(self):
        poly = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([1.0, 0.0]))

    def test_clockwise_polygon_rejected(self):
        poly = np.array([[0, 0], [0, 2], [2, 2], [2, 0]], dtype=float)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]))

    def test_self_intersection_rejected(self):
        poly = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]))

    def test_camera_height_bounds(self):
        poly = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]), camera_height=3.0)
        with pytest.raises(InputError):
            SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]), camera_height=0.0)

    def test_camera_inside_square(self):
        poly = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]))
        with pytest.raises(InputError, match="strictly inside"):
            SyntheticRoom(poly, 3.0, np.array([3.0, 1.0]))

    def test_camera_inside_concave_room(self):
        ell = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
        SyntheticRoom(ell, 3.0, np.array([1.0, 3.0]))
        with pytest.raises(InputError, match="strictly inside"):
            SyntheticRoom(ell, 3.0, np.array([3.0, 3.0]))  # in the notch

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=10, unique=True
        )
    )
    def test_ray_parity_matches_even_odd_loop(self, containment_oracle, pts):
        # integer vertices sorted by angle about their mean make a simple star
        # polygon; the half-integer grid of points holds points level with
        # every vertex, whose rays pass through it
        poly = np.array(pts, dtype=float)
        rel = poly - poly.mean(axis=0)
        poly = poly[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
        assume(polygon_is_simple(poly))
        checked = 0
        for x in np.arange(-6.5, 7.0, 0.5):
            for y in np.arange(-6.5, 7.0, 0.5):
                point = np.array([x, y])
                if _min_edge_distance(point, poly) < 1e-9:
                    continue
                crossings = np.isfinite(_hit_params(point, _PARITY_RAY, poly)).sum()
                assert bool(crossings % 2) == containment_oracle(point, poly), (x, y)
                checked += 1
        assert checked > 600


class TestRaycast:
    def test_centered_square_analytic_profile(self):
        room = centered_square()
        lons = col_to_lon(np.arange(GRID.width), GRID)
        dist, _ = raycast(room, lons)
        expected = 1.6 / np.maximum(np.abs(np.cos(lons)), np.abs(np.sin(lons)))
        np.testing.assert_allclose(dist, expected, rtol=1e-9)

    def test_axis_ray_hits_wall_at_half_width(self):
        room = centered_square()
        dist, _ = raycast(room, [0.0])
        assert dist[0] == pytest.approx(1.6, abs=1e-12)

    def test_escaped_ray_raises(self):
        # camera validation passes but the polygon is pierced by a zero-width
        # slit is impossible for simple polygons; instead test via a direct
        # call with a camera placed outside through object.__new__
        room = centered_square()
        bad = object.__new__(SyntheticRoom)
        object.__setattr__(bad, "floor_polygon", room.floor_polygon)
        object.__setattr__(bad, "room_height", 3.2)
        object.__setattr__(bad, "camera_position", np.array([10.0, 0.0]))
        object.__setattr__(bad, "camera_height", 1.6)
        with pytest.raises(GeometryError):
            raycast(bad, [math.pi / 2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=12),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(0, 11),
        st.sampled_from([0.0, 1e-9, -1e-9, 5e-324, -5e-324, 1.0, 1 - 1e-9, 1 + 1e-9, 0.5]),
        st.integers(0, 2**32 - 1),
    )
    # a ray of subnormal direction, to parameter 5e-324 of an edge that starts
    # at the origin: its quotients overflow
    @example(poly=[(0, 0), (0, 2), (2, 0)], origin=(0, 0), k=0, t=5e-324, seed=0)
    def test_hit_params_match_roll_form(self, metric_oracle, poly, origin, k, t, seed):
        # integer polygons of 3-12 vertices, possibly repeated or collinear;
        # rays exactly through every vertex, parallel to every edge, through
        # the point at parameter t of edge k (t near 0, 1 and +-1e-9), and at
        # random
        poly = np.array(poly, dtype=float) / 2.0
        origin = np.array(origin, dtype=float) / 3.0
        nxt = np.roll(poly, -1, axis=0)
        a, b = poly[k % len(poly)], nxt[k % len(poly)]
        random_dirs = np.random.default_rng(seed).normal(size=(8, 2))
        dirs = np.vstack([poly - origin, nxt - poly, [a + t * (b - a) - origin], random_dirs])
        got = _hit_params(origin, dirs, poly)
        assert np.array_equal(got, metric_oracle.hit_params(origin, dirs, poly))

    @pytest.mark.parametrize(
        "x",
        [0.0, 5e-324, -5e-324, 1e-9, -1e-9, np.nextafter(1e-9, 0.0), np.nextafter(1e-9, 1.0),
         -np.nextafter(1e-9, 0.0), -np.nextafter(1e-9, 1.0), -1.0, -1.0 + 2.0**-52,
         -1.0 - 2.0**-52, -(1.0 - 1e-9), -(1.0 + 1e-9)],
    )
    def test_hit_params_at_exact_edge_parameters(self, metric_oracle, x):
        # the ray straight up from the origin meets the edge (x, 1) -> (x + 1, 1)
        # at edge parameter exactly t = -x: on and one ulp either side of +-1e-9
        poly = np.array([[x, 1.0], [x + 1.0, 1.0], [x + 1.0, 2.0]])
        origin, dirs = np.zeros(2), np.array([[0.0, 1.0], [1.0, 1.0]])
        got = _hit_params(origin, dirs, poly)
        assert np.array_equal(got, metric_oracle.hit_params(origin, dirs, poly))

    def test_grid_rays_cached_read_only(self):
        grid = ImageGrid(64)
        dirs = _grid_rays(grid)
        assert _grid_rays(ImageGrid(64)) is dirs
        assert not dirs.flags.writeable
        lons = col_to_lon(np.arange(64), grid)
        assert np.array_equal(dirs, np.stack([np.cos(lons), np.sin(lons)], axis=1))


class TestLayoutBoundaries:
    @pytest.mark.parametrize("family", FIXTURE_FAMILIES)
    @pytest.mark.parametrize("sigma", [0.0, 0.005])
    def test_equals_synthetic_room_raycast(self, corpus, family, sigma):
        # the layout's polygon ray-cast directly, against the validated room
        for seed in range(3):
            _, signal, truth = corpus[(family, seed)]
            pred = postprocess(perturb_signal(signal, sigma, seed=seed) if sigma else signal)
            for layout in (truth, pred):
                h = layout.camera.camera_height
                room = SyntheticRoom(layout.floor_points(), layout.room_height, np.zeros(2), h)
                dist, _ = raycast(room, col_to_lon(np.arange(GRID.width), GRID))
                y_c, y_f = layout_boundaries(layout)
                assert np.array_equal(y_c, np.arctan2(layout.room_height - h, dist))
                assert np.array_equal(y_f, -np.arctan2(h, dist))

    def test_room_height_not_above_camera_rejected(self, square_case):
        # such a layout is never built, so layout_boundaries never sees one
        _, _, truth = square_case
        with pytest.raises(GeometryError, match="camera_height < room_height"):
            VisibleLayout(truth.corners, truth.camera, 1.6, truth.grid)

    def test_corners_within_half_a_turn_rejected(self):
        # a simple triangle that does not surround the camera, where rays
        # would escape, is never built
        corners = [LayoutCorner(col, 0.5, -0.5) for col in (100.0, 200.0, 300.0)]
        with pytest.raises(AssemblyError, match="half a turn"):
            VisibleLayout(corners, room_height=3.2)


class TestRenderSignal:
    def test_centered_square_floor_curve(self):
        signal, _ = render_signal(centered_square())
        lons = col_to_lon(np.arange(GRID.width), GRID)
        d = 1.6 / np.maximum(np.abs(np.cos(lons)), np.abs(np.sin(lons)))
        np.testing.assert_allclose(signal.y_f, -np.arctan(1.6 / d), atol=1e-12)
        np.testing.assert_allclose(signal.y_c, np.arctan(1.6 / d), atol=1e-12)

    def test_front_column_at_quarter_pi(self):
        signal, _ = render_signal(centered_square())
        col = int(lon_to_col(0.0, GRID))  # 511..512 straddle lon 0
        lon = col_to_lon(col, GRID)
        d = 1.6 / max(abs(math.cos(lon)), abs(math.sin(lon)))
        assert signal.y_f[col] == pytest.approx(-math.atan2(1.6, d), abs=1e-12)
        assert abs(signal.y_f[col] + math.pi / 4) < 2e-3  # half-column off lon 0

    def test_convex_room_has_no_pairs(self):
        for family in ("square", "rectangle", "pentagon", "hexagon"):
            _, truth = render_signal(make_fixture(family, 0))
            assert truth.occlusion_pairs() == []

    def test_hand_l_room_truth(self):
        room = hand_l_room()
        _, truth = render_signal(room)
        pairs = truth.occlusion_pairs()
        assert len(pairs) == 1
        assert len(truth.corners) == 5  # three plain vertices + the pair
        i, j = pairs[0]
        near, far = truth.corners[i], truth.corners[j]
        assert near.kind is CornerKind.OCCLUSION_NEAR
        assert far.kind is CornerKind.OCCLUSION_FAR
        assert near.column == pytest.approx(far.column, abs=1e-12)
        d_near = 1.6 / math.tan(-near.floor_lat)
        d_far = 1.6 / math.tan(-far.floor_lat)
        assert d_near == pytest.approx(math.sqrt(8.5), rel=1e-9)
        assert d_far / d_near == pytest.approx(1.8, rel=1e-9)

    def test_hand_l_room_visible_polygon(self):
        # the two hidden vertices are replaced by the far point (0, 4.2)
        room = hand_l_room()
        truth = truth_layout(room, GRID)
        pts = truth.floor_points() + room.camera_position
        expected = np.array([[0, 0], [6, 0], [6, 3], [2, 3], [0, 4.2]])
        np.testing.assert_allclose(pts, expected, atol=1e-9)

    def test_jump_ratio_matches_flanking_rays(self):
        room = hand_l_room()
        lon = math.atan2(1.5, -2.5)  # silhouette vertex direction
        d, _ = raycast(room, [lon - 1e-7, lon + 1e-7])
        assert max(d) / min(d) == pytest.approx(1.8, rel=1e-5)

    def test_vertex_left_of_column_zero_folds_into_range(self):
        # on a 512-wide grid this vertex longitude maps to column -2.8e-14,
        # which plain % folds onto the width itself instead of just below it
        grid = ImageGrid(512)
        lon = -3.135456730438251
        assert lon_to_col(lon, grid) % grid.width == grid.width
        room = SyntheticRoom(
            np.array([[3 * math.cos(lon + k * math.pi / 2), 3 * math.sin(lon + k * math.pi / 2)]
                      for k in range(4)]),
            3.0,
            np.zeros(2),
        )
        assert math.atan2(room.floor_polygon[0, 1], room.floor_polygon[0, 0]) == lon
        truth = truth_layout(room, grid)
        cols = [c.column for c in truth.corners]
        assert all(0 <= c < grid.width for c in cols)
        assert cols[0] == 0.0

    def test_silhouette_without_wall_behind_raises(self):
        # vertex 4 is seen past the thin spike between vertices 3 and 5; the
        # only wall beyond it, the right one, lies within 1e-6 m of it
        poly = np.array(
            [[0, 0], [5 + 5e-7, 0], [5 + 5e-7, 10], [4.999, 10], [5, 1], [4.99, 10], [0, 10]]
        )
        room = SyntheticRoom(poly, 3.0, np.array([1.0, 1.0]))
        with pytest.raises(GeometryError, match="^no wall behind silhouette vertex 4$"):
            truth_layout(room, GRID)

    def test_collinear_camera_ray_raises(self):
        # camera straight below the reflex vertex: the ray runs along a wall
        room = hand_l_room(cam=(2.0, 1.0))
        with pytest.raises(GeometryError):
            truth_layout(room, GRID)

    def test_peak_channel_marks_visible_corners(self):
        signal, truth = render_signal(make_fixture("l_room", 3))
        peaks = extract_corner_peaks(signal.y_p)
        cols = sorted({round(c.column % GRID.width, 6) for c in truth.corners})
        assert len(peaks) == len(cols)
        for p, c in zip(peaks, cols):
            assert cyclic_column_distance(p, c, GRID.width) <= 0.5 + 1e-9

    def test_boundaries_continuous_inside_walls(self):
        for family, seed in (("square", 1), ("pentagon", 2), ("l_room", 0), ("t_room", 0)):
            signal, truth = render_signal(make_fixture(family, seed))
            pair_cols = [truth.corners[i].column for i, _ in truth.occlusion_pairs()]
            idx = np.arange(GRID.width)
            away = np.ones(GRID.width, dtype=bool)
            for pc in pair_cols:
                delta = np.abs(idx - pc)
                away &= np.minimum(delta, GRID.width - delta) > 2
            for y in (signal.y_f, signal.y_c):
                step = np.abs(np.roll(y, -1) - y)
                assert step[away].max() < 0.015


class TestVisibilityBySupersampling:
    """Edge-index transitions of a 4x-dense ray sweep must match the truth.

    Every visible vertex produces exactly one nearest-edge change; every
    occlusion produces one with a large distance gap. This checks the
    silhouette classifier against nothing but dense brute-force casting.
    """

    cases = [("square", 0), ("pentagon", 1), ("l_room", 0), ("l_room", 1), ("t_room", 0), ("t_room", 1)]

    @pytest.mark.parametrize("family,seed", cases)
    def test_transitions_match_truth(self, family, seed):
        room = make_fixture(family, seed)
        truth = truth_layout(room, GRID)
        fine = ImageGrid(4 * GRID.width)
        lons = col_to_lon(np.arange(fine.width), fine)
        dist, edge = raycast(room, lons)
        half_step = math.pi / fine.width
        plain, jumps = [], []
        for i in range(fine.width):
            j = (i + 1) % fine.width
            if edge[i] == edge[j]:
                continue
            col = float(lon_to_col(lons[i] + half_step, GRID)) % GRID.width
            ratio = max(dist[i], dist[j]) / min(dist[i], dist[j])
            (jumps if ratio > 1.15 else plain).append(col)
        pairs = truth.occlusion_pairs()
        pair_cols = [truth.corners[i].column for i, _ in pairs]
        plain_cols = [
            c.column
            for k, c in enumerate(truth.corners)
            if k not in {i for p in pairs for i in p}
        ]
        assert len(jumps) == len(pair_cols)
        assert len(plain) == len(plain_cols)
        for got, want in zip(sorted(jumps), sorted(pair_cols)):
            assert cyclic_column_distance(got, want, GRID.width) <= 0.5
        for got, want in zip(sorted(plain), sorted(plain_cols)):
            assert cyclic_column_distance(got, want, GRID.width) <= 0.5


class TestCornerBumps:
    def test_unit_peak_and_gaussian_falloff(self):
        y = corner_bumps([100], 1024)
        assert y[100] == 1.0
        assert y[102] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_cyclic_symmetry(self):
        y = corner_bumps([0], 64)
        assert y[1] == pytest.approx(y[63], abs=1e-15)

    def test_sigma_zero_one_hot(self):
        y = corner_bumps([5.4], 16, sigma=0)
        assert y[5] == 1.0 and y.sum() == 1.0

    def test_max_combination_stays_bounded(self):
        y = corner_bumps([10, 11, 12], 64)
        assert y.max() <= 1.0 and y[11] == 1.0

    @pytest.mark.parametrize("column, sigma", [(math.nan, 0.0), (math.inf, 2.0), (-math.inf, 2.0)])
    def test_non_finite_column_rejected(self, column, sigma):
        with pytest.raises(InputError, match=f"corner column must be finite, got {column}"):
            corner_bumps([10.0, column], 8, sigma)

    @pytest.mark.parametrize("width", [0, -4, 8.5, True, np.float64(8.0), "8"])
    def test_bad_width_rejected(self, width):
        with pytest.raises(InputError, match="width must be an integer >= 1"):
            corner_bumps([1.0], width, 2.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0, True, "2"])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(InputError, match="sigma must be a finite number >= 0"):
            corner_bumps([1.0], 8, sigma)

    def test_numpy_width_and_sigma_accepted(self):
        y = corner_bumps([1.0], np.int64(8), np.float64(0.0))
        assert y.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


class TestPerturbSignal:
    def test_sigma_zero_is_identity(self):
        signal, _ = render_signal(make_fixture("square", 0))
        out = perturb_signal(signal, 0.0, seed=3)
        assert np.array_equal(out.y_c, signal.y_c)
        assert np.array_equal(out.y_f, signal.y_f)

    def test_deterministic_given_seed(self):
        signal, _ = render_signal(make_fixture("rectangle", 1))
        a = perturb_signal(signal, 0.002, seed=11)
        b = perturb_signal(signal, 0.002, seed=11)
        assert np.array_equal(a.y_c, b.y_c) and np.array_equal(a.y_f, b.y_f)
        c = perturb_signal(signal, 0.002, seed=12)
        assert not np.array_equal(a.y_f, c.y_f)

    def test_peak_channel_untouched(self):
        signal, _ = render_signal(make_fixture("square", 2))
        out = perturb_signal(signal, 0.01, seed=0)
        assert np.array_equal(out.y_p, signal.y_p)

    def test_output_stays_in_valid_ranges(self):
        y_c = np.full(64, 1e-5)
        y_f = np.full(64, -1e-5)
        signal = BoundarySignal(np.zeros(64), y_c, y_f)
        out = perturb_signal(signal, 0.5, seed=5)
        assert (out.y_c > 0).all() and (out.y_c < math.pi / 2).all()
        assert (out.y_f < 0).all() and (out.y_f > -math.pi / 2).all()

    def test_negative_sigma_rejected(self):
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError):
            perturb_signal(signal, -0.1)

    def test_nan_sigma_rejected(self):
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="noise_sigma"):
            perturb_signal(signal, math.nan)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf])
    def test_infinite_sigma_rejected(self, sigma):
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="noise_sigma"):
            perturb_signal(signal, sigma)

    def test_negative_seed_rejected(self):
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="seed"):
            perturb_signal(signal, 0.01, seed=-1)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        # a bool is not a seed, and numpy's own TypeError must not leak
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="seed"):
            perturb_signal(signal, 0.01, seed=seed)

    @pytest.mark.parametrize("sigma", [True, False, "0.01", None, 0.01j])
    def test_non_real_sigma_rejected(self, sigma):
        signal, _ = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="noise_sigma"):
            perturb_signal(signal, sigma)

    def test_numpy_seed_and_sigma_accepted(self):
        signal, _ = render_signal(make_fixture("square", 0))
        a = perturb_signal(signal, np.float32(0.25), seed=np.int64(3))
        b = perturb_signal(signal, float(np.float32(0.25)), seed=3)
        assert np.array_equal(a.y_f, b.y_f)

    def test_noisy_square_still_recovered(self):
        signal, truth = render_signal(make_fixture("square", 5))
        noisy = perturb_signal(signal, 0.002, seed=7)
        pred = postprocess(noisy)
        assert len(pred.corners) == 4
        assert iou_2d(pred, truth) > 0.98


# Truth drift fails here; a change that moves the truth on purpose updates
# this value and says so in CHANGES.md.
TRUTH_DIGEST = "3b76f2fbab9cb2367cff80d36d7b60eb7516b90c13c1289cdb5f34e544c61a92"


class TestMakeFixture:
    def test_deterministic(self):
        a = make_fixture("t_room", 9)
        b = make_fixture("t_room", 9)
        assert np.array_equal(a.floor_polygon, b.floor_polygon)
        assert np.array_equal(a.camera_position, b.camera_position)
        assert a.room_height == b.room_height

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            make_fixture("igloo", 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            make_fixture("square", -1)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed"):
            make_fixture("square", seed)

    def test_numpy_integer_seed_accepted(self):
        a, b = make_fixture("square", np.int64(4)), make_fixture("square", 4)
        assert np.array_equal(a.floor_polygon, b.floor_polygon)

    def test_truth_corners_pinned(self, corpus):
        # column, both latitudes and kind of every truth corner of seeds 0 and
        # 1 of each family, bit for bit
        h = hashlib.sha256()
        for family in FIXTURE_FAMILIES:
            for seed in (0, 1):
                for c in corpus[(family, seed)][2].corners:
                    lats = f"{c.column.hex()} {c.ceil_lat.hex()} {c.floor_lat.hex()}"
                    h.update(f"{lats} {c.kind.value}\n".encode())
        assert h.hexdigest() == TRUTH_DIGEST

    def test_expected_pair_counts(self):
        expected = {"square": 0, "rectangle": 0, "pentagon": 0, "hexagon": 0, "l_room": 1, "t_room": 2}
        for family in FIXTURE_FAMILIES:
            for seed in (0, 1):
                _, truth = render_signal(make_fixture(family, seed))
                assert len(truth.occlusion_pairs()) == expected[family]
