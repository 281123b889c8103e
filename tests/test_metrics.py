"""Evaluation metrics against hand geometry and brute-force matching oracles."""

import dataclasses
import itertools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

import panolayout
from panolayout import (
    BoundarySignal,
    ImageGrid,
    InputError,
    MetricError,
    MetricReport,
    AssemblyError,
    FIXTURE_FAMILIES,
    SyntheticRoom,
    VisibleLayout,
    corner_error,
    corner_image_points,
    evaluate_pair,
    iou_2d,
    iou_3d,
    junction_f,
    lat_to_row,
    layout_boundaries,
    pixel_error,
    perturb_signal,
    plane_f,
    postprocess,
    render_semantic,
    render_signal,
    row_to_lat,
    truth_layout,
    wireframe_f,
)
from panolayout import metrics
from panolayout.metrics import (
    PLANE_IOU_THRESHOLD,
    _column_pixel_error,
    _min_cost_matching,
    _nearest_distances,
    _plane_ious,
    _planes,
    _rows,
    _wireframe,
    _wireframe_points,
)
from panolayout.panorama import wrap_col
from panolayout.synth import make_fixture

GRID = ImageGrid()
DIAG = math.sqrt(1024**2 + 512**2)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def shifted(poly, dx, dy=0.0):
    return poly + np.array([dx, dy])


def l_room_round_trip(seed=0):
    signal, truth = render_signal(make_fixture("l_room", seed))
    return postprocess(signal), truth


def noisy_round_trip(family, seed, sigma=0.002):
    signal, truth = render_signal(make_fixture(family, seed))
    return postprocess(perturb_signal(signal, sigma, seed=seed)), truth


def convex_clip_area(subject, clip):
    """Area of subject ∩ clip for convex CCW polygons (Sutherland-Hodgman)."""

    def side(p, a, b):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = [tuple(p) for p in subject]
    for a, b in zip(clip, np.roll(clip, -1, axis=0)):
        pts, out = out, []
        for p, q in zip(pts, pts[1:] + pts[:1]):
            sp, sq = side(p, a, b), side(q, a, b)
            if sp >= 0:
                out.append(p)
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        if not out:
            return 0.0
    x, y = np.array(out).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def random_convex(rng, n):
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    return np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1, 2)


class TestIou2d:
    def test_identical(self):
        assert iou_2d(UNIT_SQUARE, UNIT_SQUARE) == 1.0

    def test_half_shifted_squares(self):
        # inter 0.5, union 1.5
        assert iou_2d(UNIT_SQUARE, shifted(UNIT_SQUARE, 0.5)) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_l_shape_inside_square(self):
        # the L covers 3 of the square's 4 area units
        square = 2.0 * UNIT_SQUARE
        l_shape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
        assert iou_2d(square, l_shape) == pytest.approx(0.75, abs=1e-12)

    def test_round_trip_layouts(self):
        pred, truth = l_room_round_trip()
        assert iou_2d(pred, truth) > 0.99

    def test_symmetry(self):
        a = UNIT_SQUARE
        b = shifted(UNIT_SQUARE, 0.3, 0.2)
        assert iou_2d(a, b) == iou_2d(b, a)

    def test_near_parallel_edges_far_apart(self):
        # the bottom edge of b rises by 1e-320 over one unit, so its crossing
        # parameter with a's edges, 5 below, overflows: no crossing, no warning
        a = shifted(2.0 * UNIT_SQUARE, 0.0, -5.0)
        b = np.array([[0, 0], [1, 1e-320], [1, 1], [0, 1]], dtype=float)
        assert iou_2d(a, b) == 0.0

    def test_zero_area_rejected(self):
        line = np.array([[0, 0], [1, 0], [2, 0]], dtype=float)
        with pytest.raises(MetricError):
            iou_2d(line, UNIT_SQUARE)

    def test_exact_matches_fine_raster(self, raster):
        cases = [
            (UNIT_SQUARE, shifted(UNIT_SQUARE, 0.5)),
            l_room_round_trip(),
            *(noisy_round_trip(family, 5) for family in ("pentagon", "l_room", "t_room")),
        ]
        for a, b in cases:
            assert abs(iou_2d(a, b) - raster(a, b, resolution=4096)) < 0.001

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 10), min_size=4, max_size=4),
    )
    def test_axis_aligned_rectangles_closed_form(self, corner, size):
        (ax, ay, bx, by), (aw, ah, bw, bh) = corner, size
        a = np.array([[ax, ay], [ax + aw, ay], [ax + aw, ay + ah], [ax, ay + ah]])
        b = np.array([[bx, by], [bx + bw, by], [bx + bw, by + bh], [bx, by + bh]])
        ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
        iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
        inter = ix * iy
        want = inter / (aw * ah + bw * bh - inter)
        assert iou_2d(a, b) == pytest.approx(want, abs=1e-12)

    def test_square_and_diamond(self):
        # edges cross at y = +-0.5, which is no vertex height of either polygon:
        # [-1, 1]^2 minus four corner triangles of legs 0.5 is 3.5; diamond 4.5
        diamond = np.array([[1.5, 0.0], [0.0, 1.5], [-1.5, 0.0], [0.0, -1.5]])
        square = 2.0 * UNIT_SQUARE - 1.0
        assert iou_2d(square, diamond) == pytest.approx(3.5 / 5.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_convex_polygons_match_clipping(self, seed):
        rng = np.random.default_rng(seed)
        a = random_convex(rng, int(rng.integers(3, 12)))
        b = random_convex(rng, int(rng.integers(3, 12)))
        inter = convex_clip_area(a, b)
        area_a, area_b = convex_clip_area(a, a), convex_clip_area(b, b)
        assert iou_2d(a, b) == pytest.approx(inter / (area_a + area_b - inter), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_star_polygons_bounded_symmetric_reflexive(self, seed):
        rng = np.random.default_rng(seed)

        def star(n):
            ang = np.sort(rng.uniform(0, 2 * np.pi, n))
            r = rng.uniform(0.5, 2.0, n)
            return np.column_stack([r * np.cos(ang), r * np.sin(ang)]) + rng.uniform(-0.5, 0.5, 2)

        a, b = star(int(rng.integers(3, 12))), star(int(rng.integers(3, 12)))
        v = iou_2d(a, b)
        assert 0.0 <= v <= 1.0
        assert iou_2d(b, a) == v
        assert iou_2d(a, a) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        poly = UNIT_SQUARE.copy()
        poly[2, 1] = bad
        with pytest.raises(InputError, match="polygon vertices must be finite"):
            iou_2d(poly, UNIT_SQUARE)
        with pytest.raises(InputError, match="polygon vertices must be finite"):
            iou_3d(UNIT_SQUARE, poly, height_a=1.0, height_b=1.0)


class TestIou3d:
    def test_identical_layouts(self):
        _, truth = render_signal(make_fixture("square", 0))
        assert iou_3d(truth, truth) == 1.0

    def test_nested_boxes_half(self):
        # same footprint, one room half as tall: vol ratio is exactly 1/2
        v = iou_3d(UNIT_SQUARE, UNIT_SQUARE, height_a=3.2, height_b=1.6)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_shifted_squares_equal_heights(self):
        v = iou_3d(UNIT_SQUARE, shifted(UNIT_SQUARE, 0.5), height_a=2.0, height_b=2.0)
        assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_same_footprint_formula_exact(self, rng):
        for _ in range(10):
            ha, hb = rng.uniform(1.0, 4.0, 2)
            expected = min(ha, hb) / (ha + hb - min(ha, hb))
            v = iou_3d(UNIT_SQUARE, UNIT_SQUARE, height_a=ha, height_b=hb)
            assert v == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(MetricError):
            iou_3d(UNIT_SQUARE, UNIT_SQUARE, height_a=0.0, height_b=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_rejected(self, bad):
        with pytest.raises(MetricError, match="non-finite room height"):
            iou_3d(UNIT_SQUARE, UNIT_SQUARE, height_a=bad, height_b=1.0)
        with pytest.raises(MetricError, match="non-finite room height"):
            iou_3d(UNIT_SQUARE, UNIT_SQUARE, height_a=1.0, height_b=bad)

    def test_bare_polygon_needs_height(self):
        with pytest.raises(InputError):
            iou_3d(UNIT_SQUARE, UNIT_SQUARE)


class TestCornerError:
    def test_identical(self):
        pts = np.array([[100.0, 200.0], [700.0, 300.0]])
        assert corner_error(pts, pts, GRID) == 0.0

    def test_single_pair_five_pixels(self):
        pred = np.array([[100.0, 200.0]])
        gt = np.array([[105.0, 200.0]])
        v = corner_error(pred, gt, GRID)
        assert v == pytest.approx(5.0 / DIAG, abs=1e-15)
        assert v == pytest.approx(0.004368, abs=1e-6)

    def test_extra_corner_charges_fixed_penalty(self):
        pred = np.array([[100.0, 200.0], [500.0, 300.0]])
        gt = np.array([[100.0, 200.0]])
        # one exact match and one unmatched at 0.1: mean over two terms
        assert corner_error(pred, gt, GRID) == pytest.approx(0.05, abs=1e-12)

    def test_column_distance_wraps(self):
        pred = np.array([[1023.0, 100.0]])
        gt = np.array([[0.0, 100.0]])
        assert corner_error(pred, gt, GRID) == pytest.approx(1.0 / DIAG, abs=1e-15)

    @pytest.mark.parametrize("column", [1800.0, 1800.0 - 1024.0, 1800.0 + 2048.0, -248.0])
    def test_column_distance_wraps_at_any_distance(self, column):
        # every column is 248 columns from column 0, the short way round
        pred = np.array([[0.0, 100.0]])
        gt = np.array([[column, 100.0]])
        assert corner_error(pred, gt, GRID) == pytest.approx(248.0 / DIAG, abs=1e-15)

    def test_junction_distance_wraps_at_any_distance(self):
        # 2040 is 8 columns short of 2048, column 0 two widths over: matched at
        # thresholds 10 and 20, not 5
        pred = np.array([[0.0, 100.0]])
        assert junction_f(pred, np.array([[2040.0, 100.0]]), GRID) == pytest.approx(2 / 3)
        assert junction_f(pred, np.array([[1e300, 1e300]]), GRID) == 0.0
        assert junction_f(np.array([[1e308, 0.0]]), np.array([[-1e308, 0.0]]), GRID) == 0.0

    def test_hungarian_beats_greedy_on_chain(self):
        # greedy would lock the central short edge (1) and pay a long detour
        # (11), a mean of 6; the optimal match pays 5 + 5
        pred = np.array([[0.0, 0.0], [6.0, 0.0]])
        gt = np.array([[5.0, 0.0], [11.0, 0.0]])
        assert corner_error(pred, gt, GRID) == pytest.approx(5.0 / DIAG, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            corner_error(np.zeros((0, 2)), np.array([[1.0, 1.0]]), GRID)

    def test_overflowing_distance_rejected(self):
        # finite points whose squared distance overflows to inf
        with pytest.raises(MetricError, match="overflow"):
            corner_error(np.array([[0.0, 1e200]]), np.array([[0.0, -1e200]]), GRID)
        with pytest.raises(MetricError, match="overflow"):
            corner_error(np.array([[0.0, 1e308]]), np.array([[0.0, -1e308], [5.0, 5.0]]), GRID)
        with pytest.raises(MetricError, match="overflow"):
            corner_error(np.array([[1e308, 0.0]]), np.array([[-1e308, 0.0]]), GRID)
        far = metrics._pixel_distances(np.array([[1e308, 0.0]]), np.array([[-1e308, 0.0]]), 1024)
        assert far.tolist() == [[math.inf]]

    def test_rotation_invariance(self, rng):
        pred = np.column_stack([rng.uniform(0, 1024, 6), rng.uniform(0, 512, 6)])
        gt = pred + rng.normal(0, 3, pred.shape)
        gt[:, 0] %= 1024
        base = corner_error(pred, gt, GRID)
        for shift in rng.integers(1, 1024, size=8):
            p = pred.copy()
            g = gt.copy()
            p[:, 0] = (p[:, 0] + shift) % 1024
            g[:, 0] = (g[:, 0] + shift) % 1024
            assert corner_error(p, g, GRID) == pytest.approx(base, abs=1e-9)

    def test_accepts_layouts(self):
        pred, truth = l_room_round_trip()
        assert corner_error(truth, truth) == 0.0
        assert corner_error(pred, truth) < 0.005


def brute_min_cost(cost):
    """Least total cost of a one-to-one matching of min(n, m) pairs, over
    every injection of the smaller side into the larger."""
    small, large = sorted(cost.shape)
    c = cost if cost.shape[0] == small else cost.T
    injections = itertools.permutations(range(large), small)
    return min(sum(c[i, j] for i, j in enumerate(p)) for p in injections)


class TestMinCostMatching:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        ties=st.booleans(),
        data=st.data(),
    )
    def test_optimal_one_to_one(self, shape, ties, data):
        # integer costs from a few values tie often; real ones almost never
        values = st.integers(0, 3).map(float) if ties else st.floats(-100.0, 100.0)
        size = math.prod(shape)
        cost = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
        rows, cols = _min_cost_matching(cost)
        assert len(rows) == len(cols) == min(shape)
        assert np.all(np.diff(rows) > 0)
        assert len(set(cols.tolist())) == len(cols)
        assert cost[rows, cols].sum() == pytest.approx(brute_min_cost(cost), abs=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3), (1, 6)])
    def test_constant_costs_match_in_order(self, shape):
        # every matching ties: row i takes column i, as in scipy
        rows, cols = _min_cost_matching(np.full(shape, 2.0))
        assert rows.tolist() == cols.tolist() == list(range(min(shape)))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (5, 3), (8, 8), (14, 14), (56, 8), (8, 56)])
    def test_pairs_of_scipy_on_untied_costs(self, rng, shape):
        for _ in range(50):
            cost = rng.uniform(0.0, 1000.0, shape)
            rows, cols = _min_cost_matching(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert rows.tolist() == want_rows.tolist()
            assert cols.tolist() == want_cols.tolist()


def test_import_loads_no_scipy():
    code = (
        "import sys, panolayout, panolayout.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(panolayout.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults")
@pytest.mark.parametrize("sigma", [0.0, 0.005])
def test_evaluate_pair_keeps_its_temporaries_on_the_heap(sigma):
    # once the package is imported, repeat calls fault in no fresh pages;
    # with every temporary mapped afresh these 18 calls take about 3000 faults,
    # and the noisy pairs' many corners make the largest temporaries
    code = (
        "import resource, panolayout as pl\n"
        "pairs = [pl.render_signal(pl.make_fixture(f, 0)) for f in pl.FIXTURE_FAMILIES]\n"
        f"pairs = [(pl.postprocess(pl.perturb_signal(s, {sigma}, seed=0)), t) for s, t in pairs]\n"
        "for lay, truth in pairs: pl.evaluate_pair(lay, truth)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for lay, truth in pairs * 3: pl.evaluate_pair(lay, truth)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(panolayout.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 100


class TestRenderSemantic:
    def test_constant_quarter_pi_bands(self):
        w = GRID.width
        sig = BoundarySignal(np.zeros(w), np.full(w, math.pi / 4), np.full(w, -math.pi / 4))
        mask = render_semantic(sig)
        assert mask.shape == (512, 1024)
        assert (mask[:128] == 0).all()
        assert (mask[128:384] == 1).all()
        assert (mask[384:] == 2).all()

    def test_ceiling_limit_vanishes(self):
        w = GRID.width
        sig = BoundarySignal(
            np.zeros(w), np.full(w, math.pi / 2 - 1e-6), np.full(w, -math.pi / 4)
        )
        mask = render_semantic(sig)
        assert (mask != 0).all()

    def test_oracle_signal_and_layout_agree_exactly(self):
        signal, truth = render_signal(make_fixture("square", 0))
        assert np.array_equal(render_semantic(signal), render_semantic(truth))


class TestPixelError:
    def test_identical(self):
        mask = np.zeros((512, 1024), dtype=np.int8)
        assert pixel_error(mask, mask) == 0.0

    def test_single_row_difference(self):
        a = np.zeros((512, 1024), dtype=np.int8)
        b = a.copy()
        b[7, :] = 1
        assert pixel_error(a, b) == 1 / 512

    def test_complement_masks(self):
        a = np.zeros((4, 8), dtype=np.int8)
        assert pixel_error(a, a + 1) == 1.0

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, (16, 32))
        b = rng.integers(0, 3, (16, 32))
        assert pixel_error(a, b) == pixel_error(b, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            pixel_error(np.zeros((4, 8)), np.zeros((8, 4)))

    def test_column_counts_match_masks_on_row_latitudes(self, rng):
        # boundaries sitting exactly on row latitudes are where > and < bite
        grid = ImageGrid(64)
        lats = row_to_lat(np.arange(grid.height), grid)
        bounds = []
        for _ in range(2):
            y_c = rng.choice(lats[lats > 0], grid.width)
            y_f = rng.choice(lats[lats < 0], grid.width)
            half = rng.random(grid.width) < 0.5
            y_c[half] = rng.uniform(1e-3, np.pi / 2 - 1e-3, half.sum())
            y_f[half] = -rng.uniform(1e-3, np.pi / 2 - 1e-3, half.sum())
            bounds.append((y_c, y_f))
        masks = [
            render_semantic(BoundarySignal(np.zeros(grid.width), y_c, y_f))
            for y_c, y_f in bounds
        ]
        assert _column_pixel_error(*bounds, grid) == pixel_error(*masks)


def brute_junction_f(p, q, width, thresholds=(5.0, 10.0, 20.0)):
    """Plain-loop greedy one-to-one matcher used as the matching oracle."""
    du = np.abs(p[:, None, 0] - q[None, :, 0])
    du = np.minimum(du, width - du)
    d = np.sqrt(du**2 + (p[:, None, 1] - q[None, :, 1]) ** 2)
    scores = []
    for t in thresholds:
        flat = sorted(
            ((d[i, j], i, j) for i in range(len(p)) for j in range(len(q))),
        )
        used_i, used_j, matched = set(), set(), 0
        for dist, i, j in flat:
            if dist > t:
                break
            if i not in used_i and j not in used_j:
                used_i.add(i)
                used_j.add(j)
                matched += 1
        if matched == 0:
            scores.append(0.0)
        else:
            pr = matched / len(p)
            rc = matched / len(q)
            scores.append(2 * pr * rc / (pr + rc))
    return float(np.mean(scores))


class TestJunctionF:
    def test_identical(self):
        _, truth = render_signal(make_fixture("square", 1))
        assert junction_f(truth, truth) == 1.0

    def test_single_corner_seven_pixels(self):
        pred = np.array([[100.0, 200.0]])
        gt = np.array([[100.0, 207.0]])
        assert junction_f(pred, gt, GRID) == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_conventions(self):
        empty = np.zeros((0, 2))
        pts = np.array([[1.0, 1.0]])
        assert junction_f(empty, pts, GRID) == 0.0
        assert junction_f(pts, empty, GRID) == 0.0
        assert junction_f(empty, empty, GRID) == 1.0

    def test_monotone_in_displacement(self):
        scores = []
        for off in (0.0, 3.0, 7.0, 12.0, 25.0):
            scores.append(junction_f(np.array([[100.0, 100.0 + off]]), np.array([[100.0, 100.0]]), GRID))
        assert scores == sorted(scores, reverse=True)
        assert scores == [1.0, 1.0, pytest.approx(2 / 3), pytest.approx(1 / 3), 0.0]

    @pytest.mark.parametrize("thresholds", [(), (math.nan,), (5.0, -1.0), (math.inf,)])
    def test_bad_thresholds_rejected(self, thresholds):
        pts = np.array([[100.0, 200.0]])
        with pytest.raises(InputError, match="non-empty, finite and >= 0"):
            junction_f(pts, pts, GRID, thresholds=thresholds)

    def test_non_finite_points_rejected(self):
        pts = np.array([[100.0, 200.0]])
        for bad in (np.array([[math.nan, 200.0]]), np.array([[100.0, math.inf]])):
            with pytest.raises(InputError, match="finite"):
                junction_f(bad, pts, GRID)
            with pytest.raises(InputError, match="finite"):
                corner_error(pts, bad, GRID)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8),
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8),
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, math.sqrt(2.0), math.sqrt(5.0), 7.5]),
            min_size=1,
            max_size=4,
        ),
    )
    def test_one_matching_equals_one_per_threshold(self, metric_oracle, p, q, thresholds):
        # integer points on a 16-column panorama: many tied distances, and
        # thresholds equal to distances such as 1, 2, sqrt(2) and sqrt(5)
        grid = ImageGrid(16)
        p = np.array(p, dtype=float).reshape(-1, 2)
        q = np.array(q, dtype=float).reshape(-1, 2)
        want = metric_oracle.junction_f(p, q, grid.width, thresholds)
        assert junction_f(p, q, grid, thresholds) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7))
    def test_matches_brute_force_greedy(self, seed, np_, nq):
        rng = np.random.default_rng(seed)
        p = np.column_stack([rng.uniform(0, 1024, np_), rng.uniform(0, 512, np_)])
        q = np.column_stack([rng.uniform(0, 1024, nq), rng.uniform(0, 512, nq)])
        assert junction_f(p, q, GRID) == pytest.approx(
            brute_junction_f(p, q, 1024), abs=1e-12
        )

    def test_rotation_invariance(self, rng):
        p = np.column_stack([rng.uniform(0, 1024, 5), rng.uniform(0, 512, 5)])
        q = np.column_stack([rng.uniform(0, 1024, 6), rng.uniform(0, 512, 6)])
        base = junction_f(p, q, GRID)
        for shift in (1, 100, 511, 1023):
            p2, q2 = p.copy(), q.copy()
            p2[:, 0] = (p2[:, 0] + shift) % 1024
            q2[:, 0] = (q2[:, 0] + shift) % 1024
            assert junction_f(p2, q2, GRID) == pytest.approx(base, abs=1e-9)


def rotated(layout, shift):
    """The same layout seen with the panorama turned by ``shift`` columns."""
    w = layout.grid.width
    corners = [
        dataclasses.replace(c, column=float(wrap_col(c.column + shift, w))) for c in layout.corners
    ]
    corners.sort(key=lambda c: c.column)  # stable: a pair keeps its order
    return VisibleLayout(corners, layout.camera, layout.room_height, layout.grid)


def constant_signal(y_c, y_f, w=1024):
    return BoundarySignal(np.zeros(w), np.full(w, y_c), np.full(w, y_f))


def chamfer_f(nearest_g, nearest_p, thresholds=(5.0, 10.0, 20.0)):
    """Mean F-score over the thresholds, from each side's nearest distances."""
    scores = []
    for t in thresholds:
        pr = float(np.mean(nearest_g <= t))
        rc = float(np.mean(nearest_p <= t))
        scores.append(0.0 if pr + rc == 0 else 2 * pr * rc / (pr + rc))
    return float(np.mean(scores))


def brute_wireframe_f(p_pts, g_pts, width, thresholds=(5.0, 10.0, 20.0)):
    du = np.abs(p_pts[:, None, 0] - g_pts[None, :, 0])
    du = np.minimum(du, width - du)
    d = np.sqrt(du**2 + (p_pts[:, None, 1] - g_pts[None, :, 1]) ** 2)
    return chamfer_f(d.min(axis=1), d.min(axis=0), thresholds)


def full_augmentation_wireframe_f(p_pts, g_pts, width):
    """Chamfer F with every point copied one width to each side of the seam."""

    def nearest(src, target):
        aug = np.vstack([target, target + [width, 0], target - [width, 0]])
        return cKDTree(aug).query(src, k=1)[0]

    return chamfer_f(nearest(p_pts, g_pts), nearest(g_pts, p_pts))


def wire_points(layout, include_verticals=True):
    grid = layout.grid
    y_c, y_f = layout_boundaries(layout)
    cols = np.arange(grid.width, dtype=float)
    pts = [
        np.stack([cols, lat_to_row(y_c, grid)], axis=1),
        np.stack([cols, lat_to_row(y_f, grid)], axis=1),
    ]
    if include_verticals:
        for c in layout.corners:
            r1 = lat_to_row(c.ceil_lat, grid)
            r2 = lat_to_row(c.floor_lat, grid)
            rows = np.arange(np.ceil(r1), np.floor(r2) + 1.0)
            pts.append(np.stack([np.full(len(rows), c.column), rows], axis=1))
    return np.vstack(pts)


class TestWireframeF:
    def test_identical(self):
        _, truth = render_signal(make_fixture("pentagon", 0))
        assert wireframe_f(truth, truth) == 1.0

    def test_uniform_floor_shift_seven_rows(self):
        # ceiling matches at every threshold; the floor curve only from t=10 up
        base = constant_signal(math.pi / 4, -math.pi / 4)
        rows_f = lat_to_row(base.y_f, GRID)
        shifted_sig = BoundarySignal(
            base.y_p, base.y_c, row_to_lat(rows_f + 7.0, GRID)
        )
        f5 = wireframe_f(base, shifted_sig, GRID, thresholds=(5.0,), include_verticals=False)
        f10 = wireframe_f(base, shifted_sig, GRID, thresholds=(10.0,), include_verticals=False)
        full = wireframe_f(base, shifted_sig, GRID, include_verticals=False)
        assert f5 == pytest.approx(0.5, abs=1e-12)
        assert f10 == 1.0
        assert full == pytest.approx((0.5 + 1.0 + 1.0) / 3, abs=1e-12)

    def test_points_exactly_at_the_largest_threshold_match(self):
        # floor curves exactly 20 rows apart: matched at t=20, not at t=10
        w = GRID.width
        y_c = np.full(w, math.pi / 4)
        a = BoundarySignal(np.zeros(w), y_c, row_to_lat(np.full(w, 400.0), GRID))
        b = BoundarySignal(np.zeros(w), y_c, row_to_lat(np.full(w, 420.0), GRID))
        assert wireframe_f(a, b, GRID, thresholds=(10.0, 20.0), include_verticals=False) == 0.75
        assert wireframe_f(a, b, GRID, include_verticals=False) == pytest.approx(2 / 3, abs=1e-12)

    def test_round_trip_score_high(self):
        pred, truth = l_room_round_trip()
        assert wireframe_f(pred, truth) >= 0.95

    def test_seam_matches_full_augmentation(self):
        # one room seen with its fifth vertex just left and just right of the
        # seam (lon = +-pi lies along -x), so both wireframes straddle it
        def room(y):
            poly = np.array([[-2, -1.5], [3, -1.5], [3, 2], [-2, 2], [-2.6, y]])
            return truth_layout(SyntheticRoom(poly, 3.0, np.zeros(2)), GRID)

        pred, gt = room(-0.15), room(0.15)
        assert min(c.column for c in pred.corners) < 20
        assert max(c.column for c in gt.corners) > GRID.width - 20
        want = full_augmentation_wireframe_f(
            wire_points(pred), wire_points(gt), GRID.width
        )
        assert wireframe_f(pred, gt) == want
        assert want < 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(FIXTURE_FAMILIES),
        st.integers(0, 19),
        st.sampled_from([0.0, 0.002, 0.005, 0.01]),
        st.sampled_from([20.0, 7.5]),
        st.integers(0, 15),
        st.floats(-1.0, 1.0),
        st.booleans(),
    )
    # a ray just beside a turned truth corner once missed both its edges, and
    # one along a turned occlusion edge must still meet the edge
    @example("t_room", 0, 0.005, 20.0, 0, 1e-09, False)
    @example("t_room", 3, 0.0, 20.0, 2, 0.0, False)
    def test_distances_match_tree_oracle(
        self, corpus, tree_chamfer, family, seed, sigma, reach, corner, offset, verticals
    ):
        # turn both layouts so that one truth corner lies within reach of the seam
        _, signal, truth = corpus[(family, seed)]
        pred = postprocess(perturb_signal(signal, sigma, seed=seed) if sigma else signal)
        shift = offset * reach - truth.corners[corner % len(truth.corners)].column
        try:
            pred, truth = rotated(pred, shift), rotated(truth, shift)
        except AssemblyError:
            assume(False)
        wires = []
        for layout in (pred, truth):
            bounds = layout_boundaries(layout)
            pts = corner_image_points(layout) if verticals else None
            wire = _wireframe(_rows(bounds, GRID), pts)
            want = tree_chamfer.points(layout, bounds, GRID, verticals)
            assert np.array_equal(np.stack(_wireframe_points(wire), axis=1), want)
            wires.append((wire, want))
        for (src_wire, src), (target_wire, target) in (wires, wires[::-1]):
            got = _nearest_distances(*_wireframe_points(src_wire), target_wire, GRID.width, reach)
            want = tree_chamfer.nearest(src, target, GRID.width, reach)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("column", [0.0, 1e-7])
    def test_ray_through_a_corner_meets_a_wall(self, corpus, column):
        # each truth turned so that one corner lies on the ray of column 0, or
        # 1e-7 columns beside it; the ray runs along an occlusion edge when
        # the corner is one of a pair
        for family in FIXTURE_FAMILIES:
            for seed in range(3):
                truth = corpus[(family, seed)][2]
                for corner in truth.corners:
                    turned = rotated(truth, column - corner.column)
                    y_c, y_f = layout_boundaries(turned)
                    assert np.isfinite(y_c).all() and np.isfinite(y_f).all()
                    assert evaluate_pair(turned, turned).iou2d == pytest.approx(1.0)

    def test_distances_at_the_edge_of_reach_match_tree_oracle(self, tree_chamfer):
        # (1 - 2**-53, 300) is 20 - 2**-53 columns from (21, 300), which rounds
        # to 20.0, one column past the search window of a point below 1 less
        # one offset; (20, 200 + 2**-22) is sqrt(400 + 2**-44) from (0, 200),
        # which counts under the bound just above 20 and rounds to 20.0
        rows = np.array([np.full(GRID.width, 100.0), np.full(GRID.width, 400.0)])
        rows[0, 0], rows[1, 21] = 200.0, 300.0
        wire = rows, (np.empty(0), np.empty(0), np.empty(0))
        su = np.array([np.nextafter(1.0, 0.0), 20.0])
        sv = np.array([300.0, 200.0 + 2.0**-22])
        got = _nearest_distances(su, sv, wire, GRID.width, 20.0)
        cols = np.arange(GRID.width, dtype=float)
        target = np.vstack([np.stack([cols, r], axis=1) for r in rows])
        want = tree_chamfer.nearest(np.stack([su, sv], axis=1), target, GRID.width, 20.0)
        assert np.array_equal(got, want)
        assert got.tolist() == [20.0, 20.0]

    def test_non_finite_threshold_rejected(self):
        _, truth = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="finite"):
            wireframe_f(truth, truth, thresholds=(5.0, math.inf))

    @pytest.mark.parametrize("thresholds", [(), (math.nan,), (5.0, -1.0), (-math.inf,)])
    def test_bad_thresholds_rejected(self, thresholds):
        _, truth = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="non-empty, finite and >= 0"):
            wireframe_f(truth, truth, thresholds=thresholds)

    def test_zero_threshold_counts_exact_points(self):
        _, truth = render_signal(make_fixture("square", 0))
        assert wireframe_f(truth, truth, thresholds=(0.0,)) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 16).map(lambda k: 2 * k),
        st.integers(0, 4),
        st.integers(0, 4),
        st.one_of(
            st.floats(0.0, 200.0),
            st.integers(0, 200).map(float),
            st.integers(1, 200).map(lambda k: k - 2.0**-50),
            st.integers(0, 200).map(lambda k: k + 2.0**-50),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_distances_on_small_grids_match_tree_oracle(
        self, tree_chamfer, width, n_src, n_target, reach, seed
    ):
        # reach runs past several widths, so every column has copies on both
        # sides; reaches just off an integer test the float bounds, and rows
        # on a half-pixel grid give ties between a column and its copies
        rng = np.random.default_rng(seed)

        def wire(n_runs):
            rows = np.round(rng.uniform(0.0, 4.0 * width, (2, width)) * 2.0) / 2.0
            cols = rng.uniform(0.0, width, n_runs)
            cols[: n_runs // 2] = np.floor(cols[: n_runs // 2])
            first = rng.integers(0, 4 * width, n_runs).astype(float)
            return rows, (cols, first, first + rng.integers(0, 2 * width, n_runs))

        src, target = wire(n_src), wire(n_target)
        su, sv = _wireframe_points(src)
        got = _nearest_distances(su, sv, target, width, reach)
        pts = np.stack(_wireframe_points(target), axis=1)
        want = tree_chamfer.nearest(np.stack([su, sv], axis=1), pts, width, reach)
        if np.nextafter(reach, np.inf) ** 2 == 0.0:
            want[got == 0.0] = 0.0  # a point at distance 0 counts at any reach
        assert np.array_equal(got, want)

    def test_signals_need_verticals_off(self):
        signal, truth = render_signal(make_fixture("square", 0))
        with pytest.raises(InputError, match="verticals need two layouts"):
            wireframe_f(signal, signal, GRID)
        with pytest.raises(InputError, match="verticals need two layouts"):
            wireframe_f(truth, signal, GRID)
        assert wireframe_f(signal, signal, GRID, include_verticals=False) == 1.0

    def test_matches_brute_force_chamfer(self):
        pred, truth = l_room_round_trip(seed=1)
        got = wireframe_f(pred, truth)
        want = brute_wireframe_f(
            wire_points(pred), wire_points(truth), GRID.width
        )
        assert got == pytest.approx(want, abs=1e-12)


def per_pair_plane_f(planes_p, planes_g, iou_threshold=0.5):
    """Reference plane matching, one pair of planes at a time: the IoU matrix
    (-inf across labels) and the F-score of the greedy one-to-one match taken
    in descending IoU order, ties in (pred, truth) order."""

    def interval_iou(ta, ba, tb, bb):
        inter = np.clip(np.minimum(ba, bb) - np.maximum(ta, tb), 0.0, None).sum()
        area_a = np.clip(ba - ta, 0.0, None).sum()
        area_b = np.clip(bb - tb, 0.0, None).sum()
        union = area_a + area_b - inter
        return float(inter / union) if union > 0 else 0.0

    (labels_p, top_p, bot_p), (labels_g, top_g, bot_g) = planes_p, planes_g
    ious = np.full((len(labels_p), len(labels_g)), -np.inf)
    for i in range(len(labels_p)):
        for j in range(len(labels_g)):
            if labels_p[i] == labels_g[j]:
                ious[i, j] = interval_iou(top_p[i], bot_p[i], top_g[j], bot_g[j])
    candidates = [(ious[i, j], i, j) for i, j in zip(*np.nonzero(ious > -np.inf))]
    used_p, used_g = set(), set()
    for iou, i, j in sorted(candidates, key=lambda c: -c[0]):
        if iou > iou_threshold and i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    precision, recall = len(used_p) / len(labels_p), len(used_p) / len(labels_g)
    f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return ious, f


class TestPlaneF:
    def test_identical(self):
        _, truth = render_signal(make_fixture("t_room", 0))
        assert plane_f(truth, truth) == 1.0

    def test_split_wall_twelve_thirteenths(self):
        # same room, but the ground truth annotates one wall as two collinear
        # pieces; only the larger piece clears the 0.5 IoU bar
        cam = np.array([2.0, 2.2])
        poly4 = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        poly5 = np.array([[0, 0], [2.8, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        pred = truth_layout(SyntheticRoom(poly4, 3.2, cam), GRID)
        gt = truth_layout(SyntheticRoom(poly5, 3.2, cam), GRID)
        assert len(gt.corners) == 5
        assert plane_f(pred, gt) == pytest.approx(12 / 13, abs=1e-12)

    def test_extra_predicted_wall_costs_precision(self):
        cam = np.array([2.0, 2.2])
        poly4 = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        poly5 = np.array([[0, 0], [2.8, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        pred = truth_layout(SyntheticRoom(poly5, 3.2, cam), GRID)
        gt = truth_layout(SyntheticRoom(poly4, 3.2, cam), GRID)
        assert plane_f(pred, gt) == pytest.approx(12 / 13, abs=1e-12)
        assert plane_f(pred, gt) < 1.0

    def test_occlusion_edges_make_no_wall(self):
        # an L room truth has 5 corners but only 4 walls: near->far is a seam
        _, truth = render_signal(make_fixture("l_room", 2))
        assert len(truth.corners) == 1 + len(truth.wall_edges())

    def test_round_trip(self):
        pred, truth = l_room_round_trip(seed=2)
        assert plane_f(pred, truth) == 1.0

    def test_iou_at_threshold_stays_unmatched(self, monkeypatch):
        # the match is strict: IoU > 0.5, so a pair at exactly 0.5 scores 0
        _, truth = render_signal(make_fixture("square", 0))
        just_above = np.nextafter(PLANE_IOU_THRESHOLD, 1.0)
        for iou, want in ((PLANE_IOU_THRESHOLD, 0.0), (just_above, 1.0)):
            monkeypatch.setattr(metrics, "_plane_ious", lambda *_, iou=iou: np.array([[iou]]))
            assert plane_f(truth, truth) == want
            assert evaluate_pair(truth, truth).plane_f == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(FIXTURE_FAMILIES),
        st.integers(0, 19),
        st.sampled_from([0.0, 0.002, 0.005, 0.01]),
    )
    def test_matches_per_pair_loop(self, corpus, metric_oracle, family, seed, sigma):
        _, signal, truth = corpus[(family, seed)]
        pred = postprocess(perturb_signal(signal, sigma, seed=seed) if sigma else signal)
        rows = [_rows(layout_boundaries(x), GRID) for x in (pred, truth)]
        labelled = [metric_oracle.planes(x, r, GRID) for x, r in zip((pred, truth), rows)]
        ious, f = per_pair_plane_f(*labelled)
        planes = [_planes(x, r, GRID) for x, r in zip((pred, truth), rows)]
        for (top, bot), (_, top_want, bot_want) in zip(planes, labelled):
            assert np.array_equal(top, top_want) and np.array_equal(bot, bot_want)
        assert np.array_equal(_plane_ious(*planes), ious)
        assert np.array_equal(metric_oracle.plane_ious(*labelled), ious)
        assert plane_f(pred, truth) == f

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([4, 8, 16, 32]),
        st.lists(
            st.one_of(
                st.integers(0, 31).map(float),
                st.floats(0.0, 32.0, exclude_max=True),
                st.sampled_from([1e-17, 2.0**-60, 0.5, 31.999999999999996]),
                st.integers(1, 31).map(lambda k: float(np.nextafter(k, 0.0))),
            ),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12),
        st.integers(0, 2**32 - 1),
    )
    def test_planes_and_ious_match_looped_full_matrix(
        self, metric_oracle, width, columns, edges, seed
    ):
        # arbitrary wall edges over arbitrary corner columns: edges that cross
        # the seam, that start or end exactly on an integer column, that are
        # empty, and whose end plus the width rounds onto an integer
        grid = ImageGrid(width)
        corners = [SimpleNamespace(column=c % width) for c in columns]
        edges = [(i % len(corners), j % len(corners)) for i, j in edges]
        layout = SimpleNamespace(corners=corners, wall_edges=lambda: edges)
        rng = np.random.default_rng(seed)
        # coarse rows: overlaps, ties and zero-area planes are common
        rows = np.sort(rng.integers(0, grid.height, (2, width)).astype(float), axis=0)
        labelled = metric_oracle.planes(layout, rows, grid)
        top, bot = _planes(layout, rows, grid)
        assert np.array_equal(top, labelled[1]) and np.array_equal(bot, labelled[2])
        other = metric_oracle.planes(layout, rows[::-1].copy(), grid)
        for a, b in ((labelled, other), (other, labelled), (labelled, labelled)):
            want = metric_oracle.plane_ious(a, b)
            assert np.array_equal(_plane_ious(a[1:], b[1:]), want)


class TestEvaluatePair:
    def test_matches_standalone_metrics(self):
        cases = [
            l_room_round_trip(),
            *(noisy_round_trip(family, 7) for family in ("square", "hexagon", "l_room", "t_room")),
        ]
        for pred, truth in cases:
            report = evaluate_pair(pred, truth)
            assert report.iou2d == iou_2d(pred, truth)
            assert report.iou3d == iou_3d(pred, truth)
            p_pts = corner_image_points(pred)
            g_pts = corner_image_points(truth)
            assert report.corner_error == corner_error(p_pts, g_pts, GRID)
            assert report.junction_f == junction_f(p_pts, g_pts, GRID)
            assert report.wireframe_f == wireframe_f(pred, truth, GRID)
            assert report.plane_f == plane_f(pred, truth)
            assert report.pixel_error == pixel_error(render_semantic(pred), render_semantic(truth))

    def test_all_fields_in_unit_interval(self):
        pred, truth = l_room_round_trip(seed=3)
        for v in evaluate_pair(pred, truth).as_row():
            assert 0.0 <= v <= 1.0

    def test_unknown_regime_rejected(self):
        pred, truth = l_room_round_trip()
        assert evaluate_pair(pred, truth, regime="non_visible") == evaluate_pair(pred, truth)
        for regime in ("both", "visible"):
            with pytest.raises(InputError, match="visible regime was removed"):
                evaluate_pair(pred, truth, regime=regime)

    @pytest.mark.parametrize(
        "metric", [evaluate_pair, plane_f, wireframe_f, junction_f, corner_error]
    )
    def test_layouts_on_different_grids_rejected(self, metric):
        # corner columns are read on each layout's own grid, so no shared grid exists
        room = make_fixture("l_room", 0)
        _, full = render_signal(room)
        _, half = render_signal(room, ImageGrid(512))
        for pred, gt in ((full, half), (half, full)):
            with pytest.raises(InputError, match="different grids"):
                metric(pred, gt)
        metric(half, half)

    @pytest.mark.parametrize("metric", [wireframe_f, junction_f, corner_error])
    def test_grid_other_than_the_layouts_rejected(self, metric):
        # ``grid`` places bare points; given with layouts it must be theirs
        room = make_fixture("l_room", 0)
        _, full = render_signal(room)
        _, half = render_signal(room, ImageGrid(512))
        for layout, foreign in ((full, ImageGrid(512)), (half, GRID)):
            with pytest.raises(InputError, match="not the inputs' own grid"):
                metric(layout, layout, foreign)
        assert metric(half, half, half.grid) == metric(half, half)

    def test_signal_grid_follows_its_width(self):
        signal, _ = render_signal(make_fixture("square", 0))
        noisy = perturb_signal(signal, 0.005, seed=0)
        assert signal.grid == GRID
        assert wireframe_f(signal, noisy, include_verticals=False) == wireframe_f(
            signal, noisy, GRID, include_verticals=False
        )
        small = BoundarySignal(np.zeros(64), np.full(64, 0.5), np.full(64, -0.5))
        assert small.grid == ImageGrid(64)
        with pytest.raises(InputError, match="not the inputs' own grid"):
            wireframe_f(small, small, GRID, include_verticals=False)
        with pytest.raises(InputError, match="inputs are on different grids"):
            wireframe_f(small, signal, include_verticals=False)

    def test_bare_points_scored_on_the_layouts_grid(self):
        # a column 512 over is the same column on a 512-column grid only
        _, half = render_signal(make_fixture("l_room", 0), ImageGrid(512))
        pts = corner_image_points(half)
        moved = pts + [512.0, 0.0]
        assert junction_f(moved, half) == 1.0
        assert corner_error(moved, half) == 0.0
        assert junction_f(moved, pts) == 0.0  # bare points alone: the 1024-column grid
        with pytest.raises(InputError, match="not the inputs' own grid"):
            junction_f(moved, half, GRID)

    def test_as_row_field_order(self):
        r = MetricReport(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
        assert r.as_row() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]


class TestCornerImagePoints:
    def test_two_points_per_corner(self):
        _, truth = render_signal(make_fixture("square", 4))
        pts = corner_image_points(truth)
        assert pts.shape == (8, 2)
        # ceiling junction above the floor junction in image rows
        assert (pts[0::2, 1] < pts[1::2, 1]).all()
