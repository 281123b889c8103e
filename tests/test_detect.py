import dataclasses
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panolayout import detect
from panolayout.detect import (
    CANDIDATE_DTYPE,
    MODES,
    BoundarySignal,
    DetectConfig,
    DiscontinuitySource,
    candidates_for_mode,
    detect_2d,
    detect_3d,
    ensemble,
    extract_corner_peaks,
    extract_occlusion_pair,
    postprocess,
)
from panolayout.detect import _cluster_columns, _refine_peak_column
from panolayout.errors import (
    AmbiguityError,
    GeometryError,
    InputError,
    ReconstructionError,
)
from panolayout.geometry import CornerKind, VisibleLayout
from panolayout.metrics import iou_2d
from panolayout.synth import corner_bumps, perturb_signal, render_signal

W = 1024


def slope_candidates(cands):
    return cands[np.isin(cands["source"], [S for S in DiscontinuitySource if "SLOPE2D" in S.name])]


def kink_candidates(cands):
    return cands[np.isin(cands["source"], [S for S in DiscontinuitySource if "KINK2D" in S.name])]


def scalar_detect_2d(ys, cfg, boundary):
    """Reference for ``detect_2d``, one column at a time: a row (column, source
    value, strength) for a kink, then one for a slope, in column order. The
    kink strength is span times the second difference of the cyclic box mean,
    written as the difference of the two steps that do not cancel."""
    n, span = len(ys), detect._SMOOTHING_WIDTH
    half = span // 2

    def step(i):
        return ys[(i + 1) % n] - ys[i % n]

    rows = []
    for i in range(n):
        d2 = abs(step(i + span - half - 1) - step(i - half - 1))
        if d2 > cfg.kink_threshold:
            rows.append((i, DiscontinuitySource[f"KINK2D_{boundary.upper()}"], d2))
        dy = abs(step(i))
        if dy > cfg.slope_threshold:
            rows.append((i, DiscontinuitySource[f"SLOPE2D_{boundary.upper()}"], dy))
    return rows


def box_mean_kinks(ys):
    """The kink statistic by its definition: span times the second difference
    of the cyclic box mean over span columns."""
    n, span = len(ys), detect._SMOOTHING_WIDTH
    smooth = [sum(ys[(i + k) % n] for k in range(-(span // 2), span - span // 2)) / span
              for i in range(n)]
    return [span * abs(smooth[(i + 1) % n] - 2 * smooth[i] + smooth[i - 1]) for i in range(n)]


def scalar_detect_3d(ds, cfg, boundary):
    """Reference for ``detect_3d``, one column at a time: (column, source value,
    strength) rows in column order."""
    rows = []
    for i in range(len(ds)):
        a, b = ds[i], ds[(i + 1) % len(ds)]
        ratio = max(a, b) / min(a, b)
        if ratio > cfg.jump_ratio:
            rows.append((i, DiscontinuitySource[f"JUMP3D_{boundary.upper()}"], ratio))
    return rows


class TestBoundarySignal:
    def test_valid(self):
        sig = BoundarySignal(np.zeros(8), np.full(8, 0.5), np.full(8, -0.5))
        assert sig.width == 8

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            BoundarySignal(np.zeros(8), np.full(7, 0.5), np.full(8, -0.5))

    def test_range_violation_names_column(self):
        y_p = np.zeros(8)
        y_p[5] = 1.5
        with pytest.raises(InputError, match="5"):
            BoundarySignal(y_p, np.full(8, 0.5), np.full(8, -0.5))

    def test_boundary_sign_enforced(self):
        with pytest.raises(InputError):
            BoundarySignal(np.zeros(8), np.full(8, -0.5), np.full(8, -0.5))
        with pytest.raises(InputError):
            BoundarySignal(np.zeros(8), np.full(8, 0.5), np.full(8, 0.5))

    def test_arrays_read_only(self):
        sig = BoundarySignal(np.zeros(8), np.full(8, 0.5), np.full(8, -0.5))
        with pytest.raises(ValueError):
            sig.y_p[0] = 1.0

    def test_shifted(self):
        y_p = np.zeros(8)
        y_p[2] = 1.0
        sig = BoundarySignal(y_p, np.full(8, 0.5), np.full(8, -0.5))
        assert sig.shifted(3).y_p[5] == 1.0


class TestExtractCornerPeaks:
    def test_all_zero(self):
        assert extract_corner_peaks(np.zeros(W)) == []

    def test_single_bump(self):
        y = corner_bumps(np.array([100.0]), W) * 0.9
        assert extract_corner_peaks(y) == [100]

    def test_close_peaks_keep_higher(self):
        y = np.zeros(W)
        y[100] = 0.9
        y[108] = 0.7
        assert extract_corner_peaks(y) == [100]

    def test_tie_keeps_lower_column(self):
        y = np.zeros(W)
        y[100] = 0.8
        y[108] = 0.8
        assert extract_corner_peaks(y) == [100]

    def test_below_threshold_dropped(self):
        y = np.zeros(W)
        y[100] = 0.49
        assert extract_corner_peaks(y) == []

    def test_brute_force_agreement(self, rng):
        # independent re-derivation: scan all columns, apply the same rules
        y = np.zeros(W)
        for col in rng.integers(0, W, size=12):
            y = np.maximum(y, corner_bumps(np.array([float(col)]), W) * rng.uniform(0.3, 1.0))
        cfg = DetectConfig()
        got = extract_corner_peaks(y, cfg)
        is_peak = [
            y[i] >= y[(i - 1) % W] and y[i] >= y[(i + 1) % W] and y[i] >= cfg.peak_threshold
            for i in range(W)
        ]
        expect = []
        for i in sorted(range(W), key=lambda i: (-y[i], i)):
            if not is_peak[i]:
                continue
            d = [min(abs(i - k), W - abs(i - k)) for k in expect]
            if all(x >= W // 64 for x in d):
                expect.append(i)
        assert got == sorted(expect)

    def test_monotone_rescale_invariance(self):
        y = np.zeros(W)
        y[100] = 0.9
        y[300] = 0.6
        y[500] = 0.3
        rescaled = 0.5 + (y - 0.5) * 0.8  # monotone, fixes the 0.5 threshold
        assert extract_corner_peaks(y) == extract_corner_peaks(rescaled)


class TestDetectConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("peak_threshold", 0.0),
            ("peak_threshold", math.nan),
            ("slope_threshold", "0.015"),
            ("kink_threshold", -1.0),
            ("jump_ratio", 1.0),
            ("jump_ratio", "big"),
            ("peak_threshold", True),
            ("jump_ratio", True),
        ],
    )
    def test_bad_value_rejected_by_name(self, name, value):
        with pytest.raises(InputError, match=name):
            DetectConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = DetectConfig(jump_ratio=np.int64(2), slope_threshold=np.float32(0.5))
        assert (cfg.jump_ratio, cfg.slope_threshold) == (2, 0.5)

    @pytest.mark.parametrize("name, value", [("peak_threshold", 0.0), ("jump_ratio", 1.0)])
    def test_frozen(self, name, value):
        # an assignment would bypass the checks above and fail inside postprocess
        cfg = DetectConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)


@pytest.mark.parametrize("detect", [detect_2d, detect_3d])
def test_unknown_boundary_rejected(detect):
    with pytest.raises(InputError, match="boundary must be 'floor' or 'ceiling', got 'wall'"):
        detect(np.full(W, 1.6), boundary="wall")


class TestDetect2d:
    def test_constant(self):
        assert len(detect_2d(np.full(W, -0.5))) == 0

    def test_step_slope_candidate(self):
        k = 300
        y = np.where(np.arange(W) <= k, -0.5, -0.6)
        cands = slope_candidates(detect_2d(y))
        assert cands["column"].tolist() == [k, W - 1]
        assert cands["strength"][0] == pytest.approx(0.1, abs=1e-12)
        assert cands["source"][0] == DiscontinuitySource.SLOPE2D_FLOOR.value

    def test_ceiling_source_tag(self):
        k = 300
        y = np.where(np.arange(W) <= k, 0.5, 0.6)
        cands = slope_candidates(detect_2d(y, boundary="ceiling"))
        assert cands["source"][0] == DiscontinuitySource.SLOPE2D_CEILING.value

    def test_kink_candidate_near_corner(self):
        # narrow tent: slope flips +0.01 -> -0.01 per column at the apex k
        k = 512
        i = np.arange(W)
        y = -0.8 + 0.01 * np.maximum(0, 100 - np.abs(i - k))
        cands = kink_candidates(detect_2d(y))
        assert (np.abs(cands["column"] - k) <= 2).any()

    def test_smooth_ramp_no_slope_candidates(self):
        # 0.0005 rad/column stays under the 0.015 threshold
        i = np.arange(W)
        y = -0.9 + 0.0005 * np.minimum(i, W - i)
        assert len(slope_candidates(detect_2d(y))) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite boundary value at column 1"):
            detect_2d([-0.5, bad, -0.5, -0.4])

    @pytest.mark.parametrize("shape", [(8, 8), ()])
    def test_not_1d_rejected(self, shape):
        message = f"boundary curve must be 1D, got shape {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            detect_2d(np.full(shape, -0.5))
        # the peak finder's input passes the same check
        message = f"corner probability must be 1D, got shape {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            extract_corner_peaks(np.full(shape, 0.9))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1.5, -0.01), min_size=3, max_size=96),
        st.floats(0.001, 0.2),
        st.floats(0.001, 0.2),
    )
    def test_matches_scalar_reference(self, ys, slope, kink):
        # noise fires both tests at many columns, so kink/slope ties are common
        cfg = DetectConfig(slope_threshold=slope, kink_threshold=kink)
        for boundary in ("floor", "ceiling"):
            got = detect_2d(np.array(ys), cfg, boundary).tolist()
            assert got == scalar_detect_2d(ys, cfg, boundary)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.5, -0.01), min_size=1, max_size=40))
    def test_kink_matches_box_mean(self, ys):
        # the step identity equals the box-mean definition up to rounding;
        # with a negligible threshold every column whose statistic is not
        # zero fires
        cands = kink_candidates(detect_2d(np.array(ys), DetectConfig(kink_threshold=1e-300)))
        got = dict(zip(cands["column"].tolist(), cands["strength"].tolist()))
        for i, want in enumerate(box_mean_kinks(ys)):
            assert got.get(i, 0.0) == pytest.approx(want, abs=1e-13)


class TestDetect3d:
    def test_constant(self):
        assert len(detect_3d(np.full(W, 1.6))) == 0

    def test_step_candidate(self):
        k = 300
        d = np.where(np.arange(W) <= k, 1.6, 3.2)
        cands = detect_3d(d)
        assert cands["column"].tolist() == [k, W - 1]
        assert cands["strength"][0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("boundary", ["floor", "ceiling"])
    def test_source_tag(self, boundary):
        d = np.where(np.arange(W) <= 300, 1.6, 3.2)
        source = DiscontinuitySource[f"JUMP3D_{boundary.upper()}"]
        assert set(detect_3d(d, boundary=boundary)["source"]) == {source}

    @settings(max_examples=200, deadline=None)
    @given(
        # repeated values give flat runs between the jumps
        st.lists(st.sampled_from([0.5, 1.6, 1.7, 3.2]) | st.floats(0.1, 10.0), min_size=2),
        st.floats(1.001, 3.0),
        st.sampled_from(["floor", "ceiling"]),
    )
    def test_matches_scalar_reference(self, ds, ratio, boundary):
        cfg = DetectConfig(jump_ratio=ratio)
        got = detect_3d(np.array(ds), cfg, boundary).tolist()
        assert got == scalar_detect_3d(ds, cfg, boundary)

    def test_smooth_ramp(self):
        # 1.6 -> 3.2 over 200 columns: per-step ratio about 1.0035 < 1.15
        d = np.full(W, 1.6)
        d[:200] = np.linspace(1.6, 3.2, 200)
        d[200:600] = 3.2
        d[600:800] = np.linspace(3.2, 1.6, 200)
        assert len(detect_3d(d)) == 0

    def test_nonpositive_rejected(self):
        d = np.full(W, 1.6)
        d[7] = 0.0
        with pytest.raises(InputError, match="7"):
            detect_3d(d)

    @pytest.mark.parametrize("shape", [(8, 8), ()])
    def test_not_1d_rejected(self, shape):
        message = f"distance profile must be 1D, got shape {shape}"
        with pytest.raises(InputError, match=re.escape(message)):
            detect_3d(np.full(shape, 0.5))

    def test_scale_invariance_dyadic_exact(self):
        d = np.full(W, 1.6)
        d[100:400] = 3.1
        d[700:900] = 2.2
        base = detect_3d(d)
        for s in (0.5, 2.0, 1024.0):
            scaled = detect_3d(d * s)
            assert scaled.tolist() == base.tolist()

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_scale_invariance_columns(self, s):
        d = np.full(256, 1.6)
        d[100:180] = 3.1
        base = detect_3d(d)
        scaled = detect_3d(d * s)
        assert scaled["column"].tolist() == base["column"].tolist()
        assert scaled["strength"] == pytest.approx(base["strength"], rel=1e-12)


def test_candidate_record_format():
    # source codes follow the names' order, so sorting records by (column,
    # source) orders them as it did when the source was a string
    assert sorted(DiscontinuitySource, key=int) == sorted(
        DiscontinuitySource, key=lambda s: s.name.lower()
    )
    assert CANDIDATE_DTYPE["source"] == np.uint8
    assert CANDIDATE_DTYPE.itemsize <= 24


def _cands(cols, strengths=1.0):
    cands = np.empty(len(cols), CANDIDATE_DTYPE)
    source = DiscontinuitySource.SLOPE2D_FLOOR
    cands["column"], cands["source"], cands["strength"] = cols, source, strengths
    return cands


class TestEnsemble:
    def test_two_close_candidates_merge(self):
        cands = _cands([100, 102])
        assert ensemble(cands, W) == [pytest.approx(101.0)]

    def test_weighted_mean(self):
        cands = _cands([100, 102], [1.0, 3.0])
        assert ensemble(cands, W) == [pytest.approx(101.5)]

    def test_single_candidate(self):
        assert ensemble(_cands([77]), W) == [pytest.approx(77.0)]

    def test_cyclic_wrap_cluster(self):
        got = ensemble(_cands([1022, 0]), W)
        assert got == [pytest.approx(1023.0)]

    def test_wrap_cluster_mean_position(self):
        got = ensemble(_cands([1020, 0]), W)
        assert got == [pytest.approx(1022.0)]

    def test_distant_candidates_stay_separate(self):
        got = ensemble(_cands([100, 200]), W)
        assert got == [pytest.approx(100.0), pytest.approx(200.0)]

    def test_snap_to_corner_peak(self):
        got = ensemble(_cands([100, 102]), W, corner_peaks=(99,))
        assert got == [pytest.approx(99.0)]

    def test_multi_cluster_split(self):
        cands = _cands([0, 1, 10, 11, 20, 21])
        got = ensemble(cands, W)
        assert got == [pytest.approx(0.5), pytest.approx(10.5), pytest.approx(20.5)]

    def test_seam_cluster_snaps_across_seam(self):
        # the chain 1022, 0 has mean 1023, two columns from the peak at 1
        assert ensemble(_cands([1022, 0]), W, corner_peaks=(1, 500)) == [1.0]

    def test_two_clusters_snap_onto_one_peak(self):
        # 100 and 108 are separate clusters, both 4 columns from the peak at 104
        assert ensemble(_cands([100, 108]), W, corner_peaks=(104,)) == [104.0]

    @pytest.mark.parametrize("peaks, want", [((97, 103), 97.0), ((103, 97), 103.0)])
    def test_equidistant_peaks_first_in_order_wins(self, peaks, want):
        assert ensemble(_cands([100]), W, corner_peaks=peaks) == [want]

    def test_peaks_closer_than_two_radii(self, scalar_snap):
        # peaks 3 columns apart, the minimum separation at width 192: the
        # cluster at 101.5 is equidistant from 100 and 103, and the clusters
        # at 107 and 114 both reach the peak at 110
        w = 192
        y_p = np.zeros(w)
        y_p[[100, 103, 110]] = [0.9, 0.8, 0.7]
        peaks = extract_corner_peaks(y_p)
        assert peaks == [100, 103, 110]
        cands = _cands([101, 102, 107, 114, 120])
        got = ensemble(cands, w, peaks)
        assert got == [100.0, 110.0, 120.0]
        clusters = [101.5, 107.0, 114.0, 120.0]
        assert got == scalar_snap(clusters, peaks, w, detect._CLUSTER_RADIUS)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scalar_reference(self, scalar_snap, data):
        # small widths put many clusters across the seam and next to peaks
        width = data.draw(st.integers(8, 200))
        radius = detect._CLUSTER_RADIUS
        cols = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=30))
        n = len(cols)
        strengths = data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
        peaks = data.draw(st.lists(st.integers(0, width - 1), max_size=8, unique=True))
        cands = _cands(cols, strengths)
        clusters = _cluster_columns(np.array(cols), np.array(strengths), radius, width)
        assert ensemble(cands, width, peaks) == scalar_snap(clusters, peaks, width, radius)

    def test_rejects_bad_width(self):
        with pytest.raises(InputError):
            ensemble(_cands([5]), 0)
        with pytest.raises(InputError):
            ensemble(_cands([70]), 64)

    @pytest.mark.parametrize(
        "width", [8.5, 8.0, True, np.float64(8)], ids=["8.5", "8.0", "True", "float64"]
    )
    def test_rejects_width_that_is_not_an_integer(self, width):
        message = f"width must be an integer >= 1, got {width!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            ensemble(_cands([4]), width)

    def test_numpy_integer_width_accepted(self):
        assert ensemble(_cands([4]), np.int64(8)) == [4.0]

    @pytest.mark.parametrize(
        "cands",
        [
            [(5, "slope2d_floor", 1.0)],
            np.array([5, 9]),
            np.array([(5, 1.0)], dtype=[("column", np.int64), ("strength", float)]),
            _cands([5, 9]).reshape(2, 1),
        ],
        ids=["list", "int_array", "other_dtype", "2d"],
    )
    def test_rejects_non_candidate_array(self, cands):
        with pytest.raises(InputError, match="candidates must be"):
            ensemble(cands, 64)

    @pytest.mark.parametrize("col", [-1, 64])
    def test_rejects_column_outside_width(self, col):
        with pytest.raises(InputError, match=f"candidate column {col} outside"):
            ensemble(_cands([5, col]), 64)

    # 1e308 is finite, but 9 * 1e308, its weighted column, overflows to inf
    @pytest.mark.parametrize("strength", [0.0, -1.0, math.nan, math.inf, 1e308])
    def test_rejects_nonpositive_strength(self, strength):
        with pytest.raises(InputError, match="strength must be > 0") as err:
            ensemble(_cands([5, 9], [1.0, strength]), 64)
        assert str(err.value).endswith(f"got {strength}")

    def test_accepts_strengths_up_to_the_bound(self):
        most = sys.float_info.max / (4 * 64 * 2)
        assert ensemble(_cands([5, 9], [most, most]), 64) == [pytest.approx(7.0)]

    @pytest.mark.parametrize("peak", [70, -60, math.nan, math.inf])
    def test_rejects_peak_outside_width(self, peak):
        with pytest.raises(InputError, match=f"corner peak {float(peak)} outside"):
            ensemble(_cands([5]), 64, corner_peaks=(peak,))

    @pytest.mark.parametrize("peaks", [5, [[5, 9]]])
    def test_rejects_corner_peaks_not_1d(self, peaks):
        with pytest.raises(InputError, match="corner_peaks must be 1D"):
            ensemble(_cands([5]), 64, corner_peaks=peaks)


class TestExtractOcclusionPair:
    def test_oracle_l_room(self, l_room_case):
        _, sig, truth = l_room_case
        (i, j) = truth.occlusion_pairs()[0]
        # the pair comes in boundary order, and l_room pairs are near-first
        near, far = extract_occlusion_pair(sig, truth.corners[i].column, DetectConfig())
        assert near.kind is CornerKind.OCCLUSION_NEAR
        assert far.kind is CornerKind.OCCLUSION_FAR
        # near has the larger floor-latitude magnitude (closer wall)
        assert abs(near.floor_lat) > abs(far.floor_lat)

    @pytest.mark.parametrize("family", ["l_room", "t_room"])
    def test_boundary_order_matches_truth(self, corpus, family):
        far_first = 0
        for seed in range(20):
            _, sig, truth = corpus[(family, seed)]
            for i, j in truth.occlusion_pairs():
                want = [truth.corners[i].kind, truth.corners[j].kind]
                got = extract_occlusion_pair(sig, truth.corners[i].column, DetectConfig())
                assert [c.kind for c in got] == want, (seed, i)
                assert got[0].column == got[1].column
                far_first += want[0] is CornerKind.OCCLUSION_FAR
        # every l_room pair is near-first; each t_room has one far-first pair
        assert far_first == (20 if family == "t_room" else 0)

    def test_seam_jump_left_corner_from_last_column(self):
        y_f = np.where(np.arange(W) < W // 2, -0.6, -0.3)
        y_c = np.where(np.arange(W) < W // 2, 0.4, 0.2)
        sig = BoundarySignal(np.zeros(W), y_c, y_f)
        left, right = extract_occlusion_pair(sig, W - 1, DetectConfig())
        assert left.column == right.column == W - 0.5
        assert (left.kind, left.ceil_lat, left.floor_lat) == (CornerKind.OCCLUSION_FAR, 0.2, -0.3)
        assert (right.kind, right.ceil_lat, right.floor_lat) == (CornerKind.OCCLUSION_NEAR, 0.4, -0.6)

    def test_oblique_wall_endpoints_within_2cm(self, corpus):
        from panolayout.geometry import floor_distance
        from panolayout.panorama import col_to_lon

        def floor_point(column, floor_lat, grid):
            lon = col_to_lon(column % grid.width, grid)
            return floor_distance(floor_lat, 1.6) * np.array([math.cos(lon), math.sin(lon)])

        checked = 0
        for seed in range(5):
            _, sig, truth = corpus[("l_room", seed)]
            grid = truth.grid
            for i, j in truth.occlusion_pairs():
                pair = extract_occlusion_pair(sig, truth.corners[i].column, DetectConfig())
                for got, want in zip(pair, (truth.corners[i], truth.corners[j])):
                    p = floor_point(got.column, got.floor_lat, grid)
                    q = floor_point(want.column, want.floor_lat, grid)
                    assert math.hypot(p[0] - q[0], p[1] - q[1]) < 0.02
                checked += 1
        assert checked == 5

    def test_flat_window_ambiguous(self):
        sig = BoundarySignal(np.zeros(W), np.full(W, 0.5), np.full(W, -0.5))
        with pytest.raises(AmbiguityError):
            extract_occlusion_pair(sig, 100, DetectConfig())

    def test_jump_at_threshold_is_a_pair_one_ulp_below_is_not(self):
        y_f = np.where(np.arange(W) < 100, -0.5, -0.25)  # one jump of exactly 0.25
        sig = BoundarySignal(np.zeros(W), np.full(W, 0.5), y_f)
        left, right = extract_occlusion_pair(sig, 100, DetectConfig(slope_threshold=0.25))
        assert left.column == right.column == 99.5
        above = DetectConfig(slope_threshold=math.nextafter(0.25, 1.0))
        with pytest.raises(AmbiguityError, match="within 5 columns of column 100"):
            extract_occlusion_pair(sig, 100, above)

    def test_tied_jumps_first_in_window_wins(self):
        # two jumps of 0.25 straddle the seam; the window runs W-5 .. 5
        y_f = np.full(W, -0.5)
        y_f[[-1, 0]] = -0.25
        sig = BoundarySignal(np.zeros(W), np.full(W, 0.5), y_f)
        for column in (0, W - 0.5):  # W - 0.5 rounds to W, that is column 0
            left, right = extract_occlusion_pair(sig, column)
            assert left.column == right.column == W - 1.5

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pair_pass_matches_per_column_loop(self, pair_oracle, data):
        w = data.draw(st.integers(2, 24))
        coarse = st.sampled_from([-1.0, -0.75, -0.5, -0.25])  # tied jumps
        levels = data.draw(
            st.sampled_from(
                [
                    coarse | st.floats(-1.5, -0.01),  # random steps
                    coarse,
                    # one-ulp jumps, under the 1e-12 floor of the threshold
                    st.sampled_from([-0.5, math.nextafter(-0.5, 0.0)]),
                ]
            )
        )
        y_f = np.array(data.draw(st.lists(levels, min_size=w, max_size=w)))
        y_c = np.array(data.draw(st.lists(st.floats(0.01, 1.5), min_size=w, max_size=w)))
        if w < 4 or w % 2:  # no 2:1 grid has this width
            with pytest.raises(InputError, match=f"signal width {w} "):
                BoundarySignal(np.zeros(w), y_c, y_f)
            return
        sig = BoundarySignal(np.zeros(w), y_c, y_f)
        # a threshold equal to one of the signal's jumps, or one ulp above it
        jumps = np.abs(np.diff(y_f, append=y_f[0]))
        at_jump = st.sampled_from(sorted(set(jumps[jumps > 0].tolist())) or [0.25])
        ulp_above = at_jump.map(lambda j: math.nextafter(j, 1.0))
        thr = data.draw(st.floats(1e-3, 0.5) | at_jump | ulp_above)
        # on widths below 11 the window wraps onto itself
        cfg = DetectConfig(slope_threshold=thr)
        near_seam = st.floats(w - 0.5, w, exclude_max=True) | st.just(w - 0.5)
        halves = st.integers(0, w - 1).map(lambda c: c + 0.5)  # round half to even
        column = st.floats(0, w, exclude_max=True) | near_seam | halves
        cols = data.draw(st.lists(column, max_size=8))
        want = pair_oracle.pairs(sig, cols, cfg)
        assert detect._occlusion_pairs(sig, cols, cfg) == want
        for col, pair in zip(cols, want):
            if pair is not None:
                assert extract_occlusion_pair(sig, col, cfg) == pair
                continue
            with pytest.raises(AmbiguityError) as expected:
                pair_oracle.pair(sig, col, cfg)
            with pytest.raises(AmbiguityError) as got:
                extract_occlusion_pair(sig, col, cfg)
            assert str(got.value) == str(expected.value)


class TestPostprocess:
    @pytest.mark.parametrize("mode", MODES)
    def test_square_all_modes(self, square_case, mode):
        _, sig, truth = square_case
        layout = postprocess(sig, mode=mode)
        assert len(layout.corners) == 4
        assert layout.occlusion_pairs() == []
        assert iou_2d(layout, truth) > 0.999

    def test_l_room_ensemble_has_pair(self, l_room_case):
        _, sig, truth = l_room_case
        layout = postprocess(sig)
        assert len(layout.corners) == len(truth.corners)
        assert len(layout.occlusion_pairs()) == 1

    def test_pentagon_2d_only(self, corpus):
        _, sig, truth = corpus[("pentagon", 0)]
        layout = postprocess(sig, mode="2d_only")
        assert len(layout.corners) == 5
        assert layout.occlusion_pairs() == []

    def test_unknown_mode(self, square_case):
        _, sig, _ = square_case
        with pytest.raises(InputError):
            postprocess(sig, mode="both")

    def test_odd_width_rejected_before_detection(self, square_case):
        # 1023 columns have no 2:1 grid; the signal, not assemble_layout, says so
        _, sig, _ = square_case
        with pytest.raises(InputError, match="signal width 1023 "):
            postprocess(BoundarySignal(sig.y_p[:1023], sig.y_c[:1023], sig.y_f[:1023]))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("boundary", ["y_c", "y_f"])
    def test_boundary_at_the_horizon(self, square_case, boundary, mode):
        # a valid latitude whose wall distance overflows to infinity stops
        # the plan-space source with a GeometryError naming its column
        _, sig, _ = square_case
        curves = {"y_c": sig.y_c.copy(), "y_f": sig.y_f.copy()}
        curves[boundary][100] = 1e-320 if boundary == "y_c" else -1e-320
        sig = BoundarySignal(sig.y_p, curves["y_c"], curves["y_f"])
        if mode == "2d_only":
            assert isinstance(postprocess(sig, mode=mode), VisibleLayout)
            return
        with pytest.raises(GeometryError, match="at column 100 is too close to the horizon"):
            postprocess(sig, mode=mode)

    @pytest.mark.parametrize("sigma", [0.003, 0.005, 0.01])
    def test_noisy_corpus_gives_layout_or_reconstruction_error(self, corpus, sigma):
        # no AssemblyError: the pipeline's own pairs always assemble
        for (family, seed), (_, sig, _) in corpus.items():
            noisy = perturb_signal(sig, sigma, seed=seed)
            try:
                layout = postprocess(noisy)
            except ReconstructionError:
                continue
            assert isinstance(layout, VisibleLayout), (family, seed)

    def test_second_column_on_one_jump_adds_no_pair_and_claims_no_peak(
        self, l_room_case, monkeypatch
    ):
        _, sig, _ = l_room_case
        cfg = DetectConfig()
        first = postprocess(sig, cfg)
        ((i, _),) = first.occlusion_pairs()
        jump_col = first.corners[i].column
        # a corner peak 8.5 columns past the jump, out of the pair's reach;
        # at 1.0 it wins over the jump's own peak, 8 columns and so less than
        # the minimum separation away
        y_p = sig.y_p.copy()
        y_p[int(jump_col + 8.5)] = 1.0
        sig = BoundarySignal(y_p, sig.y_c, sig.y_f)
        base = postprocess(sig, cfg)
        assert len(base.corners) == len(first.corners) + 1
        # a second confirmed column 4 short of that peak finds the same jump
        extra = jump_col + 4.5
        assert extract_occlusion_pair(sig, extra, cfg)[0].column == jump_col
        real_ensemble = detect.ensemble
        monkeypatch.setattr(detect, "ensemble", lambda *a: sorted(real_ensemble(*a) + [extra]))
        layout = postprocess(sig, cfg)
        assert layout.corners == base.corners
        assert len(layout.occlusion_pairs()) == 1

    def test_column_without_floor_jump_adds_nothing_and_claims_no_peak(
        self, square_case, monkeypatch
    ):
        _, sig, _ = square_case
        base = postprocess(sig)
        # a confirmed column one past a corner, where the floor boundary is continuous
        extra = float(base.corners[0].column) + 1.0
        with pytest.raises(AmbiguityError):
            extract_occlusion_pair(sig, extra)
        real_ensemble = detect.ensemble
        monkeypatch.setattr(detect, "ensemble", lambda *a: sorted(real_ensemble(*a) + [extra]))
        assert postprocess(sig).corners == base.corners

    def test_too_few_corners(self):
        sig = BoundarySignal(np.zeros(W), np.full(W, 0.5), np.full(W, -0.5))
        with pytest.raises(ReconstructionError):
            postprocess(sig)

    @pytest.mark.parametrize("mode", MODES)
    def test_corners_within_half_a_turn(self, square_case, mode):
        # corner peaks at 100, 200 and 300 only: the corners leave 824 of 1024
        # columns empty, so they cannot surround the camera
        _, sig, _ = square_case
        peaks = BoundarySignal(corner_bumps([100, 200, 300], W), sig.y_c, sig.y_f)
        with pytest.raises(ReconstructionError, match="half a turn"):
            postprocess(peaks, mode=mode)

    def test_deterministic(self, t_room_case):
        _, sig, _ = t_room_case
        a = postprocess(sig)
        b = postprocess(sig)
        assert [(c.column, c.ceil_lat, c.floor_lat, c.kind) for c in a.corners] == [
            (c.column, c.ceil_lat, c.floor_lat, c.kind) for c in b.corners
        ]

    def test_ensemble_is_union_of_modes(self, t_room_case):
        _, sig, _ = t_room_case
        cfg = DetectConfig()
        both = candidates_for_mode(sig, cfg, "ensemble")
        only2d = candidates_for_mode(sig, cfg, "2d_only")
        only3d = candidates_for_mode(sig, cfg, "3d_only")
        assert both.tolist() == np.concatenate([only2d, only3d]).tolist()
        # "kink2d_floor" -> "2d_floor": the detector and boundary of each source
        names = [DiscontinuitySource(s).name.lower() for s in both["source"].tolist()]
        kinds = [f"{d[-2:]}_{b}" for d, b in (name.split("_") for name in names)]
        blocks = [kind for kind, _ in itertools.groupby(kinds)]
        assert blocks == ["2d_ceiling", "2d_floor", "3d_floor", "3d_ceiling"]
        peaks = tuple(extract_corner_peaks(sig.y_p, cfg))
        assert ensemble(both, sig.width, peaks) == ensemble(
            np.concatenate([only2d, only3d]), sig.width, peaks
        )

class TestRefinePeakColumn:
    def test_peak_at_column_zero_leaning_left_stays_in_range(self):
        # the left neighbour is one ulp higher, so the sub-pixel offset is a
        # few 1e-17 below 0; folding it with plain % gives the width itself
        y_p = np.zeros(W)
        y_p[[-2, -1, 0, 1, 2]] = [0.1, math.nextafter(0.5, 1.0), 1.0, 0.5, 0.1]
        col = _refine_peak_column(y_p, 0)
        assert 0 <= col < W
        assert col == 0.0

    def test_interior_peak_unchanged(self):
        y_p = corner_bumps([100.25], W)
        assert _refine_peak_column(y_p, 100) == pytest.approx(100.25, abs=1e-9)

    def test_every_fixture_peak_matches_numpy_form(self, corpus, refine_oracle):
        for _, signal, _ in corpus.values():
            y_p = signal.y_p
            for p in extract_corner_peaks(y_p):
                assert _refine_peak_column(y_p, p).hex() == refine_oracle(y_p, p).hex()

    # windows whose peak column moves in the last bit when the logs are
    # taken with math.log instead of np.log (numpy 2.4, x86-64)
    @pytest.mark.parametrize(
        "window", [[0.626, 0.699, 0.662], [0.316, 0.691, 0.627], [0.662, 0.89, 0.075]]
    )
    def test_log_rounding_matches_numpy_form(self, refine_oracle, window):
        y_p = np.array(window)
        assert _refine_peak_column(y_p, 1).hex() == refine_oracle(y_p, 1).hex()

    @settings(max_examples=300)
    @given(st.data())
    def test_drawn_windows_match_numpy_form(self, refine_oracle, data):
        # repeated values make flat windows, and 0 and below a nonpositive neighbour
        value = st.sampled_from([0.0, -0.0, -0.25, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0)
        y_p = np.array(data.draw(st.lists(value, min_size=1, max_size=8)))
        p = data.draw(st.integers(0, len(y_p) - 1))
        assert _refine_peak_column(y_p, p).hex() == refine_oracle(y_p, p).hex()


class TestClusterColumns:
    def test_chain_across_seam_mean_stays_in_range(self):
        # the chain unwraps to [1023, 1024]; its weighted mean rounds to 1024.0
        means = _cluster_columns(np.array([0, 1023]), np.array([1.0, 1e-300]), 3, W)
        assert means == [0.0]

    @given(st.data())
    def test_means_equal_per_chain_average(self, cluster_oracle, data):
        # small widths and a radius up to 6 chain many candidates, often
        # across the seam; the whole-circle case is drawn on its own below
        width = data.draw(st.integers(8, 200))
        radius = data.draw(st.integers(1, 6))
        near_seam = st.integers(0, radius) | st.integers(width - 1 - radius, width - 1)
        cols = data.draw(st.lists(st.integers(0, width - 1) | near_seam, max_size=40))
        strengths = data.draw(
            st.lists(st.floats(1e-6, 1e6), min_size=len(cols), max_size=len(cols))
        )
        args = (np.array(cols, dtype=np.int64), np.array(strengths), radius, width)
        assert _cluster_columns(*args) == cluster_oracle(*args)

    @pytest.mark.parametrize("length", [7, 8, 9])
    @given(data=st.data())
    def test_chains_either_side_of_the_pairwise_switch(self, cluster_oracle, length, data):
        # numpy's .sum() adds fewer than 8 values left to right and 8 or more
        # pairwise; chains of 7, 8 and 9 candidates, one of them possibly
        # across the seam, must give the per-chain average bit for bit
        shift = data.draw(st.integers(0, W - 1))
        cols = []
        for base in range(0, data.draw(st.integers(1, 4)) * 200, 200):
            steps = data.draw(st.lists(st.integers(0, 4), min_size=length - 1, max_size=length - 1))
            cols += [(shift + base + s) % W for s in itertools.accumulate([0] + steps)]
        strengths = data.draw(
            st.lists(st.floats(1e-6, 1e6), min_size=len(cols), max_size=len(cols))
        )
        args = (np.array(cols, dtype=np.int64), np.array(strengths), 4, W)
        assert _cluster_columns(*args) == cluster_oracle(*args)

    @given(st.data())
    def test_chain_around_the_whole_circle(self, cluster_oracle, data):
        width = data.draw(st.integers(8, 200))
        radius = data.draw(st.integers(1, 6))
        step = data.draw(st.integers(1, radius))
        shift = data.draw(st.integers(0, width - 1))
        # no gap, the seam's included, is wider than the step
        cols = [(c + shift) % width for c in range(0, width, step)]
        cols = data.draw(st.permutations(cols))
        strengths = data.draw(
            st.lists(st.floats(1e-6, 1e6), min_size=len(cols), max_size=len(cols))
        )
        args = (np.array(cols, dtype=np.int64), np.array(strengths), radius, width)
        assert len(_cluster_columns(*args)) == 1
        assert _cluster_columns(*args) == cluster_oracle(*args)


class TestRollFreeNeighbours:
    """Cyclic neighbours taken with slices equal the ``np.roll`` forms they
    replace, down to curves of one and two columns."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 1.0), min_size=1, max_size=12)
    )
    def test_corner_peaks(self, ys):
        y = np.array(ys)
        want = (y >= np.roll(y, 1)) & (y >= np.roll(y, -1)) & (y >= 0.5)
        # below width 128 the minimum separation is one column, which
        # suppresses no peak
        assert extract_corner_peaks(y) == np.flatnonzero(want).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-0.5, -0.25]) | st.floats(-1.5, -0.01), min_size=1, max_size=12),
        st.floats(1e-3, 0.2),
        st.floats(1e-3, 0.2),
    )
    def test_detect_2d(self, ys, slope, kink):
        y, span = np.array(ys), detect._SMOOTHING_WIDTH
        step = np.roll(y, -1) - y
        dy = np.abs(step)
        d2 = np.abs(np.roll(step, -(span - span // 2 - 1)) - np.roll(step, span // 2 + 1))
        kink_src, slope_src = DiscontinuitySource.KINK2D_FLOOR, DiscontinuitySource.SLOPE2D_FLOOR
        rows = [(i, kink_src, d2[i]) for i in np.flatnonzero(d2 > kink).tolist()]
        rows += [(i, slope_src, dy[i]) for i in np.flatnonzero(dy > slope).tolist()]
        cfg = DetectConfig(slope_threshold=slope, kink_threshold=kink)
        assert detect_2d(y, cfg).tolist() == sorted(rows, key=lambda r: r[:2])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([1.6, 3.2]) | st.floats(0.1, 10.0), min_size=1, max_size=12),
        st.floats(1.001, 3.0),
    )
    def test_detect_3d(self, ds, jump_ratio):
        d = np.array(ds)
        ratio = np.maximum(d, np.roll(d, -1)) / np.minimum(d, np.roll(d, -1))
        cols = np.flatnonzero(ratio > jump_ratio).tolist()
        rows = [(i, DiscontinuitySource.JUMP3D_FLOOR, ratio[i]) for i in cols]
        assert detect_3d(d, DetectConfig(jump_ratio=jump_ratio)).tolist() == rows

    @given(st.data())
    def test_cluster_columns(self, cluster_oracle, data):
        # the chain rotation on circles of 1-12 columns, against the per-chain
        # reference that rotates nothing
        width = data.draw(st.integers(1, 12))
        cols = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=12))
        strengths = data.draw(
            st.lists(st.floats(1e-6, 1e6), min_size=len(cols), max_size=len(cols))
        )
        radius = data.draw(st.integers(1, 3))
        args = (np.array(cols, dtype=np.int64), np.array(strengths), radius, width)
        assert _cluster_columns(*args) == cluster_oracle(*args)


def test_rotation_equivariance(t_room_case):
    _, sig, _ = t_room_case
    cfg = DetectConfig()
    base = postprocess(sig)
    base_cols = np.array([c.column for c in base.corners])
    rng = np.random.default_rng(99)
    for shift in rng.integers(1, sig.width, size=25):
        rolled = postprocess(sig.shifted(int(shift)))
        cols = np.sort(np.array([c.column for c in rolled.corners]))
        want = np.sort((base_cols + shift) % sig.width)
        assert np.allclose(cols, want, atol=1e-6)
