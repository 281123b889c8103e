"""Layout evaluation: area/volume IoU, corner and pixel error, F-scores.

Polygon IoU is exact: the plane is cut into horizontal slabs at every vertex
height of both polygons and every height where their edges cross, and inside
a slab each cross-section length is linear in y, so the midpoint rule
integrates it exactly. Non-convex polygons with occlusion notches need no
special case.

Corner-level scores work in pixel space with cyclic column distances, so
every metric here is invariant under rotating both panoramas by the same
number of columns. :func:`evaluate_pair` renders each layout's boundary
curves once and shares them between the pixel, wireframe and plane scores.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from . import synth
from .errors import InputError, MetricError
from .geometry import VisibleLayout, polygon_signed_area
from .panorama import ImageGrid, lat_to_row, row_to_lat

THRESHOLDS = (5.0, 10.0, 20.0)

REGIMES = ("non_visible", "visible")

CEILING, WALL, FLOOR = 0, 1, 2


@dataclass(frozen=True)
class MetricReport:
    """All scores for one (prediction, ground truth) pair; column order of the
    aggregate report tables."""

    iou2d: float
    iou3d: float
    corner_error: float
    pixel_error: float
    junction_f: float
    wireframe_f: float
    plane_f: float

    def as_row(self) -> list[float]:
        return [getattr(self, f.name) for f in fields(self)]


def _floor_polygon(x) -> np.ndarray:
    pts = x.floor_points() if isinstance(x, VisibleLayout) else np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise InputError("polygon must be an (N>=3, 2) array or a layout")
    return pts


def _edge_crossing_ys(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """y of every point where an edge of ``pa`` meets an edge of ``pb``, taken
    along both edges so the result does not depend on the argument order."""
    a, b = pa[:, None, :], pb[None, :, :]
    da = np.roll(pa, -1, axis=0)[:, None, :] - a
    db = np.roll(pb, -1, axis=0)[None, :, :] - b
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross(b - a, db) / cross(da, db)
        s = cross(b - a, da) / cross(da, db)
        hit = (t >= 0) & (t <= 1) & (s >= 0) & (s <= 1)
        return np.concatenate([(a + t[..., None] * da)[hit, 1], (b + s[..., None] * db)[hit, 1]])


def _slab_areas(pa: np.ndarray, pb: np.ndarray) -> tuple[float, float, float]:
    """Exact (intersection, area a, area b) of two simple polygons, by slabs.

    Between consecutive breakpoints (every vertex y of both polygons and every
    y where their edges cross) no edge starts, ends or passes another, so each
    cross-section length is linear in y and its value at mid-height times the
    slab height is exact. All three areas come from the same sums, so the
    intersection never exceeds either area and identical polygons score 1.
    """
    ys = np.unique(np.concatenate([pa[:, 1], pb[:, 1], _edge_crossing_ys(pa, pb)]))
    mid = 0.5 * (ys[:-1] + ys[1:])
    (x1, y1), (x2, y2) = (
        np.vstack(ends).T[:, :, None]
        for ends in ((pa, pb), (np.roll(pa, -1, axis=0), np.roll(pb, -1, axis=0)))
    )
    crosses = (y1 <= mid) != (y2 <= mid)  # half-open: each polygon crosses evenly
    x = np.where(crosses, x1 + (mid - y1) * (x2 - x1) / np.where(crosses, y2 - y1, 1.0), x1.max())
    # bit 1 toggles at each crossing of an edge of pa, bit 2 of an edge of pb
    flag = crosses * np.repeat([1, 2], [len(pa), len(pb)])[:, None]
    order = np.argsort(x, axis=0)
    gap = np.diff(np.take_along_axis(x, order, axis=0), axis=0)
    inside = np.bitwise_xor.accumulate(np.take_along_axis(flag, order, axis=0), axis=0)[:-1]
    return tuple(
        float(np.dot(np.where((inside & bits) == bits, gap, 0.0).sum(axis=0), np.diff(ys)))
        for bits in (3, 1, 2)
    )


def _ious(a, b, ha: float, hb: float) -> tuple[float, float]:
    """Exact (area IoU, volume IoU) of two floor polygons extruded to heights ha, hb."""
    pa, pb = _floor_polygon(a), _floor_polygon(b)
    if abs(polygon_signed_area(pa)) <= 1e-12 or abs(polygon_signed_area(pb)) <= 1e-12:
        raise MetricError("zero-area polygon")
    inter, area_a, area_b = _slab_areas(pa, pb)
    vol_inter = inter * min(ha, hb)
    return inter / (area_a + area_b - inter), vol_inter / (area_a * ha + area_b * hb - vol_inter)


def iou_2d(a, b) -> float:
    """Exact floor-polygon area IoU."""
    return _ious(a, b, 1.0, 1.0)[0]


def _height_of(x, height) -> float:
    if height is not None:
        return float(height)
    if isinstance(x, VisibleLayout):
        return float(x.room_height)
    raise InputError("bare polygons need an explicit height for volume IoU")


def iou_3d(a, b, height_a: float | None = None, height_b: float | None = None) -> float:
    """Exact extruded-prism volume IoU; both layouts share the camera at the origin."""
    ha, hb = _height_of(a, height_a), _height_of(b, height_b)
    if ha <= 0 or hb <= 0:
        raise MetricError(f"nonpositive room height: {ha}, {hb}")
    return _ious(a, b, ha, hb)[1]


def _pixel_distances(p: np.ndarray, q: np.ndarray, width: float | None) -> np.ndarray:
    """(len(p), len(q)) Euclidean pixel distances, columns cyclic if width given."""
    du = np.abs(p[:, 0][:, None] - q[:, 0][None, :])
    if width is not None:
        du = np.minimum(du, width - du)
    dv = p[:, 1][:, None] - q[:, 1][None, :]
    return np.sqrt(du**2 + dv**2)


def _as_corner_points(x, grid: ImageGrid) -> np.ndarray:
    if isinstance(x, VisibleLayout):
        return corner_image_points(x, grid)
    return np.asarray(x, dtype=float).reshape(-1, 2)


def corner_error(
    pred_corners,
    gt_corners,
    grid: ImageGrid | None = None,
    method: str = "hungarian",
    unmatched_penalty: float = 0.1,
) -> float:
    """Mean matched corner distance as a fraction of the image diagonal.

    Accepts layouts or (N, 2) pixel point arrays. One-to-one matching
    (Hungarian by default, greedy selectable); every unmatched corner on
    either side is charged ``unmatched_penalty`` of the diagonal, keeping the
    score defined and monotone under spurious corners.
    """
    grid = grid or (pred_corners.grid if isinstance(pred_corners, VisibleLayout) else ImageGrid())
    p = _as_corner_points(pred_corners, grid)
    q = _as_corner_points(gt_corners, grid)
    if len(p) == 0 or len(q) == 0:
        raise MetricError("corner sets must be non-empty")
    dist = _pixel_distances(p, q, grid.width)
    if method == "hungarian":
        rows, cols = linear_sum_assignment(dist)
        matched = dist[rows, cols]
    elif method == "greedy":
        matched = np.array(_greedy_match(dist, np.inf))
    else:
        raise InputError(f"unknown matching method {method!r}")
    n_unmatched = (len(p) - len(matched)) + (len(q) - len(matched))
    diag = grid.diagonal
    total = float(matched.sum()) + n_unmatched * unmatched_penalty * diag
    return total / (len(matched) + n_unmatched) / diag


def _greedy_match(dist: np.ndarray, threshold: float) -> list[float]:
    """Ascending-distance one-to-one matching; returns matched distances."""
    order = np.argsort(dist, axis=None, kind="stable")
    used_p = np.zeros(dist.shape[0], dtype=bool)
    used_q = np.zeros(dist.shape[1], dtype=bool)
    out = []
    for k in order:
        i, j = divmod(int(k), dist.shape[1])
        if dist[i, j] > threshold:
            break
        if not used_p[i] and not used_q[j]:
            used_p[i] = used_q[j] = True
            out.append(float(dist[i, j]))
    return out


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def _f_score(matched: int, n_pred: int, n_gt: int) -> float:
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    return _f1(matched / n_pred, matched / n_gt)


def junction_f(
    pred_corners,
    gt_corners,
    grid: ImageGrid | None = None,
    thresholds: Sequence[float] = THRESHOLDS,
) -> float:
    """Corner-matching F-score averaged over the pixel thresholds.

    Accepts layouts or (N, 2) pixel point arrays.
    """
    grid = grid or (pred_corners.grid if isinstance(pred_corners, VisibleLayout) else ImageGrid())
    p = _as_corner_points(pred_corners, grid)
    q = _as_corner_points(gt_corners, grid)
    if len(p) == 0 and len(q) == 0:
        return 1.0
    if len(p) == 0 or len(q) == 0:
        return 0.0
    dist = _pixel_distances(p, q, grid.width)
    scores = []
    for t in thresholds:
        matched = len(_greedy_match(dist, t))
        scores.append(_f_score(matched, len(p), len(q)))
    return float(np.mean(scores))


def _boundaries_of(x, grid: ImageGrid):
    if isinstance(x, VisibleLayout):
        return synth.layout_boundaries(x, grid)
    y_c = np.asarray(x.y_c, dtype=float)
    y_f = np.asarray(x.y_f, dtype=float)
    if len(y_c) != grid.width:
        raise InputError(f"signal width {len(y_c)} does not match grid width {grid.width}")
    return y_c, y_f


def render_semantic(layout_or_signal, grid: ImageGrid | None = None) -> np.ndarray:
    """Per-pixel ceiling/wall/floor labels implied by the boundary curves."""
    if grid is None:
        grid = layout_or_signal.grid if isinstance(layout_or_signal, VisibleLayout) else ImageGrid(
            layout_or_signal.width, layout_or_signal.width // 2
        )
    y_c, y_f = _boundaries_of(layout_or_signal, grid)
    lats = row_to_lat(np.arange(grid.height), grid)
    mask = np.full((grid.height, grid.width), WALL, dtype=np.int8)
    mask[lats[:, None] > y_c[None, :]] = CEILING
    mask[lats[:, None] < y_f[None, :]] = FLOOR
    return mask


def pixel_error(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """Fraction of pixels whose labels differ."""
    p = np.asarray(pred_mask)
    g = np.asarray(gt_mask)
    if p.shape != g.shape:
        raise InputError(f"mask shapes differ: {p.shape} vs {g.shape}")
    return float(np.mean(p != g))


def _column_pixel_error(bounds_p, bounds_g, grid: ImageGrid) -> float:
    """:func:`pixel_error` of the two :func:`render_semantic` masks, per column.

    Ceiling rows run down from the top and floor rows up from the bottom, and
    ``y_f < 0 < y_c`` keeps them apart, so two columns disagree on exactly
    |ceiling rows difference| + |floor rows difference| pixels.
    """
    lats_up = row_to_lat(np.arange(grid.height - 1, -1, -1), grid)
    wrong = 0
    # rows strictly above y_c are ceiling, rows strictly below y_f floor
    for side, y_p, y_g in zip(("right", "left"), bounds_p, bounds_g):
        rows_p, rows_g = np.searchsorted(lats_up, y_p, side), np.searchsorted(lats_up, y_g, side)
        wrong += int(np.abs(rows_p - rows_g).sum())
    return wrong / (grid.width * grid.height)


def corner_image_points(layout: VisibleLayout, grid: ImageGrid | None = None) -> np.ndarray:
    """(2N, 2) pixel positions of every corner's ceiling and floor junction."""
    grid = grid or layout.grid
    pts = []
    for c in layout.corners:
        pts.append((c.column, lat_to_row(c.ceil_lat, grid)))
        pts.append((c.column, lat_to_row(c.floor_lat, grid)))
    return np.array(pts)


def _wireframe_points(layout, bounds, grid: ImageGrid, include_verticals: bool) -> np.ndarray:
    cols = np.arange(grid.width, dtype=float)
    pts = [np.stack([cols, lat_to_row(y, grid)], axis=1) for y in bounds]
    if include_verticals:
        for c in layout.corners:
            r1 = lat_to_row(c.ceil_lat, grid)
            r2 = lat_to_row(c.floor_lat, grid)
            rows = np.arange(np.ceil(r1), np.floor(r2) + 1.0)
            pts.append(np.stack([np.full(len(rows), c.column), rows], axis=1))
    return np.vstack(pts)


def _nearest_distances(src: np.ndarray, target: np.ndarray, width: int, reach: float) -> np.ndarray:
    """Distance from each src point to its nearest target point, columns cyclic;
    ``inf`` where none is within ``reach`` pixels.

    Only target points within ``reach`` columns of the seam can be nearest
    across it, so only those get a copy one width over. The query bound is
    strict, hence ``nextafter``: a point exactly ``reach`` away still counts.
    """
    u = target[:, 0]
    aug = np.vstack([target, target[u <= reach] + [width, 0], target[u >= width - reach] - [width, 0]])
    return cKDTree(aug).query(src, k=1, distance_upper_bound=np.nextafter(reach, np.inf))[0]


def _wireframe_f(pred, gt, bounds_p, bounds_g, grid: ImageGrid, thresholds, include_verticals) -> float:
    p = _wireframe_points(pred, bounds_p, grid, include_verticals)
    g = _wireframe_points(gt, bounds_g, grid, include_verticals)
    reach = max(thresholds)
    d_p = _nearest_distances(p, g, grid.width, reach)
    d_g = _nearest_distances(g, p, grid.width, reach)
    return float(np.mean([_f1(float(np.mean(d_p <= t)), float(np.mean(d_g <= t))) for t in thresholds]))


def wireframe_f(
    pred_layout: VisibleLayout,
    gt_layout: VisibleLayout,
    grid: ImageGrid | None = None,
    thresholds: Sequence[float] = THRESHOLDS,
    include_verticals: bool = True,
) -> float:
    """Boundary-curve chamfer F-score averaged over the pixel thresholds.

    The wireframe is both boundary curves plus (by default) the vertical
    junction segment at every corner column.
    """
    grid = grid or pred_layout.grid
    bounds = (_boundaries_of(pred_layout, grid), _boundaries_of(gt_layout, grid))
    return _wireframe_f(pred_layout, gt_layout, *bounds, grid, thresholds, include_verticals)


def _cyclic_col_range(c0: float, c1: float, width: int) -> np.ndarray:
    """Integer columns whose centers lie in the cyclic interval [c0, c1)."""
    if c1 < c0:
        c1 += width
    cols = np.arange(np.ceil(c0), np.ceil(c1))
    return (cols.astype(np.int64)) % width


def _planes(layout: VisibleLayout, bounds, grid: ImageGrid):
    """Each plane as (label, top_row[w], bottom_row[w]); empty columns 0-height."""
    w = grid.width
    rows_c, rows_f = (lat_to_row(y, grid) for y in bounds)
    planes = [("ceiling", np.full(w, -0.5), rows_c), ("floor", rows_f, np.full(w, grid.height - 0.5))]
    corners = layout.corners
    for i, j in layout.wall_edges():
        top = np.full(w, 0.0)
        bot = np.full(w, 0.0)
        cols = _cyclic_col_range(corners[i].column, corners[j].column, w)
        top[cols] = rows_c[cols]
        bot[cols] = rows_f[cols]
        planes.append(("wall", top, bot))
    return planes


def _interval_iou(a, b) -> float:
    _, ta, ba = a
    _, tb, bb = b
    inter = np.clip(np.minimum(ba, bb) - np.maximum(ta, tb), 0.0, None).sum()
    area_a = np.clip(ba - ta, 0.0, None).sum()
    area_b = np.clip(bb - tb, 0.0, None).sum()
    union = area_a + area_b - inter
    return float(inter / union) if union > 0 else 0.0


def _plane_f(pred, gt, bounds_p, bounds_g, grid: ImageGrid, iou_threshold: float) -> float:
    pred_planes = _planes(pred, bounds_p, grid)
    gt_planes = _planes(gt, bounds_g, grid)
    ious = [
        (_interval_iou(p, g), i, j)
        for i, p in enumerate(pred_planes)
        for j, g in enumerate(gt_planes)
        if p[0] == g[0]
    ]
    used_p, used_g = set(), set()
    for iou, i, j in sorted(ious, key=lambda c: -c[0]):
        if iou > iou_threshold and i not in used_p and j not in used_g:
            used_p.add(i)
            used_g.add(j)
    return _f_score(len(used_p), len(pred_planes), len(gt_planes))


def plane_f(
    pred_layout: VisibleLayout,
    gt_layout: VisibleLayout,
    grid: ImageGrid | None = None,
    iou_threshold: float = 0.5,
) -> float:
    """Surface-matching F-score: same-class planes matched at mask IoU > 0.5.

    Planes are the floor, the ceiling, and one wall per corner-to-corner edge;
    occlusion edges contribute no plane. Matching is greedy by descending IoU,
    one-to-one.
    """
    grid = grid or pred_layout.grid
    bounds = (_boundaries_of(pred_layout, grid), _boundaries_of(gt_layout, grid))
    return _plane_f(pred_layout, gt_layout, *bounds, grid, iou_threshold)


def clip_to_visible(layout: VisibleLayout) -> VisibleLayout:
    """Restrict a full layout to what its own camera sees.

    Layouts that already carry occlusion pairs are returned unchanged; a full
    polygon is re-rendered from the origin so hidden notches collapse into
    near/far pairs, which is the visible evaluation regime's ground truth.
    """
    if layout.occlusion_pairs():
        return layout
    room = synth.SyntheticRoom(
        layout.floor_points(), layout.room_height, np.zeros(2), layout.camera.camera_height
    )
    return synth.truth_layout(room, layout.grid)


def evaluate_pair(
    pred: VisibleLayout,
    gt: VisibleLayout,
    grid: ImageGrid | None = None,
    regime: str = "non_visible",
) -> MetricReport:
    """All metrics for one prediction/ground-truth pair; each layout's boundary
    curves are rendered once, for the pixel, wireframe and plane scores."""
    if regime not in REGIMES:
        raise InputError(f"regime must be one of {REGIMES}, got {regime!r}")
    grid = grid or pred.grid
    if regime == "visible":
        gt = clip_to_visible(gt)
    iou2d, iou3d = _ious(pred, gt, pred.room_height, gt.room_height)
    bounds_p = synth.layout_boundaries(pred, grid)
    bounds_g = synth.layout_boundaries(gt, grid)
    p_pts = corner_image_points(pred, grid)
    g_pts = corner_image_points(gt, grid)
    return MetricReport(
        iou2d=iou2d,
        iou3d=iou3d,
        corner_error=corner_error(p_pts, g_pts, grid),
        pixel_error=_column_pixel_error(bounds_p, bounds_g, grid),
        junction_f=junction_f(p_pts, g_pts, grid),
        wireframe_f=_wireframe_f(pred, gt, bounds_p, bounds_g, grid, THRESHOLDS, True),
        plane_f=_plane_f(pred, gt, bounds_p, bounds_g, grid, 0.5),
    )
