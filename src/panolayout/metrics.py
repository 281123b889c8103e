"""Layout evaluation: area/volume IoU, corner and pixel error, F-scores.

Polygon IoU is exact: the plane is cut into horizontal slabs at every vertex
height of both polygons and every height where their edges cross, and inside
a slab each cross-section length is linear in y, so the midpoint rule
integrates it exactly. Non-convex polygons with occlusion notches need no
special case.

Corner-level scores work in pixel space with cyclic column distances, so
every metric here is invariant under rotating both panoramas by the same
number of columns. :func:`evaluate_pair` renders each layout's boundary
curves once (the grid's ray directions are cached per grid), converts them
to image rows once, and shares them between the pixel, wireframe and plane
scores.

The wireframe chamfer is exact and needs no search tree: a wireframe is two
curves with one point per integer column plus vertical runs of integer rows
at corner columns, so nearest points are found by clipping rows to runs and
by a window of columns no wider than the largest threshold. Plane F scores
only same-label plane pairs (ceiling with ceiling, floor with floor, wall
with wall), one pred plane at a time against all truth planes of its label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import synth
from .detect import BoundarySignal
from .errors import InputError, MetricError
from .geometry import VisibleLayout, polygon_signed_area
from .panorama import ImageGrid, lat_to_row, row_to_lat

THRESHOLDS = (5.0, 10.0, 20.0)

PLANE_IOU_THRESHOLD = 0.5  # a plane pair matches at mask IoU strictly above this

UNMATCHED_PENALTY = 0.1  # corner_error's charge per unmatched corner, in image diagonals

CEILING, WALL, FLOOR = 0, 1, 2

_WINDOW_BLOCK = 256  # source points per block of the chamfer's column-window search


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
    da = np.concatenate([pa[1:], pa[:1]])[:, None, :] - a
    db = np.concatenate([pb[1:], pb[:1]])[None, :, :] - b
    cross = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        for ends in ((pa, pb), (pa[1:], pa[:1], pb[1:], pb[:1]))
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


def _grid_of(a, b, grid: ImageGrid | None = None) -> ImageGrid:
    """The one grid of two metric inputs. A layout or a signal brings its own
    grid; ``grid``, which bare point arrays need, must agree with it. Bare
    points without ``grid`` are on the default :class:`ImageGrid`."""
    own = [x.grid for x in (a, b) if isinstance(x, (VisibleLayout, BoundarySignal))]
    if len(own) == 2 and own[0] != own[1]:
        kind = "layouts" if all(isinstance(x, VisibleLayout) for x in (a, b)) else "inputs"
        raise InputError(f"{kind} are on different grids: {own[0]} and {own[1]}")
    if grid is not None and own and grid != own[0]:
        raise InputError(f"grid {grid} is not the inputs' own grid {own[0]}")
    return grid or (own[0] if own else ImageGrid())


def _as_corner_points(x) -> np.ndarray:
    if isinstance(x, VisibleLayout):
        return corner_image_points(x)
    pts = np.asarray(x, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise InputError("corner points must be finite")
    return pts


def corner_error(pred_corners, gt_corners, grid: ImageGrid | None = None) -> float:
    """Mean matched corner distance as a fraction of the image diagonal.

    Accepts layouts or (N, 2) pixel point arrays; ``grid`` places bare points
    and must be the grid of any layout given. One-to-one Hungarian matching;
    every unmatched corner on either side is charged ``UNMATCHED_PENALTY``
    of the diagonal, keeping the score defined and monotone under spurious
    corners.
    """
    grid = _grid_of(pred_corners, gt_corners, grid)
    p = _as_corner_points(pred_corners)
    q = _as_corner_points(gt_corners)
    if len(p) == 0 or len(q) == 0:
        raise MetricError("corner sets must be non-empty")
    dist = _pixel_distances(p, q, grid.width)
    matched = dist[linear_sum_assignment(dist)]
    n_unmatched = (len(p) - len(matched)) + (len(q) - len(matched))
    diag = grid.diagonal
    total = float(matched.sum()) + n_unmatched * UNMATCHED_PENALTY * diag
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


def _check_thresholds(thresholds: Sequence[float]) -> None:
    ts = np.asarray(thresholds, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise InputError(f"thresholds must be non-empty, finite and >= 0, got {thresholds}")


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

    Accepts layouts or (N, 2) pixel point arrays; ``grid`` places bare points
    and must be the grid of any layout given. Thresholds must be non-empty,
    finite and >= 0. Greedy matching at a threshold is a prefix of the greedy
    matching at the largest one, so that one matching serves all.
    """
    _check_thresholds(thresholds)
    grid = _grid_of(pred_corners, gt_corners, grid)
    p = _as_corner_points(pred_corners)
    q = _as_corner_points(gt_corners)
    if len(p) == 0 and len(q) == 0:
        return 1.0
    if len(p) == 0 or len(q) == 0:
        return 0.0
    matched = np.array(_greedy_match(_pixel_distances(p, q, grid.width), max(thresholds)))
    scores = [_f_score(np.count_nonzero(matched <= t), len(p), len(q)) for t in thresholds]
    return float(np.mean(scores))


def _boundaries_of(x):
    if isinstance(x, VisibleLayout):
        return synth.layout_boundaries(x)
    return x.y_c, x.y_f


def render_semantic(layout_or_signal) -> np.ndarray:
    """Per-pixel ceiling/wall/floor labels implied by the boundary curves, on
    the layout's or the signal's own grid."""
    grid = layout_or_signal.grid
    y_c, y_f = _boundaries_of(layout_or_signal)
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


def corner_image_points(layout: VisibleLayout) -> np.ndarray:
    """(2N, 2) pixel positions of every corner's ceiling and floor junction
    on the layout's grid."""
    corners = layout.corners
    cols = np.repeat(np.array([c.column for c in corners], dtype=float), 2)
    lats = np.array([(c.ceil_lat, c.floor_lat) for c in corners], dtype=float).ravel()
    return np.stack([cols, lat_to_row(lats, layout.grid)], axis=1)


def _rows(bounds, grid: ImageGrid) -> np.ndarray:
    """(2, width) rows of a (y_c, y_f) boundary pair at every integer column."""
    return lat_to_row(np.stack(bounds), grid)


def _wireframe(rows, corner_pts):
    """A wireframe as the chamfer search reads it: the :func:`_rows` of both
    boundary curves, and the vertical runs of integer rows between each
    corner's junctions, as (column, first row, last row) arrays.
    ``corner_pts`` is :func:`corner_image_points`, or None for a wireframe
    without verticals."""
    if corner_pts is None:
        return rows, (np.empty(0), np.empty(0), np.empty(0))
    cols = corner_pts[0::2, 0]
    first, last = np.ceil(corner_pts[0::2, 1]), np.floor(corner_pts[1::2, 1])
    spans = first <= last
    return rows, (cols[spans], first[spans], last[spans])


def _wireframe_points(wire) -> tuple[np.ndarray, np.ndarray]:
    """(columns, rows) of every point of a wireframe: the ceiling curve, the
    floor curve, then each run."""
    rows, (cols, first, last) = wire
    curve_cols = np.tile(np.arange(rows.shape[1], dtype=float), 2)
    run_cols = np.repeat(cols, (last - first + 1).astype(np.intp))
    runs = [np.arange(a, b + 1.0) for a, b in zip(first, last)]
    return np.concatenate([curve_cols, run_cols]), np.concatenate([rows.ravel(), *runs])


def _seam_rows(rows, width: int, reach: float, pad: int) -> np.ndarray:
    """Curve rows at columns ``-pad .. width + pad``, shape (2, columns): a
    column beyond an edge holds the seam copy of column ``% width`` where the
    copies hold that column (``c <= reach`` one width right, ``c >= width -
    reach`` one width left), and ``inf`` rows elsewhere."""
    out = np.full((2, width + 2 * pad + 1), np.inf)
    out[:, pad : pad + width] = rows
    n_right = max(min(math.floor(reach), pad, width - 1) + 1, 0)  # columns 0 .. n_right - 1
    left = min(max(math.ceil(width - reach), width - pad, 0), width)  # columns left .. width - 1
    out[:, pad + width : pad + width + n_right] = rows[:, :n_right]
    out[:, pad - (width - left) : pad] = rows[:, left:]
    return out


def _curve_sq_distances(frac, sv, idx, offsets, seam_rows) -> np.ndarray:
    """Least squared distance from each source point to the curve points at
    the given column offsets from its floor column. ``frac`` is the source
    column minus its floor column, and ``idx`` (offsets, points) indexes the
    offsets' columns in ``seam_rows``."""
    sq = (frac - offsets[:, None]) ** 2
    dv_c, dv_f = seam_rows[0][idx], seam_rows[1][idx]
    for dv in (dv_c, dv_f):  # in place: these are the largest arrays of a score
        np.subtract(sv, dv, out=dv)
        dv *= dv
    sq += np.minimum(dv_c, dv_f, out=dv_c)
    return sq.min(axis=0)


def _nearest_distances(su, sv, wire, width: int, reach: float) -> np.ndarray:
    """Distance from each source point (su, sv) to the nearest point of a
    :func:`_wireframe`, columns cyclic; ``inf`` where none is within ``reach``.

    Exact without a search tree, because the wireframe's points lie on a
    grid: the nearest point of a run is the source row clipped to the run, and
    curve points sit one per integer column. Runs are searched in full, curves
    at the two nearest columns, and only points whose squared bound is still
    above 1 search every column within ``reach``; any other column is at
    least 1 away. The result equals bit for bit a nearest-neighbour query
    over the points plus a copy one width over of each point within
    ``reach`` columns of the seam: squared distances are ``du*du + dv*dv``
    with the copies' columns ``c + width`` and ``c - width`` computed in
    float, a point counts when its squared distance is below the square of
    the next float above ``reach`` (one exactly ``reach`` away counts), and
    one ``sqrt`` comes last. A point at distance 0 always counts; that
    differs from the query only where the bound's square underflows to 0,
    as it does at ``reach`` 0.
    """
    rows, (cols, first, last) = wire
    dv2 = np.clip(np.rint(sv), first[:, None], last[:, None])
    np.subtract(sv, dv2, out=dv2)
    dv2 *= dv2
    d2 = np.full(len(su), np.inf)
    copies = ((0.0, slice(None)), (width, cols <= reach), (-width, cols >= width - reach))
    for shift, held in copies:
        run_cols = cols[held]
        if run_cols.size:
            sq = (su - (run_cols[:, None] + shift)) ** 2
            sq += dv2[held]
            np.minimum(d2, sq.min(axis=0), out=d2)
    # A curve point in integer column tc lies (su - base) - (tc - base) columns
    # away, which rounds as su - tc does because su - base is exact.
    pad = max(math.ceil(reach), 0)
    seam_rows = _seam_rows(rows, width, reach, pad)
    base = np.floor(su)
    frac, base_idx = su - base, base.astype(np.intp) + pad
    near = np.array([0, 1])
    d2 = np.minimum(d2, _curve_sq_distances(frac, sv, base_idx + near[:, None], near, seam_rows))
    far = np.flatnonzero(d2 > 1.0)
    offsets = np.arange(-pad, pad + 2)
    # blocks of points keep the window's (offsets, points) arrays small
    for start in range(0, far.size, _WINDOW_BLOCK):
        block = far[start : start + _WINDOW_BLOCK]
        idx = base_idx[block] + offsets[:, None]
        window = _curve_sq_distances(frac[block], sv[block], idx, offsets, seam_rows)
        d2[block] = np.minimum(d2[block], window)
    bound = np.nextafter(reach, np.inf)
    return np.where((d2 < bound * bound) | (d2 == 0.0), np.sqrt(d2), np.inf)


def _wireframe_f(rows_p, rows_g, pts_p, pts_g, width: int, thresholds) -> float:
    wire_p, wire_g = _wireframe(rows_p, pts_p), _wireframe(rows_g, pts_g)
    reach = max(thresholds)
    d_p = _nearest_distances(*_wireframe_points(wire_p), wire_g, width, reach)
    d_g = _nearest_distances(*_wireframe_points(wire_g), wire_p, width, reach)
    share = lambda d, t: np.count_nonzero(d <= t) / d.size
    scores = [_f1(share(d_p, t), share(d_g, t)) for t in thresholds]
    return float(np.mean(scores))


def wireframe_f(
    pred_layout: VisibleLayout,
    gt_layout: VisibleLayout,
    grid: ImageGrid | None = None,
    thresholds: Sequence[float] = THRESHOLDS,
    include_verticals: bool = True,
) -> float:
    """Boundary-curve chamfer F-score averaged over the pixel thresholds.

    The wireframe is both boundary curves plus (by default) the vertical
    junction segment at every corner column. Thresholds must be non-empty,
    finite and >= 0. Boundary signals are accepted without verticals only,
    since verticals are drawn at a layout's corners. ``grid``, if given, must
    be the grid of both inputs.
    """
    _check_thresholds(thresholds)
    if include_verticals and not (
        isinstance(pred_layout, VisibleLayout) and isinstance(gt_layout, VisibleLayout)
    ):
        raise InputError("wireframe verticals need two layouts; pass include_verticals=False")
    grid = _grid_of(pred_layout, gt_layout, grid)
    rows = [_rows(_boundaries_of(x), grid) for x in (pred_layout, gt_layout)]
    pts = (None, None)
    if include_verticals:
        pts = (corner_image_points(pred_layout), corner_image_points(gt_layout))
    return _wireframe_f(*rows, *pts, grid.width, thresholds)


def _planes(layout: VisibleLayout, rows, grid: ImageGrid):
    """Each plane's top and bottom rows at every column, from the layout's
    :func:`_rows`, as two (planes, width) arrays: the ceiling, the floor, then
    one wall per wall edge, 0-height outside the integer columns whose
    centers lie in its cyclic column interval [start, end)."""
    corners, edges = layout.corners, layout.wall_edges()
    top, bot = np.zeros((2, 2 + len(edges), grid.width))
    top[0], bot[0] = -0.5, rows[0]
    top[1], bot[1] = rows[1], grid.height - 0.5
    c0, c1 = np.array([(corners[i].column, corners[j].column) for i, j in edges]).reshape(-1, 2).T
    first = np.ceil(c0).astype(np.intp)
    counts = np.ceil(np.where(c1 < c0, c1 + grid.width, c1)).astype(np.intp) - first
    # all walls' column runs end to end; run k starts at position ends[k] - counts[k]
    ends = np.cumsum(counts)
    planes = np.repeat(np.arange(2, 2 + len(edges)), counts)
    cols = (np.arange(counts.sum()) + np.repeat(first - ends + counts, counts)) % grid.width
    top[planes, cols] = rows[0, cols]
    bot[planes, cols] = rows[1, cols]
    return top, bot


def _plane_ious(planes_p, planes_g) -> np.ndarray:
    """Mask IoU of every pred plane with every truth plane, from the column
    intervals of :func:`_planes`; ``-inf`` where the labels differ. Only the
    same-label blocks are scored: ceiling with ceiling, floor with floor and
    wall with wall."""
    (top_p, bot_p), (top_g, bot_g) = planes_p, planes_g
    area_p = np.clip(bot_p - top_p, 0.0, None).sum(axis=1)
    area_g = np.clip(bot_g - top_g, 0.0, None).sum(axis=1)
    ious = np.full((len(top_p), len(top_g)), -np.inf)
    for i in range(len(top_p)):  # a row at a time: temporaries stay (truth planes, width)
        same = slice(i, i + 1) if i < 2 else slice(2, None)
        overlap = np.minimum(bot_p[i], bot_g[same])
        overlap -= np.maximum(top_p[i], top_g[same])
        inter = np.clip(overlap, 0.0, None, out=overlap).sum(axis=1)
        union = area_p[i] + area_g[same] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            ious[i, same] = np.where(union > 0, inter / union, 0.0)
    return ious


def _plane_f(pred, gt, rows_p, rows_g, grid: ImageGrid) -> float:
    ious = _plane_ious(_planes(pred, rows_p, grid), _planes(gt, rows_g, grid))
    # greedy one-to-one by descending IoU, ties in (pred, truth) order; the
    # next float below -t as the distance bound keeps the match at IoU > t
    matched = _greedy_match(-ious, np.nextafter(-PLANE_IOU_THRESHOLD, -np.inf))
    return _f_score(len(matched), *ious.shape)


def plane_f(pred_layout: VisibleLayout, gt_layout: VisibleLayout) -> float:
    """Surface-matching F-score: same-class planes matched at mask IoU above
    ``PLANE_IOU_THRESHOLD`` (0.5), on the grid the two layouts share.

    Planes are the floor, the ceiling, and one wall per corner-to-corner edge;
    occlusion edges contribute no plane. Matching is greedy by descending IoU,
    one-to-one.
    """
    grid = _grid_of(pred_layout, gt_layout)
    rows = [_rows(synth.layout_boundaries(x), grid) for x in (pred_layout, gt_layout)]
    return _plane_f(pred_layout, gt_layout, *rows, grid)


def evaluate_pair(
    pred: VisibleLayout, gt: VisibleLayout, *, regime: str = "non_visible"
) -> MetricReport:
    """All metrics for one prediction/ground-truth pair on the grid they share;
    each layout's boundary curves are rendered once, for the pixel, wireframe
    and plane scores. ``regime`` stays for callers that pass it and accepts
    only ``"non_visible"``."""
    if regime != "non_visible":
        raise InputError(f"the visible regime was removed; got regime {regime!r}")
    grid = _grid_of(pred, gt)
    iou2d, iou3d = _ious(pred, gt, pred.room_height, gt.room_height)
    bounds_p = synth.layout_boundaries(pred)
    bounds_g = synth.layout_boundaries(gt)
    rows_p, rows_g = _rows(bounds_p, grid), _rows(bounds_g, grid)
    p_pts = corner_image_points(pred)
    g_pts = corner_image_points(gt)
    return MetricReport(
        iou2d=iou2d,
        iou3d=iou3d,
        corner_error=corner_error(p_pts, g_pts, grid),
        pixel_error=_column_pixel_error(bounds_p, bounds_g, grid),
        junction_f=junction_f(p_pts, g_pts, grid),
        wireframe_f=_wireframe_f(rows_p, rows_g, p_pts, g_pts, grid.width, THRESHOLDS),
        plane_f=_plane_f(pred, gt, rows_p, rows_g, grid),
    )
