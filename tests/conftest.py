from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from panolayout import FIXTURE_FAMILIES
from panolayout.detect import _CEIL_LAT_RANGE, _FLOOR_LAT_RANGE, _clamp, _extrapolate
from panolayout.errors import AmbiguityError
from panolayout.geometry import CornerKind, LayoutCorner, segments_properly_intersect
from panolayout.panorama import cyclic_column_distance, lat_to_row
from panolayout.synth import make_fixture, render_signal

CORPUS_SEEDS = 20


@pytest.fixture(scope="session")
def corpus():
    """(family, seed) -> (room, clean signal, truth layout) for 20 seeds each."""
    out = {}
    for family in FIXTURE_FAMILIES:
        for seed in range(CORPUS_SEEDS):
            room = make_fixture(family, seed)
            signal, truth = render_signal(room)
            out[(family, seed)] = (room, signal, truth)
    return out


@pytest.fixture(scope="session")
def square_case(corpus):
    return corpus[("square", 0)]


@pytest.fixture(scope="session")
def l_room_case(corpus):
    return corpus[("l_room", 0)]


@pytest.fixture(scope="session")
def t_room_case(corpus):
    return corpus[("t_room", 0)]


def cyclic_delta(a, b, width):
    d = abs(float(a) - float(b)) % width
    return min(d, width - d)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _raster_mask(poly, lo, cell, n):
    """Even-odd scanline fill of an n x n grid: toggle crossing counts per row,
    then take the parity along it."""
    x1, y1 = poly[:, 0][:, None], poly[:, 1][:, None]
    x2 = np.roll(poly[:, 0], -1)[:, None]
    y2 = np.roll(poly[:, 1], -1)[:, None]
    yc = lo[1] + (np.arange(n) + 0.5) * cell[1]
    crosses = (y1 <= yc) != (y2 <= yc)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x1 + (yc - y1) * (x2 - x1) / (y2 - y1)
    e_idx, r_idx = np.nonzero(crosses)
    cols = np.ceil((xc[e_idx, r_idx] - lo[0]) / cell[0] - 0.5).astype(np.int64)
    cols = np.clip(cols, 0, n)  # n = overflow bucket past the last center
    buf = np.zeros((n, n + 1), dtype=np.uint8)
    np.add.at(buf, (r_idx, cols), 1)
    return (np.cumsum(buf[:, :n], axis=1, dtype=np.uint8) & 1).astype(bool)


def raster_iou(a, b, resolution=4096):
    """Brute-force floor-polygon IoU: both polygons rasterized on one shared
    grid over their joint bounding box, cells tested by center parity."""
    pa = a.floor_points() if hasattr(a, "floor_points") else np.asarray(a, dtype=float)
    pb = b.floor_points() if hasattr(b, "floor_points") else np.asarray(b, dtype=float)
    pts = np.vstack([pa, pb])
    lo = pts.min(axis=0)
    cell = np.maximum(pts.max(axis=0) - lo, 1e-9) / resolution
    ma = _raster_mask(pa, lo, cell, resolution)
    mb = _raster_mask(pb, lo, cell, resolution)
    return np.count_nonzero(ma & mb) / np.count_nonzero(ma | mb)


@pytest.fixture(scope="session")
def raster():
    """The brute-force raster IoU oracle, ``raster(a, b, resolution=4096)``."""
    return raster_iou


def scalar_snap_and_dedupe(confirmed, corner_peaks, width, radius):
    """Reference for ``ensemble``'s peak snapping, one scalar distance per pair:
    each cluster mean moves onto its nearest corner peak within the radius (the
    first such peak on a tie), and a column within 1e-9 of one already kept is
    dropped."""
    snapped = []
    for col in confirmed:
        near_peaks = [p for p in corner_peaks if cyclic_column_distance(col, p, width) <= radius]
        if near_peaks:
            col = float(min(near_peaks, key=lambda p: cyclic_column_distance(col, p, width)))
        if not any(cyclic_column_distance(col, s, width) < 1e-9 for s in snapped):
            snapped.append(col)
    return sorted(snapped)


@pytest.fixture(scope="session")
def scalar_snap():
    """The scalar snap-and-dedupe reference,
    ``scalar_snap(confirmed, corner_peaks, width, radius)``."""
    return scalar_snap_and_dedupe


def tree_wireframe_points(layout, bounds, grid, include_verticals=True):
    """(N, 2) wireframe points: both boundary curves at every integer column,
    then each corner's vertical run of integer rows."""
    cols = np.arange(grid.width, dtype=float)
    pts = [np.stack([cols, lat_to_row(y, grid)], axis=1) for y in bounds]
    if include_verticals:
        for c in layout.corners:
            r1 = lat_to_row(c.ceil_lat, grid)
            r2 = lat_to_row(c.floor_lat, grid)
            rows = np.arange(np.ceil(r1), np.floor(r2) + 1.0)
            pts.append(np.stack([np.full(len(rows), c.column), rows], axis=1))
    return np.vstack(pts)


def tree_nearest_distances(src, target, width, reach):
    """Reference chamfer: a KD-tree over the target points plus a copy one
    width over of each point within ``reach`` columns of the seam, queried
    with the bound just above ``reach`` so a point exactly ``reach`` away
    still counts; ``inf`` where no point is that close."""
    u = target[:, 0]
    right, left = target[u <= reach] + [width, 0], target[u >= width - reach] - [width, 0]
    aug = np.vstack([target, right, left])
    return cKDTree(aug).query(src, k=1, distance_upper_bound=np.nextafter(reach, np.inf))[0]


@pytest.fixture(scope="session")
def tree_chamfer():
    """The KD-tree chamfer oracle: ``.points(layout, bounds, grid,
    include_verticals)`` and ``.nearest(src, target, width, reach)``."""
    return SimpleNamespace(points=tree_wireframe_points, nearest=tree_nearest_distances)


def allclose_polygon_is_simple(points: np.ndarray) -> bool:
    """Reference for ``polygon_is_simple``: the all-pairs edge test on numpy
    rows, with ``np.allclose`` for the zero-length edge test."""
    n = len(points)
    if n < 3:
        return False
    edges = [(points[i], points[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        if np.allclose(edges[i][0], edges[i][1]):
            return False  # zero-length edge
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex
            if segments_properly_intersect(*edges[i], *edges[j]):
                return False
    return True


@pytest.fixture(scope="session")
def polygon_oracle():
    """The numpy polygon test, ``polygon_oracle(points)``; it agrees with
    ``polygon_is_simple`` on polygons with finite vertices."""
    return allclose_polygon_is_simple


def split_cluster_columns(
    columns: np.ndarray, strengths: np.ndarray, radius: int, width: int
) -> list[float]:
    """Reference for ``_cluster_columns``: one ``np.split`` chain at a time,
    unwrapped on its own and averaged with ``np.average``."""
    order = np.argsort(columns, kind="stable")
    cols = columns[order].astype(float)
    wts = strengths[order].astype(float)
    n = len(cols)
    if n == 0:
        return []
    gaps = np.diff(cols, append=cols[0] + width)
    breaks = np.flatnonzero(gaps > radius)
    if breaks.size == 0:
        # everything chains together around the circle
        segments = [np.arange(n)]
    else:
        start = (breaks[-1] + 1) % n
        idx = np.arange(start, start + n) % n
        seg_ends = [((b - start) % n) + 1 for b in breaks]
        segments = np.split(idx, seg_ends[:-1])
    means = []
    for seg in segments:
        c = cols[seg].copy()
        c[c < c[0]] += width  # unwrap within the chain
        m = float(np.average(c, weights=wts[seg])) % width
        means.append(m)
    return sorted(means)


@pytest.fixture(scope="session")
def cluster_oracle():
    """The per-chain clustering reference,
    ``cluster_oracle(columns, strengths, radius, width)``."""
    return split_cluster_columns


def scalar_occlusion_pair(signal, column, config):
    """Reference for ``extract_occlusion_pair`` at a column in [0, width): the
    window read as a Python list, its first largest jump found with
    ``list.index``."""
    w = signal.width
    half = config.extrema_window
    idx = (int(round(column)) + np.arange(-half, half + 1)) % w
    y = signal.y_f[idx].tolist()
    jumps = [abs(b - a) for a, b in zip(y, y[1:])]
    j = jumps.index(max(jumps))
    if jumps[j] < max(config.slope_threshold, 1e-12):
        raise AmbiguityError(
            f"no floor-boundary discontinuity within {half} columns of column {column}"
        )
    a, b = int(idx[j]), int(idx[j + 1])
    col = (a + 0.5) % w
    cap = config.slope_threshold

    def corner_at(k, toward, kind):
        ceil = _extrapolate(signal.y_c, k, toward, 0.5, cap)
        floor = _extrapolate(signal.y_f, k, toward, 0.5, cap)
        return LayoutCorner(
            col, _clamp(ceil, *_CEIL_LAT_RANGE), _clamp(floor, *_FLOOR_LAT_RANGE), kind
        )

    near, far = CornerKind.OCCLUSION_NEAR, CornerKind.OCCLUSION_FAR
    left_kind, right_kind = (near, far) if abs(y[j]) > abs(y[j + 1]) else (far, near)
    return corner_at(a, +1, left_kind), corner_at(b, -1, right_kind)


def loop_occlusion_pairs(signal, columns, config):
    """Reference for ``_occlusion_pairs``: ``scalar_occlusion_pair`` one column
    at a time, None where it raises ``AmbiguityError``."""
    pairs = []
    for col in columns:
        try:
            pairs.append(scalar_occlusion_pair(signal, col, config))
        except AmbiguityError:
            pairs.append(None)
    return pairs


@pytest.fixture(scope="session")
def pair_oracle():
    """The per-column pair references: ``.pair(signal, column, config)`` and
    ``.pairs(signal, columns, config)``."""
    return SimpleNamespace(pair=scalar_occlusion_pair, pairs=loop_occlusion_pairs)


def roll_hit_params(origin, dirs, polygon):
    """Reference for ``synth._hit_params``: the next vertex by ``np.roll``, each
    vertex's side of every ray's line by ``np.outer``, an edge hit where the
    sides of its two ends differ, and s clipped to the span of the ends'
    projections on the ray (their nearer end where the quotient is 0/0)."""
    w = polygon - origin
    e = np.roll(polygon, -1, axis=0) - polygon
    side = np.outer(w[:, 0], dirs[:, 1]) - np.outer(w[:, 1], dirs[:, 0]) >= 0
    crosses = side != np.roll(side, -1, axis=0)
    proj = np.outer(w[:, 0], dirs[:, 0]) + np.outer(w[:, 1], dirs[:, 1])
    lo = np.minimum(proj, np.roll(proj, -1, axis=0))
    hi = np.maximum(proj, np.roll(proj, -1, axis=0))
    num = w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]
    denom = np.outer(e[:, 1], dirs[:, 0]) - np.outer(e[:, 0], dirs[:, 1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = num[:, None] / denom
    s = np.where(np.isnan(s), lo, np.clip(s, lo, hi))
    return np.where(crosses & (s > 1e-9), s, np.inf)


def modulo_seam_rows(rows, width, reach, pad):
    """Reference for ``metrics._seam_rows``: every column's source found with
    ``tc % width``."""
    tc = np.arange(-pad, width + pad + 1.0)
    c = tc % width
    shift = tc - c
    held = (shift == 0) | (shift == width) & (c <= reach) | (shift == -width) & (c >= width - reach)
    return np.where(held, rows[:, c.astype(np.intp)], np.inf)


def looped_planes(layout, rows, grid):
    """Reference for ``metrics._planes``, one wall edge at a time over its
    cyclic column range, with the plane labels: ``(labels, top, bottom)``."""
    corners, edges = layout.corners, layout.wall_edges()
    labels = np.array(["ceiling", "floor"] + ["wall"] * len(edges))
    top = np.zeros((len(labels), grid.width))
    bot = np.zeros((len(labels), grid.width))
    top[0], bot[0] = -0.5, rows[0]
    top[1], bot[1] = rows[1], grid.height - 0.5
    for k, (i, j) in enumerate(edges, start=2):
        c0, c1 = corners[i].column, corners[j].column
        if c1 < c0:
            c1 += grid.width
        cols = np.arange(np.ceil(c0), np.ceil(c1)).astype(np.int64) % grid.width
        top[k, cols] = rows[0, cols]
        bot[k, cols] = rows[1, cols]
    return labels, top, bot


def full_plane_ious(planes_p, planes_g):
    """Reference for ``metrics._plane_ious``: the IoU of every pred plane with
    every truth plane, ``-inf`` set afterwards where the labels differ."""
    (labels_p, top_p, bot_p), (labels_g, top_g, bot_g) = planes_p, planes_g
    inter = np.empty((len(labels_p), len(labels_g)))
    for i in range(len(labels_p)):
        overlap = np.minimum(bot_p[i], bot_g)
        overlap -= np.maximum(top_p[i], top_g)
        inter[i] = np.clip(overlap, 0.0, None, out=overlap).sum(axis=1)
    area_p = np.clip(bot_p - top_p, 0.0, None).sum(axis=1)
    area_g = np.clip(bot_g - top_g, 0.0, None).sum(axis=1)
    union = area_p[:, None] + area_g[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        ious = np.where(union > 0, inter / union, 0.0)
    return np.where(labels_p[:, None] == labels_g[None, :], ious, -np.inf)


def per_threshold_junction_f(p, q, width, thresholds):
    """Reference for ``junction_f`` on (N, 2) pixel points: one greedy
    matching per threshold."""
    if len(p) == 0 and len(q) == 0:
        return 1.0
    if len(p) == 0 or len(q) == 0:
        return 0.0
    du = np.abs(p[:, 0][:, None] - q[:, 0][None, :])
    du = np.minimum(du, width - du)
    dist = np.sqrt(du**2 + (p[:, 1][:, None] - q[:, 1][None, :]) ** 2)
    scores = []
    for t in thresholds:
        order = np.argsort(dist, axis=None, kind="stable")
        used_p, used_q, matched = set(), set(), 0
        for k in order:
            i, j = divmod(int(k), dist.shape[1])
            if dist[i, j] > t:
                break
            if i not in used_p and j not in used_q:
                used_p.add(i)
                used_q.add(j)
                matched += 1
        precision, recall = matched / len(p), matched / len(q)
        f = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        scores.append(f)
    return float(np.mean(scores))


@pytest.fixture(scope="session")
def metric_oracle():
    """The earlier forms of rewritten ray-cast and metric helpers:
    ``.hit_params(origin, dirs, polygon)``, ``.seam_rows(rows, width, reach,
    pad)``, ``.planes(layout, rows, grid)``, ``.plane_ious(planes_p,
    planes_g)`` and ``.junction_f(p, q, width, thresholds)``."""
    return SimpleNamespace(
        hit_params=roll_hit_params,
        seam_rows=modulo_seam_rows,
        planes=looped_planes,
        plane_ious=full_plane_ious,
        junction_f=per_threshold_junction_f,
    )
