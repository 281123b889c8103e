"""Exact forward model: floor polygon + camera pose -> boundary signal + truth.

This is the oracle the rest of the package is tested against, so it stays
brute force on purpose: every column casts a ray against every polygon edge,
visibility of a vertex is decided by comparing its distance against the
nearest hit along its own ray, and occlusions fall out of silhouette
classification at visible vertices. No acceleration structures, no shortcuts.

Also hosts the seeded fixture-family generators used by the acceptance
experiments (square, rectangle, pentagon, hexagon, l_room, t_room); each
family rejection-samples rooms until the rendered signal is cleanly
detectable (well-separated corners, strong distance jumps at occlusions,
wall slopes safely below the detection thresholds elsewhere).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .detect import BoundarySignal
from .errors import GeometryError, InputError, RoomLayoutError
from .geometry import (
    CameraModel,
    CornerKind,
    LayoutCorner,
    VisibleLayout,
    floor_distance,
    floor_lat_of_distance,
    polygon_is_simple,
    polygon_signed_area,
)
from .panorama import ImageGrid, col_to_lon, cyclic_column_distance, lon_to_col, wrap_col

HIT_EPS = 1e-9
VIS_EPS = 1e-6
_PARITY_RAY = np.array([[1.0, 0.0]])  # the ray along +x that decides containment


def _min_edge_distance(point: np.ndarray, polygon: np.ndarray) -> float:
    a = polygon
    e = np.concatenate([a[1:], a[:1]]) - a
    t = np.clip(((point - a) * e).sum(1) / (e * e).sum(1), 0.0, 1.0)
    closest = a + t[:, None] * e
    return float(np.sqrt(((point - closest) ** 2).sum(1)).min())


@dataclass(frozen=True)
class SyntheticRoom:
    """A simple CCW floor polygon with a camera strictly inside it.

    World frame; the floor is z=0 and the ceiling z=room_height.
    """

    floor_polygon: np.ndarray
    room_height: float
    camera_position: np.ndarray
    camera_height: float = 1.6

    def __post_init__(self):
        poly = np.asarray(self.floor_polygon, dtype=float)
        cam = np.asarray(self.camera_position, dtype=float)
        poly.setflags(write=False)
        cam.setflags(write=False)
        object.__setattr__(self, "floor_polygon", poly)
        object.__setattr__(self, "camera_position", cam)
        if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
            raise InputError("floor_polygon must be an (N>=3, 2) array")
        if not polygon_is_simple(poly):
            raise InputError("floor_polygon is self-intersecting or degenerate")
        if polygon_signed_area(poly) <= 0:
            raise InputError("floor_polygon must be counterclockwise")
        if cam.shape != (2,):
            raise InputError("camera_position must be a 2-vector")
        # ray parity alone can classify boundary points as inside
        crossings = np.isfinite(_hit_params(cam, _PARITY_RAY, poly)).sum()
        if crossings % 2 == 0 or _min_edge_distance(cam, poly) < 1e-9:
            raise InputError("camera_position is not strictly inside the polygon")
        if not 0 < self.camera_height < self.room_height:
            raise InputError(
                f"need 0 < camera_height < room_height, got {self.camera_height}, {self.room_height}"
            )


def _hit_params(origin: np.ndarray, dirs: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """(E, C) matrix of ray parameters s to each edge; inf where no hit.

    An edge is hit where its two ends lie on different sides of the ray's
    line; each vertex has one side per ray, shared by both of its edges, so
    a ray through a vertex where the boundary crosses it hits one edge, and
    the parity of a ray's finite hits tells whether its origin is inside. s is
    held between the ends' projections on the ray, where the hit lies: on an
    edge along the ray, such as an occlusion edge, its quotient is noise.
    """
    a = polygon
    e = np.concatenate([a[1:], a[:1]]) - a
    w = a - origin
    dx, dy = dirs[:, 0][None, :], dirs[:, 1][None, :]
    ex, ey = e[:, 0][:, None], e[:, 1][:, None]
    wx, wy = w[:, 0][:, None], w[:, 1][:, None]
    side = wx * dy - wy * dx >= 0
    crosses = side != np.concatenate([side[1:], side[:1]])
    proj = wx * dx + wy * dy
    proj_next = np.concatenate([proj[1:], proj[:1]])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (wx * ey - wy * ex) / (dx * ey - dy * ex)
    s = np.fmin(np.fmax(s, np.minimum(proj, proj_next)), np.maximum(proj, proj_next))
    return np.where(crosses & (s > HIT_EPS), s, np.inf)


@functools.lru_cache(maxsize=8)
def _grid_rays(grid: ImageGrid) -> np.ndarray:
    """Read-only (width, 2) unit ray directions of a grid's column centers,
    as :func:`raycast` computes them from the columns' longitudes."""
    lons = col_to_lon(np.arange(grid.width), grid)
    dirs = np.stack([np.cos(lons), np.sin(lons)], axis=1)
    dirs.setflags(write=False)
    return dirs


def _raycast(
    origin: np.ndarray, polygon: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(s, dist)``: :func:`_hit_params` and each ray's nearest hit."""
    s = _hit_params(origin, dirs, polygon)
    dist = s.min(axis=0)
    if not np.all(np.isfinite(dist)):
        raise GeometryError("a ray escaped the polygon; camera outside or degenerate")
    return s, dist


def raycast(room: SyntheticRoom, lons) -> tuple[np.ndarray, np.ndarray]:
    """Nearest wall distance and edge index for each longitude."""
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    dirs = np.stack([np.cos(lons), np.sin(lons)], axis=1)
    s, dist = _raycast(room.camera_position, room.floor_polygon, dirs)
    return dist, s.argmin(axis=0)


def truth_layout(room: SyntheticRoom, grid: ImageGrid) -> VisibleLayout:
    """Exact visible layout: visible vertices plus silhouette near/far pairs.

    One :func:`_hit_params` matrix over the vertex rays classifies every
    vertex at once. A vertex is visible where no wall is hit before it. A
    visible vertex is a silhouette where both its walls lie on one side of
    its ray; it becomes a near/far pair with the first wall hit beyond it,
    near corner first where the near wall lies on the lower-longitude side.
    A camera ray along a wall at a visible vertex, or a silhouette without a
    wall behind it, is a geometry error naming the first such vertex.
    """
    poly, cam = room.floor_polygon, room.camera_position
    rel = poly - cam
    r = np.sqrt((rel**2).sum(axis=1))
    dirs = rel / r[:, None]
    s = _hit_params(cam, dirs, poly)
    visible = s.min(axis=0) >= r - VIS_EPS
    # each vertex ray's cross products with its walls to the previous and the next vertex
    prev, nxt = np.roll(poly, 1, axis=0) - poly, np.roll(poly, -1, axis=0) - poly
    ca = dirs[:, 0] * prev[:, 1] - dirs[:, 1] * prev[:, 0]
    cb = dirs[:, 0] * nxt[:, 1] - dirs[:, 1] * nxt[:, 0]
    collinear = visible & (
        (np.abs(ca) < 1e-9 * np.hypot(prev[:, 0], prev[:, 1]))
        | (np.abs(cb) < 1e-9 * np.hypot(nxt[:, 0], nxt[:, 1]))
    )
    silhouette = visible & (ca * cb > 0)
    far = np.where(s > r + VIS_EPS, s, np.inf).min(axis=0)
    bad = np.flatnonzero(collinear | (silhouette & np.isinf(far)))
    if bad.size:
        i = bad[0]
        if collinear[i]:
            raise GeometryError(
                f"camera ray collinear with a wall at vertex {i}; reposition the camera"
            )
        raise GeometryError(f"no wall behind silhouette vertex {i}")
    cols = wrap_col(lon_to_col(np.arctan2(rel[:, 1], rel[:, 0]), grid), grid.width).tolist()
    rows: list[tuple[float, float, CornerKind]] = []  # (column, distance, kind)
    for i in np.flatnonzero(visible).tolist():
        if silhouette[i]:
            near = (cols[i], r[i], CornerKind.OCCLUSION_NEAR)
            behind = (cols[i], far[i], CornerKind.OCCLUSION_FAR)
            rows += [near, behind] if ca[i] < 0 else [behind, near]
        else:
            rows.append((cols[i], r[i], CornerKind.VISIBLE))
    rows.sort(key=lambda row: row[0])  # stable: a pair keeps its boundary order
    dist = np.array([d for _, d, _ in rows])
    ceil = (-floor_lat_of_distance(dist, room.room_height - room.camera_height)).tolist()
    floor = floor_lat_of_distance(dist, room.camera_height).tolist()
    corners = [LayoutCorner(col, c, f, kind) for (col, _, kind), c, f in zip(rows, ceil, floor)]
    return VisibleLayout(
        corners, CameraModel(room.camera_height), room.room_height, grid
    )


def _check_integer(value, name: str, least: int) -> None:
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_sigma(value, name: str) -> None:
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0
    ):
        raise InputError(f"{name} must be a finite number >= 0, got {value!r}")


def corner_bumps(columns, width: int, sigma: float = 2.0) -> np.ndarray:
    """Per-column corner probability: unit Gaussian bumps at the given columns.

    Overlapping bumps combine by max so values stay in [0, 1]. ``sigma=0``
    gives a one-hot at the nearest integer column.
    """
    _check_integer(width, "width", 1)
    _check_sigma(sigma, "sigma")
    columns = np.atleast_1d(np.asarray(columns, dtype=float))
    if not np.isfinite(columns).all():
        raise InputError(f"corner column must be finite, got {columns[~np.isfinite(columns)][0]}")
    y_p = np.zeros(width)
    cols = np.arange(width, dtype=float)
    for c in columns:
        if sigma <= 0:
            y_p[int(round(c)) % width] = 1.0
            continue
        delta = np.abs(cols - (c % width))
        delta = np.minimum(delta, width - delta)
        np.maximum(y_p, np.exp(-0.5 * (delta / sigma) ** 2), out=y_p)
    return y_p


def render_signal(room: SyntheticRoom, grid: ImageGrid | None = None):
    """Render the exact boundary signal and its ground-truth visible layout.

    Each column's longitude is ray-cast to the nearest wall at distance d,
    giving y_f = -atan(camera_height / d) and
    y_c = atan((room_height - camera_height) / d); y_p carries a unit
    :func:`corner_bumps` bump at every visible vertex.
    """
    grid = grid or ImageGrid()
    _, dist = _raycast(room.camera_position, room.floor_polygon, _grid_rays(grid))
    y_c = -floor_lat_of_distance(dist, room.room_height - room.camera_height)
    y_f = floor_lat_of_distance(dist, room.camera_height)
    truth = truth_layout(room, grid)
    peak_cols = [
        c.column
        for c in truth.corners
        if c.kind is not CornerKind.OCCLUSION_FAR
    ]
    y_p = corner_bumps(peak_cols, grid.width)
    return BoundarySignal(y_p, y_c, y_f), truth


def layout_boundaries(layout: VisibleLayout):
    """Per-column (y_c, y_f) implied by a visible layout's floor polygon, at
    every column of the layout's grid.

    Re-renders the layout from its own camera, so occlusion edges (collinear
    with rays) never register as walls. The polygon is ray-cast as it is: a
    ``VisibleLayout`` winds once around its camera, below a room higher than
    the camera, so every ray meets a wall. The grid's ray directions are
    computed once per grid and cached.
    """
    h = layout.camera.camera_height
    _, dist = _raycast(np.zeros(2), layout.floor_points(), _grid_rays(layout.grid))
    return -floor_lat_of_distance(dist, layout.room_height - h), floor_lat_of_distance(dist, h)


def perturb_signal(signal, noise_sigma: float, seed: int = 0):
    """Seeded Gaussian noise on both boundary curves; y_p untouched."""
    _check_sigma(noise_sigma, "noise_sigma")
    _check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    margin = 1e-4
    half_pi = np.pi / 2
    y_c = np.clip(signal.y_c + rng.normal(0.0, noise_sigma, signal.width), margin, half_pi - margin)
    y_f = np.clip(signal.y_f + rng.normal(0.0, noise_sigma, signal.width), -half_pi + margin, -margin)
    return BoundarySignal(signal.y_p, y_c, y_f)


# --- fixture families ---

FIXTURE_FAMILIES = ("square", "rectangle", "pentagon", "hexagon", "l_room", "t_room")

_FAMILY_IDS = {name: i + 1 for i, name in enumerate(FIXTURE_FAMILIES)}
_EXPECTED_PAIRS = {
    "square": 0,
    "rectangle": 0,
    "pentagon": 0,
    "hexagon": 0,
    "l_room": 1,
    "t_room": 2,
}

# detectability margins used by the rejection predicate
_MIN_CORNER_SEP = 20  # columns at width 1024
_MIN_CAMERA_CLEARANCE = 1.05  # meters to nearest wall
_MAX_SMOOTH_STEP = 0.007  # radians/column away from occlusion jumps
_MIN_JUMP_STEP = 0.04  # radians across an occlusion jump (floor curve)
_MIN_JUMP_RATIO = 1.25  # distance ratio across an occlusion jump
_MAX_SMOOTH_RATIO = 1.10  # distance ratio away from jumps


def _rotate(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T


def _sample_square(rng) -> SyntheticRoom:
    half = rng.uniform(2.4, 3.4)
    poly = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    m = half - 1.7
    cam = rng.uniform(-m, m, 2)
    angle = rng.uniform(0, math.pi / 2)
    return SyntheticRoom(
        _rotate(poly, angle), rng.uniform(2.7, 3.4), _rotate(cam[None, :], angle)[0], 1.6
    )


def _sample_rectangle(rng) -> SyntheticRoom:
    hx = rng.uniform(2.6, 3.5)
    hy = rng.uniform(1.9, hx - 0.5)
    poly = np.array([[-hx, -hy], [hx, -hy], [hx, hy], [-hx, hy]])
    cam = np.array([rng.uniform(-(hx - 1.7), hx - 1.7), rng.uniform(-(hy - 1.7), hy - 1.7)])
    angle = rng.uniform(0, math.pi)
    return SyntheticRoom(
        _rotate(poly, angle), rng.uniform(2.7, 3.4), _rotate(cam[None, :], angle)[0], 1.6
    )


def _sample_ellipse_convex(rng, n: int) -> SyntheticRoom:
    # vertices in angular order on an ellipse are always convex
    a = rng.uniform(2.8, 3.6)
    b = rng.uniform(2.4, 3.1)
    base = np.arange(n) * 2 * math.pi / n
    ang = base + rng.uniform(-0.22, 0.22, n)
    ang = np.sort(ang) + rng.uniform(0, 2 * math.pi)
    poly = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
    poly = _rotate(poly, rng.uniform(0, math.pi))
    cam = rng.uniform(-0.45, 0.45, 2) + poly.mean(axis=0)
    return SyntheticRoom(poly, rng.uniform(2.7, 3.4), cam, 1.6)


def _sample_l_room(rng) -> SyntheticRoom:
    b = rng.uniform(2.7, 3.2)  # bottom arm depth
    c = rng.uniform(2.1, 2.7)  # left column width
    a = c + rng.uniform(3.5, 4.3)  # full width; keeps a camera box right of the column
    d = b + rng.uniform(1.7, 2.7)  # left column full depth
    poly = np.array([[0, 0], [a, 0], [a, b], [c, b], [c, d], [0, d]], dtype=float)
    cam = np.array([rng.uniform(c + 1.6, a - 1.6), rng.uniform(1.15, b - 1.15)])
    return SyntheticRoom(poly, rng.uniform(2.7, 3.4), cam, 1.6)


def _sample_t_room(rng) -> SyntheticRoom:
    w = rng.uniform(7.0, 8.5)  # bar width
    hw = rng.uniform(1.25, 1.6)  # stem half-width
    ws = w / 2 + rng.uniform(-0.4, 0.4)  # stem center
    h1 = rng.uniform(2.7, 3.2)  # stem depth
    h2 = h1 + rng.uniform(1.7, 2.5)  # bar top
    s1, s2 = ws - hw, ws + hw
    poly = np.array(
        [[s1, 0], [s2, 0], [s2, h1], [w, h1], [w, h2], [0, h2], [0, h1], [s1, h1]],
        dtype=float,
    )
    off = hw - 1.15
    cam = np.array([ws + rng.uniform(-off, off), rng.uniform(1.15, h1 - 1.15)])
    return SyntheticRoom(poly, rng.uniform(2.7, 3.4), cam, 1.6)


_SAMPLERS = {
    "square": _sample_square,
    "rectangle": _sample_rectangle,
    "pentagon": lambda rng: _sample_ellipse_convex(rng, 5),
    "hexagon": lambda rng: _sample_ellipse_convex(rng, 6),
    "l_room": _sample_l_room,
    "t_room": _sample_t_room,
}


def _fixture_ok(room: SyntheticRoom, signal, truth: VisibleLayout, expected_pairs: int) -> bool:
    """Signal-level detectability check of a rendered room; never consults the
    detection code."""
    pairs = truth.occlusion_pairs()
    if len(pairs) != expected_pairs:
        return False
    w = truth.grid.width
    cols = [c.column for c in truth.corners]
    for i, j in truth.wall_edges():
        if cyclic_column_distance(cols[i], cols[j], w) < _MIN_CORNER_SEP:
            return False
    dist = floor_distance(signal.y_f, room.camera_height)
    if dist.min() < _MIN_CAMERA_CLEARANCE:
        return False
    jump_cols = np.array(sorted({cols[p[0]] for p in pairs}), dtype=float)
    # (column, jump) mask of the columns within 2 of each jump
    windows = cyclic_column_distance(np.arange(w)[:, None], jump_cols[None, :], w) <= 2
    near_jump = windows.any(axis=1)
    for y in (signal.y_f, signal.y_c):
        step = np.abs(np.concatenate([y[1:], y[:1]]) - y)
        if step[~near_jump].size and step[~near_jump].max() > _MAX_SMOOTH_STEP:
            return False
        if expected_pairs and y is signal.y_f:
            for window in windows.T:
                if step[window].max() < _MIN_JUMP_STEP:
                    return False
    dist_next = np.concatenate([dist[1:], dist[:1]])
    ratio = np.maximum(dist, dist_next) / np.minimum(dist, dist_next)
    if ratio[~near_jump].size and ratio[~near_jump].max() > _MAX_SMOOTH_RATIO:
        return False
    for window in windows.T:
        if ratio[window].max() < _MIN_JUMP_RATIO:
            return False
    return True


def make_fixture(family: str, seed: int, grid: ImageGrid | None = None) -> SyntheticRoom:
    """Deterministic, detectable fixture room for a family and seed."""
    return _rendered_fixture(family, seed, grid)[0]


def _rendered_fixture(family: str, seed: int, grid: ImageGrid | None = None):
    """``(room, signal, truth)``: ``make_fixture``'s room and the render its
    detectability check accepted."""
    if family not in _SAMPLERS:
        raise InputError(f"unknown fixture family {family!r}; choose from {FIXTURE_FAMILIES}")
    _check_integer(seed, "seed", 0)
    grid = grid or ImageGrid()
    rng = np.random.default_rng([_FAMILY_IDS[family], seed])
    for _ in range(400):
        try:
            room = _SAMPLERS[family](rng)
            signal, truth = render_signal(room, grid)
        except RoomLayoutError:
            continue
        if _fixture_ok(room, signal, truth, _EXPECTED_PAIRS[family]):
            return room, signal, truth
    raise RuntimeError(f"could not sample a detectable {family} fixture for seed {seed}")
