"""Boundary latitudes -> 3D points, distance profiles, and layout assembly.

The camera sits at the origin of the floor plan at ``camera_height`` meters
above the floor plane z=0. A floor boundary latitude ``y_f < 0`` determines
the horizontal distance to the wall below the horizon; a ceiling latitude
``y_c > 0`` does the same above it, given a room height. No perpendicularity
constraint between walls is applied anywhere: layouts are general simple
polygons.

Visible layouts carry occlusion pairs: two corners joined by an edge along a
single camera ray, flanking a region whose geometry is hidden from the
camera. Hidden geometry is never completed or invented.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AssemblyError, EstimationError, GeometryError, InputError
from .panorama import ImageGrid, col_to_lon

if TYPE_CHECKING:  # pragma: no cover
    from .detect import BoundarySignal


@dataclass(frozen=True)
class CameraModel:
    """Camera height above the floor, meters. The absolute scale of a scene."""

    camera_height: float = 1.6

    def __post_init__(self):
        h = self.camera_height
        if not (isinstance(h, numbers.Real) and 0 < h < math.inf):
            raise InputError(f"camera_height must be a finite number > 0, got {h!r}")


class CornerKind(str, enum.Enum):
    VISIBLE = "visible"
    OCCLUSION_NEAR = "occlusion_near"
    OCCLUSION_FAR = "occlusion_far"


OCCLUSION_KINDS = (CornerKind.OCCLUSION_NEAR, CornerKind.OCCLUSION_FAR)


@dataclass(frozen=True)
class LayoutCorner:
    """One wall junction: a real-valued column plus its two boundary latitudes."""

    column: float
    ceil_lat: float
    floor_lat: float
    kind: CornerKind = CornerKind.VISIBLE

    def __post_init__(self):
        if not -math.pi / 2 < self.floor_lat < 0 < self.ceil_lat < math.pi / 2:
            raise GeometryError(
                "corner needs floor_lat < 0 < ceil_lat, both within pi/2 of the "
                f"horizon, got ({self.floor_lat}, {self.ceil_lat})"
            )


def floor_point(lon: float, floor_lat: float, cam: CameraModel) -> np.ndarray:
    """Project a floor-boundary direction to the floor plane (camera at origin).

    The horizontal distance to the wall is ``camera_height / tan(-floor_lat)``.
    """
    if floor_lat >= 0:
        raise GeometryError(f"floor boundary at lat {floor_lat} is not below the horizon")
    d = cam.camera_height / math.tan(-floor_lat)
    return np.array([d * math.cos(lon), d * math.sin(lon)])


def floor_distance(floor_lat, camera_height: float):
    """Horizontal wall distance from a floor latitude (array-friendly)."""
    return camera_height / np.tan(-np.asarray(floor_lat, dtype=float))


def floor_lat_of_distance(d, camera_height: float):
    """Inverse of :func:`floor_distance`."""
    return -np.arctan2(camera_height, np.asarray(d, dtype=float))


def wall_distance_profile(lats, cam: CameraModel, room_height: float | None = None) -> np.ndarray:
    """Per-column horizontal wall distance from a boundary-latitude profile.

    Floor profiles (all latitudes < 0) use the camera height; ceiling profiles
    (all latitudes > 0) use ``room_height - camera_height`` and require
    ``room_height``. A latitude on the wrong side of the horizon is a
    geometry error naming the offending column.
    """
    lats = np.asarray(lats, dtype=float)
    if lats.ndim != 1 or lats.size == 0:
        raise InputError("latitude profile must be a non-empty 1D array")
    is_floor = np.count_nonzero(lats < 0) >= np.count_nonzero(lats > 0)
    bad = np.flatnonzero(lats >= 0 if is_floor else lats <= 0)
    if bad.size:
        side = "floor" if is_floor else "ceiling"
        raise GeometryError(
            f"{side} latitude on wrong side of horizon at column {bad[0]}"
        )
    if is_floor:
        return cam.camera_height / np.tan(-lats)
    if room_height is None:
        raise InputError("ceiling profile requires room_height")
    eff = room_height - cam.camera_height
    if eff <= 0:
        raise GeometryError(f"room_height {room_height} not above camera")
    return eff / np.tan(lats)


def estimate_room_height(signal: "BoundarySignal", cam: CameraModel) -> float:
    """Camera height plus the median per-column ceiling height above the camera.

    The median resists boundary outliers near occlusions.
    """
    y_c = np.asarray(signal.y_c, dtype=float)
    y_f = np.asarray(signal.y_f, dtype=float)
    valid = (y_f < 0) & (y_c > 0) & np.isfinite(y_f) & np.isfinite(y_c)
    if np.count_nonzero(valid) < 8:
        raise EstimationError(
            f"room height needs >= 8 valid columns, got {np.count_nonzero(valid)}"
        )
    d_floor = cam.camera_height / np.tan(-y_f[valid])
    z_c = d_floor * np.tan(y_c[valid])
    return cam.camera_height + float(np.median(z_c))


# --- small polygon helpers (shared with the synthetic oracle) ---


def polygon_signed_area(points: np.ndarray) -> float:
    nxt = np.concatenate([points[1:], points[:1]])
    return 0.5 * float(np.sum(points[:, 0] * nxt[:, 1] - nxt[:, 0] * points[:, 1]))


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(a, b, c) -> bool:
    return (
        min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
        and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
    )


def segments_properly_intersect(p1, p2, q1, q2) -> bool:
    """True if the open segments cross or overlap (shared endpoints excluded)."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    if 0 not in (d1, d2, d3, d4):
        return False
    # collinear overlap
    for d, a, b, c in ((d1, q1, q2, p1), (d2, q1, q2, p2), (d3, p1, p2, q1), (d4, p1, p2, q2)):
        if d == 0 and _on_segment(a, b, c) and not (
            np.allclose(c, a) or np.allclose(c, b)
        ):
            return True
    return False


def polygon_is_simple(points: np.ndarray) -> bool:
    """Brute-force pairwise edge test on Python floats; fine for layout-sized
    polygons. A polygon with a non-finite vertex is not simple."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3 or not np.isfinite(pts).all():
        return False
    p = pts.tolist()
    for i in range(n):
        a, b = p[i], p[(i + 1) % n]
        (ax, ay), (bx, by) = a, b
        # np.allclose(a, b) on finite floats: a zero-length edge
        if abs(ax - bx) <= 1e-8 + 1e-5 * abs(bx) and abs(ay - by) <= 1e-8 + 1e-5 * abs(by):
            return False
        for j in range(i + 2, n - (i == 0)):  # adjacent edges share a vertex
            if segments_properly_intersect(a, b, p[j], p[(j + 1) % n]):
                return False
    return True


def point_in_polygon(point, points: np.ndarray) -> bool:
    """Even-odd crossing test; boundary points may land on either side."""
    x, y = float(point[0]), float(point[1])
    inside = False
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        if (y1 <= y) != (y2 <= y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def gap_reaches_half_turn(a: float, b: float, width: int) -> bool:
    """True if column ``b``, unwrapped to lie at or after ``a``, is half a
    turn or more past it: corners with such a gap cannot surround the camera."""
    return b - a >= width / 2


@dataclass(frozen=True)
class VisibleLayout:
    """An ordered cyclic corner list with camera model, room height, and grid.

    Corners are sorted by increasing column; the two corners of an occlusion
    pair share a column (they lie on one camera ray) and are adjacent in the
    list, in the order the boundary traverses them. Every cyclic gap between
    neighbouring columns is below half a turn, so the floor polygon traced
    through the corners' floor points winds once around the camera, and it
    is simple. The room is higher than the camera. The occlusion pairs and
    the floor polygon are worked out once, at construction.
    """

    corners: list[LayoutCorner]
    camera: CameraModel = field(default_factory=CameraModel)
    room_height: float = 3.2
    grid: ImageGrid = field(default_factory=ImageGrid)

    def __post_init__(self):
        h = self.camera.camera_height
        if not h < self.room_height < math.inf:
            raise GeometryError(
                f"need camera_height < room_height < inf, got {h}, {self.room_height}"
            )
        if len(self.corners) < 3:
            raise AssemblyError(f"layout needs >= 3 corners, got {len(self.corners)}")
        self._check_order_and_pairs()
        floor = np.array(
            [floor_point(lon, c.floor_lat, self.camera) for lon, c in zip(self.lons(), self.corners)]
        )
        object.__setattr__(self, "_floor", floor)
        if not polygon_is_simple(floor):
            raise AssemblyError("floor polygon is self-intersecting or degenerate")

    def _check_order_and_pairs(self):
        """One walk over the sorted corners: each gap to the next corner,
        cyclically, is below half a turn; each occlusion corner pairs with
        the next corner, which must be of the opposite occlusion kind in the
        same column, and the near corner must be closer than that partner."""
        corners, n, w = self.corners, len(self.corners), self.grid.width
        h = self.camera.camera_height
        pairs: list[tuple[int, int]] = []
        for i, c in enumerate(corners):
            if not 0 <= c.column < w:
                raise AssemblyError(f"corner column {c.column} outside [0, {w})")
            prev = corners[i - 1]  # for i = 0, the last corner, across the seam
            if gap_reaches_half_turn(prev.column, c.column + (0 if i else w), w):
                raise AssemblyError(
                    f"corners at columns {prev.column} and {c.column} leave half a turn "
                    "or more between them, so the layout does not surround its camera"
                )
            if i:
                if c.column < prev.column - 1e-9:
                    raise AssemblyError("corners not sorted by column")
                if c.column - prev.column < 1e-9 and not (
                    c.kind in OCCLUSION_KINDS and prev.kind in OCCLUSION_KINDS
                ):
                    raise AssemblyError(f"duplicate corner column {prev.column}")
            if c.kind is CornerKind.VISIBLE or (pairs and pairs[-1][1] == i):
                continue
            partner = corners[i + 1] if i + 1 < n else None
            if (
                partner is None
                or {c.kind, partner.kind} != set(OCCLUSION_KINDS)
                or abs(c.column - partner.column) >= 1e-6
            ):
                raise AssemblyError(
                    f"occlusion corner at column {c.column} has no adjacent partner"
                )
            near, far = (c, partner) if c.kind is CornerKind.OCCLUSION_NEAR else (partner, c)
            if floor_distance(near.floor_lat, h) >= floor_distance(far.floor_lat, h):
                raise AssemblyError(
                    f"occlusion pair at column {near.column}: near point not closer than far"
                )
            pairs.append((i, i + 1))
        object.__setattr__(self, "_pairs", pairs)

    def lons(self) -> np.ndarray:
        return col_to_lon(np.array([c.column for c in self.corners]), self.grid)

    def floor_points(self) -> np.ndarray:
        """(N, 2) floor polygon vertices in corner order, camera at origin."""
        return self._floor.copy()

    def occlusion_pairs(self) -> list[tuple[int, int]]:
        """Indices (i, i + 1) of the occlusion pairs, polygon order."""
        return list(self._pairs)

    def wall_edges(self) -> list[tuple[int, int]]:
        """Corner index pairs of true wall edges (occlusion edges excluded)."""
        occ = set(self._pairs)
        n = len(self.corners)
        return [(i, (i + 1) % n) for i in range(n) if (i, (i + 1) % n) not in occ]

    def floor_area(self) -> float:
        return abs(polygon_signed_area(self._floor))


def assemble_layout(
    corners: Sequence[LayoutCorner],
    signal: "BoundarySignal",
    cam: CameraModel,
) -> VisibleLayout:
    """Close a corner sequence into a visible layout.

    The corners are sorted by column; the sort is stable, so the two corners
    of an occlusion pair, which share a column, keep their given boundary
    order. Room height is estimated from the signal, and the layout lies on
    the signal's grid. A self-intersecting floor polygon, or an occlusion
    corner without an adjacent partner of the opposite kind in its column,
    is an assembly error.
    """
    room_height = estimate_room_height(signal, cam)
    ordered = sorted(corners, key=lambda c: c.column)
    return VisibleLayout(ordered, cam, room_height, signal.grid)
