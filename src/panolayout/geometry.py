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
        if isinstance(h, bool) or not (isinstance(h, numbers.Real) and 0 < h < math.inf):
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


def floor_distance(floor_lat, camera_height: float):
    """Horizontal wall distance of floor latitude(s) below the horizon, seen
    from ``camera_height``: ``camera_height / tan(-floor_lat)``.

    The ceiling is the floor mirrored about the camera's height: a ceiling
    latitude ``y_c`` under a room of height ``H`` is the floor latitude
    ``-y_c`` seen from ``H - camera_height``, so its distance is
    ``floor_distance(-y_c, H - camera_height)``. A latitude so close to the
    horizon that the quotient overflows is at distance ``inf``.
    """
    with np.errstate(over="ignore"):
        return camera_height / np.tan(-np.asarray(floor_lat, dtype=float))


def floor_lat_of_distance(d, camera_height: float):
    """Inverse of :func:`floor_distance`. A ceiling latitude is the mirror
    image: ``-floor_lat_of_distance(d, H - camera_height)``."""
    return -np.arctan2(camera_height, np.asarray(d, dtype=float))


def wall_distance_profile(lats, cam: CameraModel, room_height: float | None = None) -> np.ndarray:
    """Per-column horizontal wall distance from a boundary-latitude profile.

    Without ``room_height`` the profile is a floor boundary (latitudes < 0)
    seen from the camera height; with it, a ceiling boundary (latitudes > 0)
    seen from ``room_height - camera_height``. A latitude on the wrong side
    of the horizon, or one so close to it that its wall lies at infinity, is
    a geometry error naming the offending column.
    """
    lats = np.asarray(lats, dtype=float)
    if lats.ndim != 1 or lats.size == 0:
        raise InputError("latitude profile must be a non-empty 1D array")
    if room_height is None:
        side, height, floor_lats = "floor", cam.camera_height, lats
    else:
        if not room_height > cam.camera_height:
            raise GeometryError(f"room_height {room_height} not above camera")
        side, height, floor_lats = "ceiling", room_height - cam.camera_height, -lats
    bad = np.flatnonzero(~(floor_lats < 0))
    if bad.size:
        raise GeometryError(f"{side} latitude on wrong side of horizon at column {bad[0]}")
    d = floor_distance(floor_lats, height)
    bad = np.flatnonzero(np.isinf(d))
    if bad.size:
        raise GeometryError(
            f"{side} latitude at column {bad[0]} is too close to the horizon: "
            "its wall lies at infinity"
        )
    return d


def _median_height(floor_lats, ceil_lats, camera_height: float) -> float:
    """Camera height plus the median of the ceiling heights above the camera
    that paired floor and ceiling latitudes imply: the floor latitude fixes
    the wall distance, and the ceiling latitude rises over it."""
    z_c = floor_distance(floor_lats, camera_height) * np.tan(ceil_lats)
    return camera_height + float(np.median(z_c))


def estimate_room_height(signal: "BoundarySignal", cam: CameraModel) -> float:
    """Camera height plus the median per-column ceiling height above the camera.

    The median resists boundary outliers near occlusions. Every column of a
    ``BoundarySignal`` has a finite floor latitude below the horizon and a
    ceiling latitude above it, so every column counts.
    """
    if signal.width < 8:
        raise EstimationError(f"room height needs >= 8 columns, got {signal.width}")
    return _median_height(signal.y_f, signal.y_c, cam.camera_height)


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
    list, in the order the boundary traverses them. No other two corners
    share a column. Every cyclic gap between neighbouring columns is below
    half a turn, so each edge of the floor polygon traced through the
    corners' floor points stays inside the wedge between its two corners'
    rays, and those wedges tile the circle around the camera once: the
    polygon winds once around the camera and is simple. The room is higher
    than the camera. The occlusion pairs and the floor polygon are worked
    out once, at construction.
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
        d = floor_distance([c.floor_lat for c in self.corners], h)
        if not np.isfinite(d).all():
            raise AssemblyError("floor polygon has a vertex at infinity")
        lons = self.lons()
        object.__setattr__(self, "_floor", np.stack([d * np.cos(lons), d * np.sin(lons)], axis=1))

    def _check_order_and_pairs(self):
        """One walk over the sorted corners: each gap to the next corner,
        cyclically, is below half a turn, and zero only inside an occlusion
        pair; each occlusion corner pairs with the next corner, which must be
        of the opposite occlusion kind in the same column, and the near
        corner must be closer than that partner."""
        corners, n, w = self.corners, len(self.corners), self.grid.width
        h = self.camera.camera_height
        pairs: list[tuple[int, int]] = []
        for i, c in enumerate(corners):
            if not 0 <= c.column < w:
                raise AssemblyError(f"corner column {c.column} outside [0, {w})")
            prev = corners[i - 1]  # for i = 0, the last corner, across the seam
            col = c.column + (0 if i else w)
            if gap_reaches_half_turn(prev.column, col, w):
                raise AssemblyError(
                    f"corners at columns {prev.column} and {c.column} leave half a turn "
                    "or more between them, so the layout does not surround its camera"
                )
            if col < prev.column - 1e-9:
                raise AssemblyError("corners not sorted by column")
            closes_pair = bool(pairs) and pairs[-1][1] == i
            # corners share a column, and so a camera ray, only as an occlusion pair
            if col - prev.column < 1e-9 and not closes_pair:
                raise AssemblyError(f"duplicate corner column {prev.column}")
            if c.kind is CornerKind.VISIBLE or closes_pair:
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
