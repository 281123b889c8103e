"""Equirectangular image-coordinate <-> spherical-coordinate conversions.

Conventions used everywhere in this package:

* pixel centers sit at half-integer offsets, so column ``u`` maps to the
  longitude of ``u + 0.5`` pixel widths from the left edge;
* longitude is canonical in ``[-pi, pi)`` and increases with the column;
* latitude is in ``(-pi/2, pi/2)`` and decreases with the row (row 0 is the
  top of the panorama);
* columns are cyclic: all column arithmetic downstream is modulo ``width``,
  and real-valued columns fold into ``[0, width)`` with :func:`wrap_col`.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InputError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ImageGrid:
    """Pixel grid of a full 2:1 equirectangular panorama, set by its width:
    an even integer >= 4, so the height is a whole number of rows."""

    width: int = 1024

    def __post_init__(self):
        w = self.width
        if isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 4 or w % 2:
            raise InputError(f"grid width must be an even integer >= 4, got {w!r}")
        object.__setattr__(self, "width", int(w))  # a numpy integer is not JSON

    @property
    def height(self) -> int:
        return self.width // 2

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)


def wrap_lon(lon):
    """Wrap longitude(s) into the canonical interval [-pi, pi).

    Values already in [-pi, pi) pass through unchanged, so the wrap is
    idempotent. Others are folded by a full turn; the result is never ``pi``
    (a fold that rounds onto ``pi`` gives ``-pi``, the same direction).
    """
    lon = np.asarray(lon, dtype=float)
    folded = (lon + math.pi) % TWO_PI - math.pi
    folded = np.where(folded == math.pi, -math.pi, folded)
    return np.where((lon >= -math.pi) & (lon < math.pi), lon, folded)


def col_to_lon(u, grid: ImageGrid = ImageGrid()):
    """Longitude of column ``u`` (integer or real-valued, 0 <= u < width).

    Not wrapped: columns in ``(width - 0.5, width)`` lie right of the image of
    ``pi`` and give longitudes in ``(pi, pi + pi / width)``, outside the
    canonical range. Pass the result through :func:`wrap_lon` where a
    canonical longitude is needed.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u >= grid.width):
        raise InputError(f"column index out of range [0, {grid.width})")
    lon = _col_lon(u, grid.width)
    return float(lon) if lon.ndim == 0 else lon


def _col_lon(u: np.ndarray, width: int) -> np.ndarray:
    """:func:`col_to_lon` without its range check, for float columns already
    known to lie in [0, width)."""
    return ((u + 0.5) / width - 0.5) * TWO_PI


def row_to_lat(v, grid: ImageGrid = ImageGrid()):
    """Latitude of row ``v`` (integer or real-valued, 0 <= v < height)."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0) or np.any(v >= grid.height):
        raise InputError(f"row index out of range [0, {grid.height})")
    lat = math.pi / 2 - ((v + 0.5) / grid.height) * math.pi
    return float(lat) if lat.ndim == 0 else lat


def lon_to_col(lon, grid: ImageGrid = ImageGrid()):
    """Real-valued column of a longitude; exact inverse of :func:`col_to_lon`.

    Longitudes are wrapped into [-pi, pi) first, so ``lon = -pi`` lands on the
    left column boundary at -0.5. The map is non-decreasing and its image is
    ``[-0.5, width - 0.5)``: ``width - 0.5`` is the image of ``pi``, the same
    direction as ``-pi``, so a longitude just below ``pi`` whose column rounds
    onto it is held at the largest float below it.
    """
    lon = wrap_lon(lon)
    col = (lon / TWO_PI + 0.5) * grid.width - 0.5
    col = np.minimum(col, np.nextafter(grid.width - 0.5, -math.inf))
    return float(col) if col.ndim == 0 else col


def lat_to_row(lat, grid: ImageGrid = ImageGrid()):
    """Real-valued row of a latitude; exact inverse of :func:`row_to_lat`."""
    lat = np.asarray(lat, dtype=float)
    if np.any(np.abs(lat) >= math.pi / 2):
        raise GeometryError("latitude at or beyond a pole has no row")
    row = (0.5 - lat / math.pi) * grid.height - 0.5
    return float(row) if row.ndim == 0 else row


def wrap_col(col, width: int):
    """Fold real-valued column(s) into [0, width).

    ``%`` alone returns ``width`` itself for a negative column within half an
    ulp of 0 (``-2**-44 % 1024 == 1024.0``); that column is the position of
    column 0 and comes back as 0.
    """
    c = np.asarray(col, dtype=float) % width
    c = np.where(c == width, 0.0, c)
    return float(c) if c.ndim == 0 else c


def cyclic_column_distance(a, b, width: int):
    """Shortest distance between two column positions on a cyclic panorama."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % width
    d = np.minimum(d, width - d)
    return float(d) if d.ndim == 0 else d
