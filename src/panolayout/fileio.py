"""Parsers and emitters for every on-disk format.

Everything here is pure text/bytes in, value out; the CLI owns the file
system. Numeric emission uses Python's shortest round-trip representation,
so emit/parse cycles are lossless and golden files stay diffable.

Formats:
  signal file   magic line "PANOSIG1", width line, then three rows of width
                floats: corner probability, ceiling latitudes, floor
                latitudes (radians).
  corner txt    one "x y" pixel pair per line, alternating ceiling/floor at a
                shared x, x ascending between corners; parses into a visible
                layout of visible corners on a given grid and camera.
  layout json   lossless serialization of a visible layout.
  PLY           ASCII mesh: floor/ceiling fans plus wall quads; occlusion
                spans are left open, since their geometry is unknown.
  SVG           top-down floor polygons to scale, occlusion edges dashed,
                camera marked; multiple layouts overlay for comparison.
  report        per-scene metric rows plus aggregate means as a padded table
                or CSV.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .detect import BoundarySignal
from .errors import EmitError, ParseError, RoomLayoutError
from .geometry import (
    CameraModel,
    CornerKind,
    LayoutCorner,
    VisibleLayout,
    floor_distance,
)
from .metrics import MetricReport
from .panorama import ImageGrid, lat_to_row, row_to_lat

SIGNAL_MAGIC = "PANOSIG1"
LAYOUT_FORMAT = "visible-layout-1"


def _text(data, what: str) -> str:
    """``data`` as text: bytes are decoded as UTF-8."""
    if not isinstance(data, bytes):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} is not UTF-8: {e}") from None


def _json(data, what: str):
    """``data`` decoded as a JSON document. Besides JSONDecodeError, json.loads
    raises ValueError for an integer of over 4300 digits and RecursionError
    for deep nesting."""
    text = _text(data, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"invalid json: {e}") from None


# --- boundary signal files ---


def parse_signal_file(data) -> BoundarySignal:
    """Parse a signal file (bytes or text) into a validated BoundarySignal."""
    tokens = _text(data, "signal file").split()
    if not tokens or tokens[0] != SIGNAL_MAGIC:
        got = tokens[0][:16] if tokens else "<empty>"
        raise ParseError(f"bad magic: expected {SIGNAL_MAGIC}, got {got!r}")
    if len(tokens) < 2:
        raise ParseError("missing width")
    try:
        width = int(tokens[1])
    except ValueError:
        raise ParseError(f"width is not an integer: {tokens[1]!r}") from None
    if width < 1:
        raise ParseError(f"width must be >= 1, got {width}")
    values = tokens[2:]
    if len(values) != 3 * width:
        raise ParseError(
            f"expected {3 * width} values for width {width}, got {len(values)}"
        )
    try:
        nums = np.array(list(map(float, values)))
    except ValueError:
        for k, tok in enumerate(values):  # find the first bad token to name it
            try:
                float(tok)
            except ValueError:
                name = ("y_p", "y_c", "y_f")[k // width]
                raise ParseError(f"{name} column {k % width}: not a number: {tok!r}") from None
    try:
        return BoundarySignal(*nums.reshape(3, width))
    except RoomLayoutError as e:
        raise ParseError(str(e)) from None


def emit_signal_file(signal: BoundarySignal) -> str:
    lines = [SIGNAL_MAGIC, str(signal.width)]
    for row in (signal.y_p, signal.y_c, signal.y_f):
        lines.append(" ".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


# --- corner annotations ---


def parse_corner_txt(data, grid: ImageGrid | None = None,
                     camera: CameraModel | None = None) -> VisibleLayout:
    """Parse alternating ceiling/floor "x y" pixel lines into a visible layout.

    Line 2k is a corner's ceiling point and line 2k+1 its floor point at the
    same x (0.5 px tolerance); corners must come in ascending x. The format
    stores neither the pixel grid nor the camera, so both are parameters
    (default 1024x512 and a 1.6 m camera). Rows become latitudes on ``grid``;
    every corner is visible, and the room height is the median of the
    heights the corners imply.
    """
    text = _text(data, "corner txt")
    grid = grid or ImageGrid()
    camera = camera or CameraModel()
    points = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'x y', got {raw!r}")
        try:
            points.append((float(parts[0]), float(parts[1]), lineno))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric token in {raw!r}") from None
        last_line = lineno
    if not points:
        raise ParseError("no corner lines")
    if len(points) % 2:
        raise ParseError(f"line {last_line}: odd number of corner lines ({len(points)})")
    h = camera.camera_height
    corners = []
    heights = []
    prev_x = -math.inf
    for k in range(0, len(points), 2):
        (x1, y1, l1), (x2, y2, l2) = points[k], points[k + 1]
        if abs(x1 - x2) > 0.5:
            raise ParseError(f"line {l2}: pair x mismatch ({x1} vs {x2})")
        if not y1 < y2:
            raise ParseError(f"line {l2}: ceiling row {y1} not above floor row {y2}")
        x = (x1 + x2) / 2.0
        if x <= prev_x:
            raise ParseError(f"line {l1}: corner x {x} not ascending")
        prev_x = x
        try:
            corner = LayoutCorner(x, row_to_lat(y1, grid), row_to_lat(y2, grid))
        except RoomLayoutError as e:
            raise ParseError(f"line {l1}: {e}") from None
        corners.append(corner)
        d = float(floor_distance(corner.floor_lat, h))
        heights.append(h + d * math.tan(corner.ceil_lat))
    try:
        return VisibleLayout(corners, camera, float(np.median(heights)), grid)
    except RoomLayoutError as e:
        raise ParseError(str(e)) from None


def emit_corner_txt(layout: VisibleLayout) -> str:
    """Each corner's column with its ceiling row, then with its floor row, on
    ``layout.grid``. The format has no corner kinds, so a layout with
    occlusion pairs cannot be written."""
    if layout.occlusion_pairs():
        raise EmitError("corner txt cannot represent occlusion pairs")
    lines = []
    for c in layout.corners:
        x = repr(float(c.column))
        lines.append(f"{x} {lat_to_row(c.ceil_lat, layout.grid)!r}")
        lines.append(f"{x} {lat_to_row(c.floor_lat, layout.grid)!r}")
    return "\n".join(lines) + "\n"


# --- layout JSON ---


def emit_layout_json(layout: VisibleLayout) -> str:
    doc = {
        "format": LAYOUT_FORMAT,
        "grid": {"width": layout.grid.width, "height": layout.grid.height},
        "camera_height": layout.camera.camera_height,
        "room_height": layout.room_height,
        "corners": [
            {
                "column": c.column,
                "ceil_lat": c.ceil_lat,
                "floor_lat": c.floor_lat,
                "kind": c.kind.value,
            }
            for c in layout.corners
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _number(obj: dict, key: str) -> float:
    """``obj[key]``, a JSON number, as a float; booleans and strings are not
    numbers."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number, got {value!r}")
    return float(value)


def parse_layout_json(data) -> VisibleLayout:
    doc = _json(data, "layout json")
    try:
        if doc["format"] != LAYOUT_FORMAT:
            raise ParseError(f"unsupported layout format {doc.get('format')!r}")
        grid = ImageGrid(doc["grid"]["width"])
        height = doc["grid"]["height"]
        if not (isinstance(height, int) and height == grid.height):
            raise ParseError(
                f"grid height must be the integer width // 2 = {grid.height}, got {height!r}"
            )
        corners = [
            LayoutCorner(
                _number(c, "column"),
                _number(c, "ceil_lat"),
                _number(c, "floor_lat"),
                CornerKind(c["kind"]),
            )
            for c in doc["corners"]
        ]
        return VisibleLayout(
            corners,
            CameraModel(_number(doc, "camera_height")),
            _number(doc, "room_height"),
            grid,
        )
    except ParseError:
        raise
    except (RoomLayoutError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"invalid layout document: {e}") from None


# --- PLY mesh ---


def emit_ply(layout: VisibleLayout) -> bytes:
    """ASCII mesh: wall quads (two triangles each) plus floor/ceiling fans.

    Vertex i is corner i's floor point, vertex N+i its ceiling point, and
    vertices 2N and 2N+1 the floor and ceiling points plumb with the camera.
    A layout winds once around its camera, so each cap is a fan from there,
    one triangle per polygon edge (of zero area on an occlusion edge, which
    keeps every spoke shared by two triangles). Occlusion spans get no wall:
    the mesh is open exactly where the room is not observed.
    """
    pts = layout.floor_points()
    n = len(pts)
    h = layout.room_height
    verts = [(p[0], p[1], 0.0) for p in pts] + [(p[0], p[1], h) for p in pts]
    verts += [(0.0, 0.0, 0.0), (0.0, 0.0, h)]
    faces: list[tuple[int, int, int]] = []
    for i, j in layout.wall_edges():
        faces.append((i, j, n + j))
        faces.append((i, n + j, n + i))
    faces += [(2 * n, i, (i + 1) % n) for i in range(n)]
    faces += [(2 * n + 1, n + (i + 1) % n, n + i) for i in range(n)]
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines += [f"{repr(float(x))} {repr(float(y))} {repr(float(z))}" for x, y, z in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return ("\n".join(lines) + "\n").encode("ascii")


# --- SVG top-down view ---

_SVG_COLORS = ("#2b6cb0", "#c53030", "#2f855a", "#b7791f")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def emit_svg_topdown(*layouts: VisibleLayout, scale: float = 100.0,
                     labels: Sequence[str] | None = None) -> str:
    """Floor polygons to scale, camera at the marked origin, occlusions dashed.

    Pass several layouts (e.g. prediction and truth) for an overlay.
    """
    if not layouts:
        raise EmitError("no layouts to draw")
    all_pts = np.vstack([lay.floor_points() for lay in layouts] + [np.zeros((1, 2))])
    margin = 0.5
    lo = all_pts.min(axis=0) - margin
    hi = all_pts.max(axis=0) + margin
    size = (hi - lo) * scale

    def to_svg(p):
        return (p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size[0])}" '
        f'height="{_fmt(size[1])}" viewBox="0 0 {_fmt(size[0])} {_fmt(size[1])}">',
    ]
    for li, lay in enumerate(layouts):
        color = _SVG_COLORS[li % len(_SVG_COLORS)]
        label = labels[li] if labels and li < len(labels) else f"layout {li}"
        pts = lay.floor_points()
        n = len(pts)
        occ = set(lay.occlusion_pairs())
        parts.append(f'  <g stroke="{color}" fill="none" stroke-width="2"><!-- {label} -->')
        for i in range(n):
            j = (i + 1) % n
            (x1, y1), (x2, y2) = to_svg(pts[i]), to_svg(pts[j])
            dash = ' stroke-dasharray="6 4"' if (i, j) in occ else ""
            parts.append(
                f'    <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"{dash}/>'
            )
        parts.append("  </g>")
    cx, cy = to_svg((0.0, 0.0))
    r = 0.08 * scale
    parts.append(
        f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="#222222"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- metric reports ---

_REPORT_COLUMNS = tuple(f.name for f in fields(MetricReport))


def _report_rows(named_reports) -> list[tuple[str, list[float]]]:
    rows = [(name, rep.as_row()) for name, rep in named_reports]
    if not rows:
        raise EmitError("no reports to emit")
    means = [float(np.mean([r[i] for _, r in rows])) for i in range(len(_REPORT_COLUMNS))]
    rows.append(("mean", means))
    return rows


def emit_report(named_reports, fmt: str = "table") -> str:
    """Per-scene metric rows plus a final aggregate-mean row."""
    rows = _report_rows(list(named_reports))
    if fmt == "csv":
        lines = ["scene," + ",".join(_REPORT_COLUMNS)]
        for name, vals in rows:
            lines.append(name + "," + ",".join(repr(float(v)) for v in vals))
        return "\n".join(lines) + "\n"
    if fmt != "table":
        raise EmitError(f"unknown report format {fmt!r}")
    name_w = max(len("scene"), *(len(name) for name, _ in rows))
    col_w = 2 + max(len(c) for c in _REPORT_COLUMNS)
    header = "scene".ljust(name_w) + "".join(c.rjust(col_w) for c in _REPORT_COLUMNS)
    lines = [header, "-" * len(header)]
    for name, vals in rows:
        lines.append(name.ljust(name_w) + "".join(f"{v:.4f}".rjust(col_w) for v in vals))
    return "\n".join(lines) + "\n"


# --- annotation interchange ---


def convert_structured3d(data) -> str:
    """Map a panorama layout annotation document to corner txt.

    Assumed variant: a JSON object with a "junctions" list of 2D pixel
    positions, each an array [x, y] of two numbers, bare or as
    {"coordinate": [x, y]}, listing each wall junction's ceiling point and
    floor point (in either order) so that junctions come in vertical pairs.
    Pairs are sorted by column before emission. Other release variants (3D
    junction graphs) are out of scope.
    """
    doc = _json(data, "annotation json") if isinstance(data, (bytes, str)) else data
    raw = doc.get("junctions") if isinstance(doc, dict) else None
    if not isinstance(raw, list):
        raise ParseError("document has no 'junctions' list")
    pts = []
    for j in raw:
        coord = j.get("coordinate") if isinstance(j, dict) else j
        # int/float comparisons are exact: NaN, infinities and integers too
        # large for a float fail the bound
        if not (isinstance(coord, list) and len(coord) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in coord
        )):
            raise ParseError(f"junction is not a finite 2D point: {j!r}")
        pts.append((float(coord[0]), float(coord[1])))
    if len(pts) < 6 or len(pts) % 2:
        raise ParseError(f"need an even number (>= 6) of junctions, got {len(pts)}")
    pts.sort(key=lambda p: (p[0], p[1]))
    lines = []
    for k in range(0, len(pts), 2):
        (x1, y1), (x2, y2) = pts[k], pts[k + 1]
        if abs(x1 - x2) > 0.5:
            raise ParseError(f"junctions at x={x1} and x={x2} do not pair vertically")
        lines.append(f"{repr(x1)} {repr(y1)}")
        lines.append(f"{repr(x2)} {repr(y2)}")
    return "\n".join(lines) + "\n"
