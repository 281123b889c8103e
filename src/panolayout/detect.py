"""Corner peaks, boundary-discontinuity detection, and the visible-layout pipeline.

A hidden region announces itself twice in a 1D boundary signal: in image
space as an abrupt jump (or a drastic slope change) of the ceiling/floor
boundary curve, and in plan space as a jump in the camera-to-wall distance
profile. Both detectors run per boundary, their candidates are clustered
into confirmed discontinuity columns, and at each confirmed column the two
sides of the jump become an occlusion near/far corner pair. Everything is
cyclic: a panorama has no first column.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AmbiguityError, InputError, ReconstructionError
from .geometry import (
    CameraModel,
    CornerKind,
    LayoutCorner,
    VisibleLayout,
    assemble_layout,
    estimate_room_height,
    gap_reaches_half_turn,
    wall_distance_profile,
)
from .panorama import ImageGrid, cyclic_column_distance

HALF_PI = np.pi / 2

MODES = ("2d_only", "3d_only", "ensemble")


@dataclass(frozen=True)
class BoundarySignal:
    """Per-column network output: corner probability and boundary latitudes.

    ``y_p`` is in [0, 1]; ``y_c`` (ceiling-wall) is in (0, pi/2); ``y_f``
    (floor-wall) is in (-pi/2, 0). All three share one length, the panorama
    width, which must be the width of an ``ImageGrid``.
    """

    y_p: np.ndarray
    y_c: np.ndarray
    y_f: np.ndarray

    def __post_init__(self):
        for name in ("y_p", "y_c", "y_f"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not self.y_p.ndim == self.y_c.ndim == self.y_f.ndim == 1:
            raise InputError("signal components must be 1D arrays")
        if not len(self.y_p) == len(self.y_c) == len(self.y_f):
            raise InputError(
                f"signal lengths differ: {len(self.y_p)}, {len(self.y_c)}, {len(self.y_f)}"
            )
        try:
            ImageGrid(self.width)
        except InputError as e:
            raise InputError(f"signal width {self.width} has no panorama grid: {e}") from None
        for name, arr, lo, hi in (
            ("y_p", self.y_p, 0.0, 1.0),
            ("y_c", self.y_c, 0.0, HALF_PI),
            ("y_f", self.y_f, -HALF_PI, 0.0),
        ):
            bad = ~np.isfinite(arr)
            if name == "y_p":
                bad |= (arr < lo) | (arr > hi)
            else:
                bad |= (arr <= lo) | (arr >= hi)
            if np.any(bad):
                raise InputError(
                    f"{name} out of range at column {int(np.flatnonzero(bad)[0])}"
                )

    @property
    def width(self) -> int:
        return len(self.y_p)

    @property
    def grid(self) -> ImageGrid:
        """The full 2:1 panorama grid of the signal's width."""
        return ImageGrid(self.width)

    def shifted(self, s: int) -> "BoundarySignal":
        """Signal rotated by ``s`` columns (column i of the result is column i-s)."""
        return BoundarySignal(
            np.roll(self.y_p, s), np.roll(self.y_c, s), np.roll(self.y_f, s)
        )


class DiscontinuitySource(enum.IntEnum):
    """Detector and boundary of a candidate; the codes follow the names' order."""

    JUMP3D_CEILING = 0
    JUMP3D_FLOOR = 1
    KINK2D_CEILING = 2
    KINK2D_FLOOR = 3
    SLOPE2D_CEILING = 4
    SLOPE2D_FLOOR = 5


# One row per column suspected to sit at a boundary discontinuity; ``source``
# holds a DiscontinuitySource code.
CANDIDATE_DTYPE = np.dtype([("column", np.int64), ("source", np.uint8), ("strength", float)])


# Window sizes in columns, fixed: they tune approximations, not the network outputs.
_CLUSTER_RADIUS = 4  # one corner's candidates spread over a few columns
_EXTREMA_WINDOW = 5  # a strength-weighted cluster mean drifts a few columns off its jump
_SMOOTHING_WIDTH = 5  # raw second differences of pixel-quantized curves are noise


@dataclass(frozen=True)
class DetectConfig:
    """Thresholds of the detection pipeline on the three network outputs."""

    peak_threshold: float = 0.5
    slope_threshold: float = 0.015  # radians per column
    kink_threshold: float = 0.008  # radians per column^2, on the smoothed curve
    jump_ratio: float = 1.15

    def __post_init__(self):
        for name in ("peak_threshold", "slope_threshold", "kink_threshold", "jump_ratio"):
            value, least = getattr(self, name), 1 if name == "jump_ratio" else 0
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value > least):
                raise InputError(f"{name} must be a number > {least}, got {value!r}")


def _curve(values, name: str) -> np.ndarray:
    """A per-column input of the peak finder or a detector as a 1D float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1D, got shape {arr.shape}")
    return arr


def extract_corner_peaks(y_p, config: DetectConfig | None = None) -> list[int]:
    """Cyclic local maxima of the corner probability above the peak threshold.

    Peaks closer than ``width // 64`` columns (at least 1) suppress each
    other; the higher peak survives, ties going to the lower column. Result
    sorted ascending.
    """
    config = config or DetectConfig()
    y_p = _curve(y_p, "corner probability")
    w = len(y_p)
    ext = np.concatenate((y_p[-1:], y_p, y_p[:1]))  # ext[i] == y_p[(i - 1) % w]
    is_peak = (y_p >= ext[:-2]) & (y_p >= ext[2:]) & (y_p >= config.peak_threshold)
    cands = np.flatnonzero(is_peak)
    order = cands[np.lexsort((cands, -y_p[cands]))]
    min_sep = max(1, w // 64)
    kept: list[int] = []
    for c in order.tolist():
        # the cyclic distance of two integer columns in [0, w)
        if all(min((c - k) % w, (k - c) % w) >= min_sep for k in kept):
            kept.append(c)
    return sorted(kept)


# DiscontinuitySource members by (detector, boundary)
_SOURCES = {tuple(s.name.lower().split("_")): s for s in DiscontinuitySource}


def _source(detector: str, boundary: str) -> DiscontinuitySource:
    if boundary not in ("floor", "ceiling"):
        raise InputError(f"boundary must be 'floor' or 'ceiling', got {boundary!r}")
    return _SOURCES[detector, boundary]


def detect_2d(
    y, config: DetectConfig | None = None, boundary: str = "floor"
) -> np.ndarray:
    """Image-space discontinuity candidates on one boundary curve.

    Emits a slope candidate at column i when |y[i+1] - y[i]| exceeds the
    slope threshold, and a kink candidate where the second difference of the
    box-smoothed curve exceeds the kink threshold, as one ``CANDIDATE_DTYPE``
    array ordered by column, then source. Raw second differences of
    pixel-quantized curves are noise-dominated, hence the smoothing.
    """
    config = config or DetectConfig()
    sources = np.array([_source("kink2d", boundary), _source("slope2d", boundary)], np.uint8)
    y = _curve(y, "boundary curve")
    if y.size and not (y.min() > -np.inf and y.max() < np.inf):  # NaN fails too
        bad = np.flatnonzero(~np.isfinite(y))
        raise InputError(f"non-finite boundary value at column {int(bad[0])}")
    w, span, half = len(y), _SMOOTHING_WIDTH, _SMOOTHING_WIDTH // 2
    step = np.concatenate((y[1:], y[:1])) - y  # step[i] == y[i+1] - y[i], cyclically
    # Box smoothing spreads a one-column slope change of m over `span` columns,
    # shrinking its second difference to m/span; the rescale by span turns the
    # statistic back into an estimate of the local slope-change rate so the
    # threshold is in radians per column squared. In span times the second
    # difference of the cyclic box mean all but two steps cancel, so it is
    # exactly |step[i + span - half - 1] - step[i - half - 1]|.
    ahead, behind = ((span - half - 1) % w, -(half + 1) % w) if w else (0, 0)
    # Column i's kink statistic and slope sit side by side, at flat index
    # 2 i and 2 i + 1, so the flat order of the entries over their thresholds
    # is the (column, source) order.
    stats, over = np.empty((w, 2)), np.empty((w, 2), bool)
    stats[:, 0] = np.abs(
        np.concatenate((step[ahead:], step[:ahead])) - np.concatenate((step[behind:], step[:behind]))
    )
    stats[:, 1] = np.abs(step)
    np.greater(stats[:, 0], config.kink_threshold, out=over[:, 0])
    np.greater(stats[:, 1], config.slope_threshold, out=over[:, 1])
    fired = over.ravel().nonzero()[0]
    cands = np.empty(len(fired), CANDIDATE_DTYPE)
    cands["column"], cands["source"] = fired >> 1, sources[fired & 1]
    cands["strength"] = stats.ravel()[fired]
    return cands


def detect_3d(
    distance_profile, config: DetectConfig | None = None, boundary: str = "floor"
) -> np.ndarray:
    """Plan-space discontinuity candidates on a wall-distance profile.

    A candidate fires at column i when the larger of d[i], d[i+1] exceeds the
    smaller by the configured ratio; the ratio test makes detection invariant
    to the free camera-height scale. Returns a ``CANDIDATE_DTYPE`` array
    ordered by column.
    """
    config = config or DetectConfig()
    src = _source("jump3d", boundary)
    d = _curve(distance_profile, "distance profile")
    if d.size and not (d.min() > 0 and d.max() < np.inf):  # NaN fails too
        bad = np.flatnonzero(~(d > 0) | ~np.isfinite(d))
        raise InputError(f"nonpositive distance at column {int(bad[0])}")
    nxt = np.concatenate((d[1:], d[:1]))
    ratio = np.maximum(d, nxt) / np.minimum(d, nxt)
    cols = np.flatnonzero(ratio > config.jump_ratio)
    cands = np.empty(len(cols), CANDIDATE_DTYPE)
    cands["column"], cands["source"], cands["strength"] = cols, src, ratio[cols]
    return cands


def _cluster_columns(
    columns: np.ndarray, strengths: np.ndarray, radius: int, width: int
) -> list[float]:
    """Single-linkage cyclic clustering; each cluster -> strength-weighted mean."""
    cols = np.asarray(columns, dtype=float)
    order = np.argsort(cols, kind="stable")
    cols, wts = cols[order], np.asarray(strengths, dtype=float)[order]
    n = len(cols)
    if n == 0:
        return []
    gaps = np.concatenate((cols[1:], cols[:1] + width)) - cols
    breaks = np.flatnonzero(gaps > radius)
    # Chains in order from the first column after the last break, so a chain
    # across the seam comes first; without a break one chain runs around the
    # whole circle. Only that first chain has columns to unwrap.
    start = int(breaks[-1] + 1) % n if breaks.size else 0
    ends = (breaks - start) % n + 1 if breaks.size else np.array([n])
    c, wts = (np.concatenate((a[start:], a[:start])) for a in (cols, wts))
    c[n - start : ends[0]] += width
    # np.average per chain, sum(c * w) / sum(w), in one reduceat. Each chain
    # is laid out behind a 0.0, and reduceat starts from that 0.0 and adds the
    # chain in one pairwise sum, as .sum() does, so the sums are bit-identical.
    k = len(ends)
    heads = np.concatenate(([0], ends[:-1])) + np.arange(k)  # where each 0.0 sits
    rows = np.zeros((2, n + k))  # c * w, then w, each chain behind a 0.0
    filled = np.ones(n + k, bool)
    filled[heads] = False
    rows[0][filled], rows[1][filled] = c * wts, wts
    prod, weight = np.add.reduceat(rows, heads, axis=1)
    return np.sort(prod / weight % width).tolist()


def ensemble(
    candidates: np.ndarray, width: int, corner_peaks: Sequence[int] = ()
) -> list[float]:
    """Cluster candidates from any subset of sources into confirmed columns.

    Candidates (a 1D ``CANDIDATE_DTYPE`` array with columns in [0, width))
    within the cluster radius, 4 columns, of each other (cyclically, which
    is why the panorama width is required) merge by single linkage; each
    cluster confirms one column, its strength-weighted mean. A cluster that
    lands within the cluster radius of a corner peak (a column in
    [0, width)) is pulled onto that peak instead of spawning a second corner
    next to it. Strengths must be > 0 and finite, and small enough that no
    weighted sum overflows: each at most the largest float over 4 × width ×
    the number of candidates.
    """
    if not (isinstance(candidates, np.ndarray) and candidates.dtype == CANDIDATE_DTYPE):
        raise InputError("candidates must be an array of CANDIDATE_DTYPE")
    if candidates.ndim != 1:
        raise InputError(f"candidates must be 1D, got shape {candidates.shape}")
    if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
        raise InputError(f"width must be an integer >= 1, got {width!r}")
    # contiguous float copies of the record fields: the checks reduce them,
    # and the clustering reads them as they are
    cols, wts = candidates["column"].astype(float), candidates["strength"].copy()
    peaks = np.asarray(corner_peaks, dtype=float)
    if peaks.ndim != 1:
        raise InputError(f"corner_peaks must be 1D, got shape {peaks.shape}")
    if cols.size and not (cols.min() >= 0 and cols.max() < width):
        values = candidates["column"]
        bad = values[~((values >= 0) & (values < width))][0]
        raise InputError(f"candidate column {bad} outside [0, {width})")
    for p in peaks.tolist():
        if not 0 <= p < width:  # NaN fails too
            raise InputError(f"corner peak {p} outside [0, {width})")
    # unwrapped columns stay below 2 * width, so no sum of c * w reaches the
    # largest float; the factor 2 more leaves room for rounding
    most = sys.float_info.max / (4 * width * max(len(wts), 1))
    if wts.size and not (wts.min() > 0 and wts.max() <= most):
        bad = wts[~((wts > 0) & (wts <= most))][0]
        raise InputError(
            f"candidate strength must be > 0 and finite, at most {most:.6g} for"
            f" {len(wts)} candidates on width {width}, got {bad}"
        )
    confirmed = np.array(_cluster_columns(cols, wts, _CLUSTER_RADIUS, width))
    if peaks.size:
        # cyclic_column_distance of every confirmed column to every peak; both
        # lie in [0, width), so |a - b| < width exactly and its `% width` is
        # the identity
        dist = np.abs(confirmed[:, None] - peaks)
        np.minimum(dist, width - dist, out=dist)
        nearest = dist.argmin(axis=1)  # the first peak in the given order on a tie
        confirmed = np.where(dist.min(axis=1) <= _CLUSTER_RADIUS, peaks[nearest], confirmed)
    # Snapped columns are peak values (distinct integers), and unsnapped means
    # lie farther than the cluster radius from every peak and from each other,
    # so exact duplicates are the only near ones.
    return sorted(set(confirmed.tolist()))


_FLOOR_LAT_RANGE = (-math.pi / 2 + 1e-6, -1e-6)
_CEIL_LAT_RANGE = (1e-6, math.pi / 2 - 1e-6)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _wall_corner(
    signal: BoundarySignal,
    col: float,
    cap: float,
    side: int = 0,
    kind: CornerKind = CornerKind.VISIBLE,
) -> LayoutCorner:
    """Corner at ``col`` on the two walls that meet between its integer columns.

    Each boundary's wall left of ``col`` is continued rightward to it along
    its last step, and the wall right of it leftward. ``side`` -1 keeps the
    left wall's values, +1 the right wall's, and 0 their mean: the junction
    of a plain corner, where interpolating straight across would mix the
    two walls' slopes and bias the corner inward. The per-column slope is
    capped so a second discontinuity inside the stencil cannot fling the
    estimate off the wall, and the latitudes are clamped into their ranges.
    """
    w, k = signal.width, math.floor(col)
    t = col - k
    a, b = k % w, (k + 1) % w  # the integer columns either side of col
    lats = []
    for y in (signal.y_c, signal.y_f):
        left, before = float(y[a]), float(y[a - 1])  # index -1 is the last column
        right, after = float(y[b]), float(y[(b + 1) % w])
        from_left = left + t * _clamp(left - before, -cap, cap)
        from_right = right + (1.0 - t) * _clamp(right - after, -cap, cap)
        lats.append(
            from_left if side < 0 else from_right if side > 0 else 0.5 * (from_left + from_right)
        )
    return LayoutCorner(
        col, _clamp(lats[0], *_CEIL_LAT_RANGE), _clamp(lats[1], *_FLOOR_LAT_RANGE), kind
    )


def _occlusion_pairs(
    signal: BoundarySignal, columns: Sequence[float], config: DetectConfig
) -> list[tuple[LayoutCorner, LayoutCorner] | None]:
    """``extract_occlusion_pair`` at every column in [0, width) in one array
    pass over the windows: the pair at each column, None where ambiguous."""
    w, half = signal.width, _EXTREMA_WINDOW
    centers = np.rint(np.asarray(columns, dtype=float)).astype(np.int64)  # half to even, as round
    idx = (centers[:, None] + np.arange(-half, half + 1)) % w
    y = signal.y_f[idx]
    jumps = np.abs(y[:, 1:] - y[:, :-1])
    first = jumps.argmax(axis=1).tolist()  # each window's first largest jump
    found = np.flatnonzero(jumps.max(axis=1) >= max(config.slope_threshold, 1e-12))

    near, far = CornerKind.OCCLUSION_NEAR, CornerKind.OCCLUSION_FAR
    cap = config.slope_threshold
    pairs: list[tuple[LayoutCorner, LayoutCorner] | None] = [None] * len(idx)
    for r in found.tolist():
        j = first[r]
        ya, yb = y[r, j : j + 2].tolist()
        col = (int(idx[r, j]) + 0.5) % w  # the jump midpoint
        left_kind, right_kind = (near, far) if abs(ya) > abs(yb) else (far, near)
        pairs[r] = (
            _wall_corner(signal, col, cap, -1, left_kind),
            _wall_corner(signal, col, cap, +1, right_kind),
        )
    return pairs


def extract_occlusion_pair(
    signal: BoundarySignal, column: float, config: DetectConfig | None = None
) -> tuple[LayoutCorner, LayoutCorner]:
    """Occlusion corner pair at a confirmed discontinuity column.

    Within the extrema window around the column, the largest single-step jump
    of the floor boundary locates the discontinuity between two adjacent
    columns. Both corners are placed at the jump midpoint, each keeping its
    own wall's boundary values extrapolated to that midpoint. The pair comes
    in boundary order, the left wall's corner first; the side with the lower
    floor point in the image (larger |y_f|, nearer wall) is the near corner,
    the other the far one. A window without a jump at least as large as the
    slope threshold is ambiguous: there is no discontinuity to flank, so no
    pair is extracted there.
    """
    config = config or DetectConfig()
    if not 0 <= column < signal.width:
        raise InputError(f"column {column} outside [0, {signal.width})")
    (pair,) = _occlusion_pairs(signal, [column], config)
    if pair is None:
        raise AmbiguityError(
            f"no floor-boundary discontinuity within {_EXTREMA_WINDOW} columns"
            f" of column {column}"
        )
    return pair


def candidates_for_mode(
    signal: BoundarySignal,
    config: DetectConfig | None = None,
    mode: str = "ensemble",
    cam: CameraModel | None = None,
) -> np.ndarray:
    """Candidates of the sources the mode enables, in one ``CANDIDATE_DTYPE``
    array: 2D ceiling, 2D floor, 3D floor, then 3D ceiling."""
    config = config or DetectConfig()
    cam = cam or CameraModel()
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    parts = []
    if mode in ("2d_only", "ensemble"):
        parts.append(detect_2d(signal.y_c, config, boundary="ceiling"))
        parts.append(detect_2d(signal.y_f, config, boundary="floor"))
    if mode in ("3d_only", "ensemble"):
        room_height = estimate_room_height(signal, cam)
        d_floor = wall_distance_profile(signal.y_f, cam)
        d_ceil = wall_distance_profile(signal.y_c, cam, room_height)
        parts.append(detect_3d(d_floor, config, boundary="floor"))
        parts.append(detect_3d(d_ceil, config, boundary="ceiling"))
    return np.concatenate(parts, dtype=CANDIDATE_DTYPE)


def _refine_peak_column(y_p: np.ndarray, p: int) -> float:
    """Sub-pixel peak position by log-parabolic interpolation.

    Exact for Gaussian-shaped peaks (their log is a parabola). Falls back to
    the integer column when a neighbor is nonpositive or the log values are
    not strictly concave.
    """
    w = len(y_p)
    window = y_p[[(p - 1) % w, p, (p + 1) % w]]
    if any(v <= 0 for v in window.tolist()):
        return float(p)
    l0, l1, l2 = np.log(window).tolist()  # math.log can differ in the last bit
    denom = l0 - 2.0 * l1 + l2
    if denom >= -1e-12:
        return float(p)
    col = (p + _clamp(0.5 * (l0 - l2) / denom, -0.5, 0.5)) % w
    return 0.0 if col == w else col  # as wrap_col: just below 0, % gives w


def postprocess(
    signal: BoundarySignal,
    config: DetectConfig | None = None,
    mode: str = "ensemble",
    cam: CameraModel | None = None,
) -> VisibleLayout:
    """Full pipeline: peaks + discontinuity detection + pair extraction + assembly.

    The mode chooses which candidate sources feed the ensemble (image-space
    only, plan-space only, or both); corner peaks are always used. A
    confirmed column becomes an occlusion pair when its extrema window holds
    a floor jump of at least the slope threshold; a pair whose confirmed or
    jump column lies within the cluster radius of a corner peak replaces that
    corner rather than duplicating it.
    A confirmed column without such a jump adds nothing, and a corner peak
    near it stays a plain corner. Fewer than 3 corners, or a gap of half a
    turn between neighbouring corners, is a ``ReconstructionError``.
    """
    config = config or DetectConfig()
    cam = cam or CameraModel()
    w = signal.width
    peaks = extract_corner_peaks(signal.y_p, config)
    cands = candidates_for_mode(signal, config, mode, cam)
    confirmed = ensemble(cands, w, peaks)

    pairs: dict[float, tuple[LayoutCorner, LayoutCorner]] = {}  # by jump column
    pair_cols: list[float] = []  # confirmed and jump column of each kept pair
    for col, pair in zip(confirmed, _occlusion_pairs(signal, confirmed, config)):
        if pair is None:
            continue  # no floor jump in the window: the column adds nothing
        jump_col = pair[0].column  # both corners sit on the jump midpoint
        if jump_col not in pairs:
            pairs[jump_col] = pair
            pair_cols += [col, jump_col]
    dist = cyclic_column_distance(np.array(pair_cols)[:, None], np.array(peaks)[None, :], w)
    claimed = (dist <= _CLUSTER_RADIUS).any(axis=0).tolist()
    y_p, cap = np.asarray(signal.y_p), config.slope_threshold
    corners = [
        _wall_corner(signal, _refine_peak_column(y_p, p), cap)
        for p, c in zip(peaks, claimed)
        if not c
    ]
    corners += [corner for pair in pairs.values() for corner in pair]
    cols = sorted(c.column for c in corners)
    ends = cols[1:] + [c + w for c in cols[:1]]
    if len(cols) < 3 or any(gap_reaches_half_turn(a, b, w) for a, b in zip(cols, ends)):
        raise ReconstructionError(
            f"signal yields {len(cols)} corners; a closed layout needs >= 3, with "
            "less than half a turn between neighbours"
        )
    return assemble_layout(corners, signal, cam)
