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
from .panorama import ImageGrid, cyclic_column_distance, wrap_col

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


class DiscontinuitySource(str, enum.Enum):
    SLOPE2D_CEILING = "slope2d_ceiling"
    SLOPE2D_FLOOR = "slope2d_floor"
    KINK2D_CEILING = "kink2d_ceiling"
    KINK2D_FLOOR = "kink2d_floor"
    JUMP3D_CEILING = "jump3d_ceiling"
    JUMP3D_FLOOR = "jump3d_floor"


# One row per column suspected to sit at a boundary discontinuity; ``source``
# holds a DiscontinuitySource value.
CANDIDATE_DTYPE = np.dtype([("column", np.int64), ("source", "U15"), ("strength", float)])


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


def extract_corner_peaks(y_p, config: DetectConfig | None = None) -> list[int]:
    """Cyclic local maxima of the corner probability above the peak threshold.

    Peaks closer than ``width // 64`` columns (at least 1) suppress each
    other; the higher peak survives, ties going to the lower column. Result
    sorted ascending.
    """
    config = config or DetectConfig()
    y_p = np.asarray(y_p, dtype=float)
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


def _source(detector: str, boundary: str) -> str:
    if boundary not in ("floor", "ceiling"):
        raise InputError(f"boundary must be 'floor' or 'ceiling', got {boundary!r}")
    return DiscontinuitySource(f"{detector}_{boundary}").value


def _candidates(columns: np.ndarray, source: str, strengths: np.ndarray) -> np.ndarray:
    cands = np.empty(len(columns), CANDIDATE_DTYPE)
    cands["column"], cands["source"], cands["strength"] = columns, source, strengths
    return cands


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
    slope_src, kink_src = _source("slope2d", boundary), _source("kink2d", boundary)
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise InputError(f"non-finite boundary value at column {int(bad[0])}")
    w, span, half = len(y), _SMOOTHING_WIDTH, _SMOOTHING_WIDTH // 2
    step = np.concatenate((y[1:], y[:1])) - y  # step[i] == y[i+1] - y[i], cyclically
    dy = np.abs(step)
    # Box smoothing spreads a one-column slope change of m over `span` columns,
    # shrinking its second difference to m/span; the rescale by span turns the
    # statistic back into an estimate of the local slope-change rate so the
    # threshold is in radians per column squared. In span times the second
    # difference of the cyclic box mean all but two steps cancel, so it is
    # exactly |step[i + span - half - 1] - step[i - half - 1]|.
    ahead, behind = ((span - half - 1) % w, -(half + 1) % w) if w else (0, 0)
    d2 = np.abs(
        np.concatenate((step[ahead:], step[:ahead])) - np.concatenate((step[behind:], step[:behind]))
    )
    kinks = np.flatnonzero(d2 > config.kink_threshold)
    slopes = np.flatnonzero(dy > config.slope_threshold)
    cands = np.concatenate(
        [_candidates(kinks, kink_src, d2[kinks]), _candidates(slopes, slope_src, dy[slopes])]
    )
    # a stable sort of kinks-then-slopes is the (column, source) order
    return cands[np.argsort(cands["column"], kind="stable")]


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
    d = np.asarray(distance_profile, dtype=float)
    bad = np.flatnonzero(~(d > 0) | ~np.isfinite(d))
    if bad.size:
        raise InputError(f"nonpositive distance at column {int(bad[0])}")
    nxt = np.concatenate((d[1:], d[:1]))
    ratio = np.maximum(d, nxt) / np.minimum(d, nxt)
    cols = np.flatnonzero(ratio > config.jump_ratio)
    return _candidates(cols, src, ratio[cols])


def _cluster_columns(
    columns: np.ndarray, strengths: np.ndarray, radius: int, width: int
) -> list[float]:
    """Single-linkage cyclic clustering; each cluster -> strength-weighted mean."""
    order = np.argsort(columns, kind="stable")
    cols = columns[order].astype(float)
    wts = strengths[order].astype(float)
    n = len(cols)
    if n == 0:
        return []
    gaps = np.diff(cols, append=cols[0] + width)
    breaks = np.flatnonzero(gaps > radius)
    # Chains in order from the first column after the last break, so a chain
    # across the seam comes first; without a break one chain runs around the
    # whole circle. Only that first chain has columns to unwrap.
    start = int(breaks[-1] + 1) % n if breaks.size else 0
    ends = ((breaks - start) % n + 1).tolist() if breaks.size else [n]
    c, wts = (np.concatenate((a[start:], a[:start])) for a in (cols, wts))
    c[n - start : ends[0]] += width
    # np.average per chain, without the split: sum(c * w) / sum(w)
    prod = np.multiply(c, wts)
    bounds = zip([0] + ends[:-1], ends)
    return sorted(float(prod[a:b].sum() / wts[a:b].sum()) % width for a, b in bounds)


def ensemble(
    candidates: np.ndarray, width: int, corner_peaks: Sequence[int] = ()
) -> list[float]:
    """Cluster candidates from any subset of sources into confirmed columns.

    Candidates (a 1D ``CANDIDATE_DTYPE`` array with columns in [0, width)
    and strengths > 0) within the cluster radius, 4 columns, of each other
    (cyclically, which is why the panorama width is required) merge by
    single linkage; each cluster confirms one column, its strength-weighted
    mean. A cluster that lands within the cluster radius of a corner peak (a
    column in [0, width)) is pulled onto that peak instead of spawning a
    second corner next to it.
    """
    if not (isinstance(candidates, np.ndarray) and candidates.dtype == CANDIDATE_DTYPE):
        raise InputError("candidates must be an array of CANDIDATE_DTYPE")
    if candidates.ndim != 1:
        raise InputError(f"candidates must be 1D, got shape {candidates.shape}")
    if width < 1:
        raise InputError(f"width must be >= 1, got {width}")
    cols, wts = candidates["column"], candidates["strength"]
    peaks = np.asarray(corner_peaks, dtype=float)
    if peaks.ndim != 1:
        raise InputError(f"corner_peaks must be 1D, got shape {peaks.shape}")
    for what, values in (("candidate column", cols), ("corner peak", peaks)):
        bad = ~((values >= 0) & (values < width))
        if bad.any():
            raise InputError(f"{what} {values[bad][0]} outside [0, {width})")
    bad = ~(wts > 0)
    if bad.any():
        raise InputError(f"candidate strength must be > 0, got {wts[bad][0]}")
    confirmed = np.array(_cluster_columns(cols, wts, _CLUSTER_RADIUS, width))
    if peaks.size:
        dist = cyclic_column_distance(confirmed[:, None], peaks[None, :], width)
        snaps = dist.min(axis=1) <= _CLUSTER_RADIUS
        confirmed[snaps] = peaks[dist.argmin(axis=1)[snaps]]
    # Snapped columns are peak values (distinct integers), and unsnapped means
    # lie farther than the cluster radius from every peak and from each other,
    # so exact duplicates are the only near ones.
    return np.unique(confirmed).tolist()


_FLOOR_LAT_RANGE = (-math.pi / 2 + 1e-6, -1e-6)
_CEIL_LAT_RANGE = (1e-6, math.pi / 2 - 1e-6)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _extrapolate(y: np.ndarray, k: int, toward: int, dist: float, cap: float) -> float:
    """Boundary value ``dist`` columns beyond column k, following its wall.

    Continues the line through columns k and k - toward in the `toward`
    direction. The per-column slope is capped so a second discontinuity
    inside the stencil cannot fling the estimate off the wall.
    """
    slope = float(y[k] - y[(k - toward) % len(y)])
    return float(y[k]) + dist * min(max(slope, -cap), cap)


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

    def corner_at(k: int, toward: int, col: float, kind: CornerKind) -> LayoutCorner:
        ceil = _extrapolate(signal.y_c, k, toward, 0.5, config.slope_threshold)
        floor = _extrapolate(signal.y_f, k, toward, 0.5, config.slope_threshold)
        return LayoutCorner(
            col, _clamp(ceil, *_CEIL_LAT_RANGE), _clamp(floor, *_FLOOR_LAT_RANGE), kind
        )

    near, far = CornerKind.OCCLUSION_NEAR, CornerKind.OCCLUSION_FAR
    pairs: list[tuple[LayoutCorner, LayoutCorner] | None] = [None] * len(idx)
    for r in found.tolist():
        j = first[r]
        a, b = idx[r, j : j + 2].tolist()
        ya, yb = y[r, j : j + 2].tolist()
        col = (a + 0.5) % w
        left_kind, right_kind = (near, far) if abs(ya) > abs(yb) else (far, near)
        # toward = +1 extrapolates the left wall rightward onto the jump, -1 the
        # right wall leftward
        pairs[r] = (corner_at(a, +1, col, left_kind), corner_at(b, -1, col, right_kind))
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
    return np.concatenate(parts)


def _refine_peak_column(y_p: np.ndarray, p: int) -> float:
    """Sub-pixel peak position by log-parabolic interpolation.

    Exact for Gaussian-shaped peaks (their log is a parabola). Falls back to
    the integer column when a neighbor is nonpositive or the log values are
    not strictly concave.
    """
    w = len(y_p)
    window = y_p[[(p - 1) % w, p, (p + 1) % w]]
    if np.any(window <= 0):
        return float(p)
    l0, l1, l2 = np.log(window)
    denom = l0 - 2.0 * l1 + l2
    if denom >= -1e-12:
        return float(p)
    delta = 0.5 * (l0 - l2) / denom
    return wrap_col(p + float(np.clip(delta, -0.5, 0.5)), w)


def _refined_corner(
    signal: BoundarySignal, peak: int, config: DetectConfig
) -> LayoutCorner:
    """Plain corner at the sub-pixel peak position.

    The boundary value at the junction is estimated by continuing each
    adjoining wall's curve to the refined column and averaging; interpolating
    straight across the junction would mix the two walls' slopes and bias the
    corner inward.
    """
    w = signal.width
    col = _refine_peak_column(np.asarray(signal.y_p), peak)
    k0 = int(math.floor(col)) % w
    k1 = (k0 + 1) % w
    t = col - math.floor(col)
    cap = config.slope_threshold

    def junction(y: np.ndarray, lo: float, hi: float) -> float:
        from_left = _extrapolate(y, k0, +1, t, cap)
        from_right = _extrapolate(y, k1, -1, 1.0 - t, cap)
        return _clamp(0.5 * (from_left + from_right), lo, hi)

    return LayoutCorner(
        col,
        junction(signal.y_c, *_CEIL_LAT_RANGE),
        junction(signal.y_f, *_FLOOR_LAT_RANGE),
    )


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
    corners = [_refined_corner(signal, p, config) for p, c in zip(peaks, claimed) if not c]
    corners += [corner for pair in pairs.values() for corner in pair]
    cols = sorted(c.column for c in corners)
    ends = cols[1:] + [c + w for c in cols[:1]]
    if len(cols) < 3 or any(gap_reaches_half_turn(a, b, w) for a, b in zip(cols, ends)):
        raise ReconstructionError(
            f"signal yields {len(cols)} corners; a closed layout needs >= 3, with "
            "less than half a turn between neighbours"
        )
    return assemble_layout(corners, signal, cam)
