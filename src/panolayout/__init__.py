"""Post-processing of panoramic room-layout signals into visible 3D layouts.

The pipeline turns three per-column curves (corner probability, ceiling
boundary, floor boundary) predicted on an equirectangular panorama into a
room layout: the visible floor polygon, wall heights, and explicit near/far
corner pairs where one wall occludes another. Rooms are not assumed to be
box-shaped or axis-aligned.

Main entry points:
  postprocess      signal -> VisibleLayout
  evaluate_pair    prediction + truth -> full metric report
  make_fixture     seeded synthetic rooms for testing and benchmarks
  render_signal    synthetic room -> clean signal + ground-truth layout
"""

import numpy as _np

from .detect import (
    CANDIDATE_DTYPE,
    MODES,
    BoundarySignal,
    DetectConfig,
    DiscontinuitySource,
    candidates_for_mode,
    detect_2d,
    detect_3d,
    ensemble,
    extract_corner_peaks,
    extract_occlusion_pair,
    postprocess,
)
from .errors import (
    AmbiguityError,
    AssemblyError,
    EmitError,
    EstimationError,
    GeometryError,
    InputError,
    MetricError,
    ParseError,
    ReconstructionError,
    RoomLayoutError,
)
from .fileio import (
    convert_structured3d,
    emit_corner_txt,
    emit_layout_json,
    emit_ply,
    emit_report,
    emit_signal_file,
    emit_svg_topdown,
    parse_corner_txt,
    parse_layout_json,
    parse_signal_file,
)
from .geometry import (
    CameraModel,
    CornerKind,
    LayoutCorner,
    VisibleLayout,
    assemble_layout,
    estimate_room_height,
    floor_distance,
    floor_lat_of_distance,
    wall_distance_profile,
)
from .loss import (
    LossReport,
    LossWeights,
    bce_mean,
    bce_mean_grad,
    l2_mean,
    l2_mean_grad,
    total_loss,
    total_loss_grads,
    weight_schedule,
)
from .metrics import (
    THRESHOLDS,
    MetricReport,
    corner_error,
    corner_image_points,
    evaluate_pair,
    iou_2d,
    iou_3d,
    junction_f,
    pixel_error,
    plane_f,
    render_semantic,
    wireframe_f,
)
from .panorama import (
    ImageGrid,
    col_to_lon,
    cyclic_column_distance,
    lat_to_row,
    lon_to_col,
    row_to_lat,
    wrap_lon,
)
from .synth import (
    FIXTURE_FAMILIES,
    SyntheticRoom,
    corner_bumps,
    layout_boundaries,
    make_fixture,
    perturb_signal,
    raycast,
    render_signal,
    truth_layout,
)

__version__ = "0.1.0"

# glibc's malloc serves a block above its mmap threshold, 128 KiB at start,
# with fresh pages that fault in zero-filled on first touch, and returns the
# free top of its heap to the system above a trim threshold. Freeing a mapped
# block raises the mmap threshold to its size and the trim threshold to twice
# that. One freed 1 MiB block keeps evaluate_pair's many-corner temporaries
# (in layout_boundaries, _plane_f and _wireframe_f) on the heap: without it
# a clean scene's evaluate_pair takes about 250 minor page faults.
_np.empty(1 << 20, dtype=_np.uint8)
del _np

__all__ = [
    "AmbiguityError",
    "AssemblyError",
    "BoundarySignal",
    "CANDIDATE_DTYPE",
    "CameraModel",
    "CornerKind",
    "DetectConfig",
    "DiscontinuitySource",
    "EmitError",
    "EstimationError",
    "FIXTURE_FAMILIES",
    "GeometryError",
    "ImageGrid",
    "InputError",
    "LayoutCorner",
    "LossReport",
    "LossWeights",
    "MODES",
    "MetricError",
    "MetricReport",
    "ParseError",
    "ReconstructionError",
    "RoomLayoutError",
    "SyntheticRoom",
    "THRESHOLDS",
    "VisibleLayout",
    "assemble_layout",
    "bce_mean",
    "bce_mean_grad",
    "candidates_for_mode",
    "col_to_lon",
    "convert_structured3d",
    "corner_bumps",
    "corner_error",
    "corner_image_points",
    "cyclic_column_distance",
    "detect_2d",
    "detect_3d",
    "emit_corner_txt",
    "emit_layout_json",
    "emit_ply",
    "emit_report",
    "emit_signal_file",
    "emit_svg_topdown",
    "ensemble",
    "estimate_room_height",
    "evaluate_pair",
    "extract_corner_peaks",
    "extract_occlusion_pair",
    "floor_distance",
    "floor_lat_of_distance",
    "iou_2d",
    "iou_3d",
    "junction_f",
    "l2_mean",
    "l2_mean_grad",
    "lat_to_row",
    "layout_boundaries",
    "lon_to_col",
    "make_fixture",
    "parse_corner_txt",
    "parse_layout_json",
    "parse_signal_file",
    "perturb_signal",
    "pixel_error",
    "plane_f",
    "postprocess",
    "raycast",
    "render_semantic",
    "render_signal",
    "row_to_lat",
    "total_loss",
    "total_loss_grads",
    "truth_layout",
    "wall_distance_profile",
    "weight_schedule",
    "wireframe_f",
    "wrap_lon",
]
