"""In-memory span tracer that wraps panolayout's public functions from outside.

The tracer replaces each traced function in every ``panolayout.*`` namespace
that binds it (``cli`` imports ``parse_signal_file`` by name, the package
re-exports everything), so a call is recorded whichever module it goes
through. Nothing in the package is edited; ``uninstall`` puts every original
back. Spans are kept in a list and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# span name -> (defining module, attribute). The per-element coordinate helpers
# in ``panorama`` are left out (their cost shows inside their callers), and so
# is ``loss``, which no served path calls.
TRACED = {
    "detect.postprocess": ("panolayout.detect", "postprocess"),
    "detect.extract_corner_peaks": ("panolayout.detect", "extract_corner_peaks"),
    "detect.candidates_for_mode": ("panolayout.detect", "candidates_for_mode"),
    "detect.detect_2d": ("panolayout.detect", "detect_2d"),
    "detect.detect_3d": ("panolayout.detect", "detect_3d"),
    "detect.ensemble": ("panolayout.detect", "ensemble"),
    "detect.extract_occlusion_pair": ("panolayout.detect", "extract_occlusion_pair"),
    "geometry.estimate_room_height": ("panolayout.geometry", "estimate_room_height"),
    "geometry.wall_distance_profile": ("panolayout.geometry", "wall_distance_profile"),
    "geometry.assemble_layout": ("panolayout.geometry", "assemble_layout"),
    "metrics.evaluate_pair": ("panolayout.metrics", "evaluate_pair"),
    "metrics.wireframe_f": ("panolayout.metrics", "wireframe_f"),
    "metrics.render_semantic": ("panolayout.metrics", "render_semantic"),
    "metrics.pixel_error": ("panolayout.metrics", "pixel_error"),
    "metrics.plane_f": ("panolayout.metrics", "plane_f"),
    "metrics.corner_error": ("panolayout.metrics", "corner_error"),
    "metrics.junction_f": ("panolayout.metrics", "junction_f"),
    "metrics.corner_image_points": ("panolayout.metrics", "corner_image_points"),
    "synth.make_fixture": ("panolayout.synth", "make_fixture"),
    "synth.render_signal": ("panolayout.synth", "render_signal"),
    "synth.truth_layout": ("panolayout.synth", "truth_layout"),
    "synth.perturb_signal": ("panolayout.synth", "perturb_signal"),
    "synth.raycast": ("panolayout.synth", "raycast"),
    "synth.layout_boundaries": ("panolayout.synth", "layout_boundaries"),
    "fileio.parse_signal_file": ("panolayout.fileio", "parse_signal_file"),
    "fileio.emit_signal_file": ("panolayout.fileio", "emit_signal_file"),
    "fileio.parse_layout_json": ("panolayout.fileio", "parse_layout_json"),
    "fileio.emit_layout_json": ("panolayout.fileio", "emit_layout_json"),
    "fileio.emit_report": ("panolayout.fileio", "emit_report"),
    "cli.synth": ("panolayout.cli", "cmd_synth"),
    "cli.postprocess": ("panolayout.cli", "cmd_postprocess"),
    "cli.evaluate": ("panolayout.cli", "cmd_evaluate"),
}

# Which end-to-end figures each layer's numbers should move:
#   detect.*    postprocess_ms.* and scenes_per_s on noisy_postprocess; not
#               oracle_eval's scenes_per_s, where metrics does ~97% of the work
#   geometry.*  postprocess_ms.* on noisy_postprocess
#   metrics.*   scenes_per_s on oracle_eval and cli_roundtrip (evaluate_ms and
#               cli_evaluate_s in the report); nothing on noisy_postprocess
#   synth.make_fixture/render_signal/truth_layout/perturb_signal  setup_s and
#               cli_synth_s; synth.raycast/layout_boundaries  evaluate_ms on
#               oracle_eval
#   fileio.*, cli.*  postprocess_ms.*, scenes_per_s and cli_*_s on
#               cli_roundtrip only

# Size of a call's result, recorded on its span for the exact counts.
_SIZE = {
    "detect.detect_2d": len,
    "detect.detect_3d": len,
    "detect.ensemble": len,
    "detect.postprocess": lambda layout: len(layout.occlusion_pairs()),
    "fileio.emit_signal_file": lambda text: len(text.encode()),
}

# Span fields; a span is a list so the wrapper can fill it in place.
NAME, START, END, PARENT, SCENE, SIZE, ERROR = range(7)


class Tracer:
    """Records one span per traced call: name, start, end, parent, scene id."""

    def __init__(self):
        self.spans: list[list] = []
        self.scene = None  # set by the workload before each scene's calls
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "panolayout" or name.startswith("panolayout.")
        ]
        for span_name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span_name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self) -> None:
        while self._patched:
            ns, key, original = self._patched.pop()
            setattr(ns, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = _SIZE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scene, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        traced.__wrapped_original__ = fn
        return traced


def still_wrapped() -> list[str]:
    """Names in panolayout namespaces still bound to a tracer wrapper."""
    return [
        f"{name}.{key}"
        for name, mod in sorted(sys.modules.items())
        if name == "panolayout" or name.startswith("panolayout.")
        for key, value in vars(mod).items()
        if hasattr(value, "__wrapped_original__")
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_counts(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Exact counts over the spans of one traced pass, ``spans[lo:hi]``."""
    calls: dict[str, int] = {name: 0 for name in TRACED}
    sizes: dict[str, int] = {name: 0 for name in _SIZE}
    ambiguous = 0
    under_eval: dict[int, bool] = {}
    per_pair = {"synth.raycast": 0, "synth.layout_boundaries": 0}
    for i in range(lo, hi):
        name, _, _, parent, _, size, error = spans[i]
        calls[name] += 1
        if size is not None:
            sizes[name] += size
        if name == "detect.extract_occlusion_pair" and error == "AmbiguityError":
            ambiguous += 1
        # parents precede children, so one forward sweep finds the ancestors
        under_eval[i] = parent >= 0 and (
            spans[parent][NAME] == "metrics.evaluate_pair" or under_eval.get(parent, False)
        )
        if name in per_pair and under_eval[i]:
            per_pair[name] += 1
    pairs = calls["metrics.evaluate_pair"]
    return {
        "detect.detect_2d.candidates": sizes["detect.detect_2d"],
        "detect.detect_3d.candidates": sizes["detect.detect_3d"],
        "detect.ensemble.confirmed": sizes["detect.ensemble"],
        "detect.extract_occlusion_pair.calls": calls["detect.extract_occlusion_pair"],
        "detect.extract_occlusion_pair.ambiguous": ambiguous,
        "detect.pair_yield": _ratio(
            sizes["detect.postprocess"], calls["detect.extract_occlusion_pair"]
        ),
        "geometry.estimate_room_height.calls_per_scene": _ratio(
            calls["geometry.estimate_room_height"], calls["detect.postprocess"]
        ),
        "synth.raycast.calls_per_pair": _ratio(per_pair["synth.raycast"], pairs),
        "synth.layout_boundaries.calls_per_pair": _ratio(
            per_pair["synth.layout_boundaries"], pairs
        ),
        "fileio.signal_file.bytes": sizes["fileio.emit_signal_file"],
    }


def span_times(spans: list[list]) -> dict[str, float]:
    """Per traced function: mean duration and mean self time per call, in ms.

    Self time is a span's duration minus its direct children's durations; one
    thread makes every call, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = {name: 0.0 for name in TRACED}
    own = {name: 0.0 for name in TRACED}
    calls = {name: 0 for name in TRACED}
    for i, (name, start, end, *_) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
    out = {}
    for name in TRACED:
        out[f"{name}.ms"] = 1e3 * _ratio(total[name], calls[name])
        out[f"{name}.self_ms"] = 1e3 * _ratio(own[name], calls[name])
    return out
