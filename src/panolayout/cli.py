"""Batch command line: postprocess, evaluate, synth, render.

Exit codes: 0 on success, 1 for usage/configuration problems (bad flags or
settings, unknown families, empty corpora), 2 when some per-file work failed
but the run as a whole could continue. Per-file failures go to stderr with the
file name; summaries go to stdout. Output files are written atomically
(temp + rename) so a crashed run never leaves half-written artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .detect import MODES, DetectConfig, postprocess
from .errors import RoomLayoutError
from .fileio import (
    emit_layout_json,
    emit_ply,
    emit_report,
    emit_signal_file,
    emit_svg_topdown,
    parse_layout_json,
    parse_signal_file,
)
from .geometry import CameraModel
from .metrics import evaluate_pair
from .synth import FIXTURE_FAMILIES, _rendered_fixture, perturb_signal

CONFIG_ENV = "PANOLAYOUT_CONFIG"

_CAMERA_KEYS = tuple(f.name for f in dataclasses.fields(CameraModel))
_DETECT_KEYS = tuple(f.name for f in dataclasses.fields(DetectConfig))
CONFIG_KEYS = ("mode", *_CAMERA_KEYS, *_DETECT_KEYS)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Run-wide settings, each checked by the type that uses it."""

    mode: str = "ensemble"
    camera: CameraModel = field(default_factory=CameraModel)
    detect: DetectConfig = field(default_factory=DetectConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {self.mode!r}")


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """defaults -> config file (flag or PANOLAYOUT_CONFIG) -> explicit flags.

    The file takes the keys in CONFIG_KEYS; a key set to null, like a flag
    left out, keeps the value from the step before. Every bad setting is a
    UsageError naming its key.
    """
    doc = {}
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as e:
            raise UsageError(f"cannot read config {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise UsageError(f"config {path} is not valid json: {e}") from None
        if not isinstance(doc, dict):
            raise UsageError(f"config {path} must be a json object")
        for key in doc:
            if key not in CONFIG_KEYS:
                raise UsageError(f"config {path}: unknown key {key!r}")
    given = {k: v for src in (doc, overrides) for k, v in src.items() if v is not None}
    pick = lambda keys: {k: given[k] for k in keys if k in given}
    try:
        return RunConfig(
            **pick(("mode",)),
            camera=CameraModel(**pick(_CAMERA_KEYS)),
            detect=DetectConfig(**pick(_DETECT_KEYS)),
        )
    except RoomLayoutError as e:
        raise UsageError(str(e)) from None


def _write_atomic(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _gather(directory: Path, suffix: str) -> list[Path]:
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.name.endswith(suffix))
    if not files:
        raise UsageError(f"no *{suffix} files in {directory}")
    return files


def cmd_postprocess(args) -> int:
    cfg = load_run_config(
        args.config,
        {"mode": args.mode, "camera_height": args.camera_height},
    )
    out_dir = Path(args.out)
    failures = 0
    for path in _gather(Path(args.input), ".sig"):
        stem = path.name[: -len(".sig")]
        try:
            signal = parse_signal_file(path.read_bytes())
            layout = postprocess(signal, cfg.detect, mode=cfg.mode, cam=cfg.camera)
        except (RoomLayoutError, OSError) as e:
            print(f"{path.name}: {e}", file=sys.stderr)
            failures += 1
            continue
        _write_atomic(out_dir / f"{stem}.layout.json", emit_layout_json(layout))
        pair_count = len(layout.occlusion_pairs())
        print(f"{stem}: {len(layout.corners)} corners, {pair_count} occlusion pairs")
    return 2 if failures else 0


def cmd_evaluate(args) -> int:
    # one config file serves both commands: evaluate reads none of its
    # settings, but a bad file still stops the run before any work
    load_run_config(args.config, {})
    pred_files = _gather(Path(args.pred), ".layout.json")
    gt_files = _gather(Path(args.gt), ".layout.json")
    stem = lambda p: p.name[: -len(".layout.json")]
    preds = {stem(p): p for p in pred_files}
    gts = {stem(p): p for p in gt_files}
    failures = 0
    for name in sorted(set(preds) ^ set(gts)):
        side = "prediction" if name in preds else "ground truth"
        print(f"{name}: only the {side} side exists, skipped", file=sys.stderr)
        failures += 1
    paired = sorted(set(preds) & set(gts))
    if not paired:
        raise UsageError("no prediction/ground-truth pairs share a stem")
    reports = []
    for name in paired:
        try:
            pred = parse_layout_json(preds[name].read_bytes())
            gt = parse_layout_json(gts[name].read_bytes())
            rep = evaluate_pair(pred, gt)
        except (RoomLayoutError, OSError) as e:
            print(f"{name}: {e}", file=sys.stderr)
            failures += 1
            continue
        reports.append((name, rep))
    if not reports:
        raise UsageError("every scene failed to evaluate")
    table = emit_report(reports, fmt="table")
    sys.stdout.write(table)
    if args.out:
        _write_atomic(Path(args.out), emit_report(reports, fmt="csv"))
    return 2 if failures else 0


def cmd_synth(args) -> int:
    if args.family not in FIXTURE_FAMILIES:
        raise UsageError(f"family must be one of {FIXTURE_FAMILIES}, got {args.family!r}")
    if args.count < 1:
        raise UsageError("count must be >= 1")
    if args.seed < 0:
        raise UsageError(f"seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.noise_sigma) and args.noise_sigma >= 0):
        raise UsageError(f"noise-sigma must be finite and >= 0, got {args.noise_sigma}")
    out_dir = Path(args.out)
    for k in range(args.count):
        seed = args.seed + k
        _, signal, truth = _rendered_fixture(args.family, seed)
        if args.noise_sigma > 0:
            signal = perturb_signal(signal, args.noise_sigma, seed=seed)
        stem = f"{args.family}_{seed:04d}"
        _write_atomic(out_dir / f"{stem}.sig", emit_signal_file(signal))
        _write_atomic(out_dir / f"{stem}.layout.json", emit_layout_json(truth))
        print(f"{stem}: {len(truth.corners)} corners")
    return 0


def cmd_render(args) -> int:
    out_dir = Path(args.out)
    if args.overlay:
        pred_path, gt_path = args.overlay
        try:
            pred = parse_layout_json(Path(pred_path).read_bytes())
            gt = parse_layout_json(Path(gt_path).read_bytes())
        except (RoomLayoutError, OSError) as e:
            raise UsageError(f"overlay inputs: {e}") from None
        svg = emit_svg_topdown(pred, gt, labels=("prediction", "ground truth"))
        _write_atomic(out_dir / "overlay.svg", svg)
        print("overlay.svg")
        return 0
    if not args.layouts:
        raise UsageError("no layout files given")
    failures = 0
    for name in args.layouts:
        path = Path(name)
        stem = path.name[: -len(".layout.json")] if path.name.endswith(".layout.json") else path.stem
        try:
            layout = parse_layout_json(path.read_bytes())
        except (RoomLayoutError, OSError) as e:
            print(f"{path.name}: {e}", file=sys.stderr)
            failures += 1
            continue
        _write_atomic(out_dir / f"{stem}.svg", emit_svg_topdown(layout))
        _write_atomic(out_dir / f"{stem}.ply", emit_ply(layout))
        print(f"{stem}: svg + ply")
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="panolayout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("postprocess", help="signal files -> layout json")
    p.add_argument("--in", dest="input", required=True, help="directory of .sig files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--camera-height", type=float, default=None)
    p.add_argument("--config", default=None, help="json run config")
    p.set_defaults(func=cmd_postprocess)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .layout.json")
    p.add_argument("--gt", required=True, help="directory of ground-truth .layout.json")
    p.add_argument("--out", default=None, help="also write a csv report here")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic rooms and signals")
    p.add_argument("--family", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="layout json -> svg and ply")
    p.add_argument("layouts", nargs="*", help="layout json files")
    p.add_argument("--out", required=True)
    p.add_argument("--overlay", nargs=2, metavar=("PRED", "GT"), default=None)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
