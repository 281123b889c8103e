"""End-to-end checks for the batch command line.

Everything goes through main(argv) in-process so exit codes and stdout/stderr
can be asserted directly; the console-script wrapper adds nothing on top.
"""

import dataclasses
import json

import numpy as np
import pytest

from panolayout import (
    CameraModel,
    DetectConfig,
    ImageGrid,
    emit_layout_json,
    emit_ply,
    emit_signal_file,
    emit_svg_topdown,
    make_fixture,
    parse_layout_json,
    parse_signal_file,
    postprocess,
    render_signal,
)
from panolayout.cli import CONFIG_ENV, CONFIG_KEYS, main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def write_corpus(directory, families=("square", "l_room"), seeds=(0, 1)):
    """Clean signal + truth files straight from the library; returns stems."""
    directory.mkdir(parents=True, exist_ok=True)
    stems = []
    for family in families:
        for seed in seeds:
            signal, truth = render_signal(make_fixture(family, seed))
            stem = f"{family}_{seed:04d}"
            (directory / f"{stem}.sig").write_text(emit_signal_file(signal))
            (directory / f"{stem}.layout.json").write_text(emit_layout_json(truth))
            stems.append(stem)
    return stems


class TestPostprocess:
    def test_writes_layout_per_signal(self, tmp_path, run):
        stems = write_corpus(tmp_path / "in")
        code, out, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")
        )
        assert code == 0
        assert err == ""
        for stem in stems:
            assert (tmp_path / "out" / f"{stem}.layout.json").exists()
        lines = out.strip().splitlines()
        assert len(lines) == len(stems)

    def test_summary_line_counts_corners_and_pairs(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("l_room",), seeds=(0,))
        code, out, _ = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")
        )
        assert code == 0
        layout = parse_layout_json(
            (tmp_path / "out" / "l_room_0000.layout.json").read_text()
        )
        pairs = len(layout.occlusion_pairs())
        expected = f"l_room_0000: {len(layout.corners)} corners, {pairs} occlusion pairs"
        assert out.strip() == expected
        assert pairs == 1

    def test_output_matches_library_bytes(self, tmp_path, run):
        stems = write_corpus(tmp_path / "in")
        run("postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"))
        cam = CameraModel(1.6)
        for stem in stems:
            signal = parse_signal_file((tmp_path / "in" / f"{stem}.sig").read_bytes())
            expected = emit_layout_json(
                postprocess(signal, DetectConfig(), mode="ensemble", cam=cam)
            )
            assert (tmp_path / "out" / f"{stem}.layout.json").read_text() == expected

    def test_mode_flag_changes_pipeline(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(3,))
        code, _, _ = run(
            "postprocess",
            "--in", str(tmp_path / "in"),
            "--out", str(tmp_path / "out"),
            "--mode", "3d_only",
        )
        assert code == 0
        signal = parse_signal_file((tmp_path / "in" / "square_0003.sig").read_bytes())
        expected = emit_layout_json(
            postprocess(signal, DetectConfig(), mode="3d_only", cam=CameraModel(1.6))
        )
        assert (tmp_path / "out" / "square_0003.layout.json").read_text() == expected

    def test_corrupt_file_skipped_with_status_2(self, tmp_path, run):
        stems = write_corpus(tmp_path / "in", families=("square",), seeds=(0, 1))
        (tmp_path / "in" / "broken.sig").write_text("not a signal file\n")
        code, out, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert "broken.sig" in err
        # the healthy files are still converted
        for stem in stems:
            assert (tmp_path / "out" / f"{stem}.layout.json").exists()
        assert not (tmp_path / "out" / "broken.layout.json").exists()
        assert len(out.strip().splitlines()) == len(stems)

    def test_empty_directory_is_usage_error(self, tmp_path, run):
        (tmp_path / "in").mkdir()
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith("error:")

    def test_missing_directory_is_usage_error(self, tmp_path, run):
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert "not a directory" in err

    def test_no_stray_temp_files(self, tmp_path, run):
        write_corpus(tmp_path / "in")
        run("postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"))
        names = [p.name for p in (tmp_path / "out").iterdir()]
        assert all(n.endswith(".layout.json") for n in names)


class TestEvaluate:
    def test_ground_truth_against_itself_is_perfect(self, tmp_path, run):
        write_corpus(tmp_path / "gt")
        code, out, err = run(
            "evaluate", "--pred", str(tmp_path / "gt"), "--gt", str(tmp_path / "gt")
        )
        assert code == 0
        assert err == ""
        assert "mean" in out
        for line in out.strip().splitlines()[2:]:
            values = line.split()[1:]
            assert values[:2] == ["1.0000", "1.0000"]      # both IoU columns
            assert values[2:4] == ["0.0000", "0.0000"]     # both error columns
            assert values[4:] == ["1.0000", "1.0000", "1.0000"]

    def test_csv_out_matches_table_scenes(self, tmp_path, run):
        stems = write_corpus(tmp_path / "gt", families=("square",), seeds=(0, 1))
        csv_path = tmp_path / "report.csv"
        code, _, _ = run(
            "evaluate",
            "--pred", str(tmp_path / "gt"),
            "--gt", str(tmp_path / "gt"),
            "--out", str(csv_path),
        )
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("scene,")
        assert [r.split(",")[0] for r in rows[1:]] == sorted(stems) + ["mean"]

    def test_resolution_is_no_longer_an_option(self, tmp_path, run):
        # IoU is exact, so the raster resolution knob is gone from flags and config
        write_corpus(tmp_path / "gt", families=("square",), seeds=(0,))
        dirs = ("--pred", str(tmp_path / "gt"), "--gt", str(tmp_path / "gt"))
        code, _, err = run("evaluate", *dirs, "--resolution", "4096")
        assert code == 1
        assert "--resolution" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 4096}))
        code, _, err = run("evaluate", *dirs, "--config", str(cfg))
        assert code == 1
        assert "unknown key 'resolution'" in err

    def test_prediction_scores_through_cli(self, tmp_path, run):
        write_corpus(tmp_path / "gt", families=("l_room",), seeds=(0, 1, 2))
        run("postprocess", "--in", str(tmp_path / "gt"), "--out", str(tmp_path / "pred"))
        code, out, _ = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 0
        mean_line = out.strip().splitlines()[-1]
        assert mean_line.split()[0] == "mean"
        iou2d = float(mean_line.split()[1])
        assert iou2d > 0.99

    def test_unpaired_stem_skipped_with_status_2(self, tmp_path, run):
        write_corpus(tmp_path / "gt", families=("square",), seeds=(0, 1))
        run("postprocess", "--in", str(tmp_path / "gt"), "--out", str(tmp_path / "pred"))
        signal, truth = render_signal(make_fixture("square", 9))
        (tmp_path / "pred" / "extra.layout.json").write_text(emit_layout_json(truth))
        code, out, err = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 2
        assert "extra: only the prediction side exists, skipped" in err
        # paired scenes are still scored
        assert "square_0000" in out and "square_0001" in out

    def test_unpaired_gt_side_named(self, tmp_path, run):
        write_corpus(tmp_path / "gt", families=("square",), seeds=(0, 1))
        write_corpus(tmp_path / "pred", families=("square",), seeds=(1, 2))
        code, _, err = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 2
        assert "square_0000: only the ground truth side exists, skipped" in err
        assert "square_0002: only the prediction side exists, skipped" in err

    def test_pair_on_different_grids_skipped_with_status_2(self, tmp_path, run):
        write_corpus(tmp_path / "gt", families=("square",), seeds=(0, 1))
        write_corpus(tmp_path / "pred", families=("square",), seeds=(0,))
        _, small = render_signal(make_fixture("square", 1), ImageGrid(512, 256))
        (tmp_path / "pred" / "square_0001.layout.json").write_text(emit_layout_json(small))
        code, out, err = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 2
        assert err.startswith("square_0001: layouts are on different grids")
        assert err.count("\n") == 1
        assert "square_0000" in out and "square_0001" not in out

    def test_no_shared_stems_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "gt", families=("square",), seeds=(0,))
        write_corpus(tmp_path / "pred", families=("square",), seeds=(1,))
        code, _, err = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 1
        assert "share a stem" in err

    def test_empty_gt_directory_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "pred", families=("square",), seeds=(0,))
        (tmp_path / "gt").mkdir()
        code, _, err = run(
            "evaluate", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")
        )
        assert code == 1
        assert err.startswith("error:")


class TestSynth:
    def test_runs_are_byte_identical(self, tmp_path, run):
        for name in ("a", "b"):
            code, _, _ = run(
                "synth",
                "--family", "l_room",
                "--count", "3",
                "--seed", "7",
                "--out", str(tmp_path / name),
            )
            assert code == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 6
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stems_follow_family_and_seed(self, tmp_path, run):
        _, out, _ = run(
            "synth", "--family", "pentagon", "--count", "2", "--seed", "41",
            "--out", str(tmp_path / "d"),
        )
        assert (tmp_path / "d" / "pentagon_0041.sig").exists()
        assert (tmp_path / "d" / "pentagon_0042.layout.json").exists()
        assert out.startswith("pentagon_0041:")

    def test_outputs_match_library(self, tmp_path, run):
        run("synth", "--family", "t_room", "--seed", "5", "--out", str(tmp_path / "d"))
        signal, truth = render_signal(make_fixture("t_room", 5))
        assert (tmp_path / "d" / "t_room_0005.sig").read_text() == emit_signal_file(signal)
        assert (
            tmp_path / "d" / "t_room_0005.layout.json"
        ).read_text() == emit_layout_json(truth)

    def test_noise_sigma_perturbs_boundaries_only(self, tmp_path, run):
        run("synth", "--family", "square", "--seed", "2", "--out", str(tmp_path / "clean"))
        run(
            "synth", "--family", "square", "--seed", "2", "--noise-sigma", "0.002",
            "--out", str(tmp_path / "noisy"),
        )
        clean = parse_signal_file((tmp_path / "clean" / "square_0002.sig").read_bytes())
        noisy = parse_signal_file((tmp_path / "noisy" / "square_0002.sig").read_bytes())
        assert np.array_equal(clean.y_p, noisy.y_p)
        assert not np.array_equal(clean.y_f, noisy.y_f)
        # truth layouts are unaffected by signal noise
        assert (
            tmp_path / "clean" / "square_0002.layout.json"
        ).read_bytes() == (tmp_path / "noisy" / "square_0002.layout.json").read_bytes()

    def test_unknown_family_is_usage_error(self, tmp_path, run):
        code, _, err = run("synth", "--family", "dodecahedron", "--out", str(tmp_path))
        assert code == 1
        assert "family" in err

    def test_nonpositive_count_is_usage_error(self, tmp_path, run):
        code, _, err = run(
            "synth", "--family", "square", "--count", "0", "--out", str(tmp_path)
        )
        assert code == 1
        assert "count" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--noise-sigma", "-0.1"),
            ("--noise-sigma", "nan"),
            ("--noise-sigma", "inf"),
        ],
    )
    def test_bad_seed_or_noise_is_usage_error(self, tmp_path, run, flag, value):
        code, _, err = run(
            "synth", "--family", "square", flag, value, "--out", str(tmp_path / "d")
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag[2:] in err
        assert not (tmp_path / "d").exists()


class TestRender:
    def test_svg_and_ply_per_layout(self, tmp_path, run):
        write_corpus(tmp_path / "d", families=("l_room",), seeds=(0,))
        layout_path = tmp_path / "d" / "l_room_0000.layout.json"
        code, out, _ = run("render", str(layout_path), "--out", str(tmp_path / "r"))
        assert code == 0
        assert out.strip() == "l_room_0000: svg + ply"
        layout = parse_layout_json(layout_path.read_bytes())
        assert (tmp_path / "r" / "l_room_0000.svg").read_text() == emit_svg_topdown(layout)
        assert (tmp_path / "r" / "l_room_0000.ply").read_bytes() == emit_ply(layout)

    def test_overlay_writes_labeled_svg(self, tmp_path, run):
        write_corpus(tmp_path / "d", families=("square",), seeds=(0,))
        run("postprocess", "--in", str(tmp_path / "d"), "--out", str(tmp_path / "p"))
        pred_path = tmp_path / "p" / "square_0000.layout.json"
        gt_path = tmp_path / "d" / "square_0000.layout.json"
        code, out, _ = run(
            "render", "--out", str(tmp_path / "r"),
            "--overlay", str(pred_path), str(gt_path),
        )
        assert code == 0
        assert out.strip() == "overlay.svg"
        expected = emit_svg_topdown(
            parse_layout_json(pred_path.read_bytes()),
            parse_layout_json(gt_path.read_bytes()),
            labels=("prediction", "ground truth"),
        )
        assert (tmp_path / "r" / "overlay.svg").read_text() == expected

    def test_missing_layout_gives_status_2(self, tmp_path, run):
        write_corpus(tmp_path / "d", families=("square",), seeds=(0,))
        good = tmp_path / "d" / "square_0000.layout.json"
        code, out, err = run(
            "render", str(good), str(tmp_path / "d" / "gone.layout.json"),
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "gone.layout.json" in err
        assert (tmp_path / "r" / "square_0000.svg").exists()

    def test_layout_not_around_its_camera_fails_per_file(self, tmp_path, run):
        write_corpus(tmp_path / "d", families=("square",), seeds=(0,))
        good = tmp_path / "d" / "square_0000.layout.json"
        doc = json.loads(good.read_text())
        corner = {"ceil_lat": 0.5, "floor_lat": -0.5, "kind": "visible"}
        doc["corners"] = [dict(corner, column=col) for col in (100.0, 200.0, 300.0)]
        bad = tmp_path / "d" / "wedge.layout.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run("render", str(good), str(bad), "--out", str(tmp_path / "r"))
        assert code == 2
        assert out.strip() == "square_0000: svg + ply"
        assert "wedge.layout.json" in err and "half a turn" in err
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
            "square_0000.ply", "square_0000.svg"
        ]

    def test_no_layouts_is_usage_error(self, tmp_path, run):
        code, _, err = run("render", "--out", str(tmp_path / "r"))
        assert code == 1
        assert "no layout files" in err


class TestRunConfig:
    def test_config_file_sets_mode(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "2d_only", "camera_height": 1.2}))
        code, _, _ = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 0
        signal = parse_signal_file((tmp_path / "in" / "square_0000.sig").read_bytes())
        expected = emit_layout_json(
            postprocess(signal, DetectConfig(), mode="2d_only", cam=CameraModel(1.2))
        )
        assert (tmp_path / "out" / "square_0000.layout.json").read_text() == expected

    def test_flags_override_config_file(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"camera_height": 1.2}))
        run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg), "--camera-height", "2.0",
        )
        signal = parse_signal_file((tmp_path / "in" / "square_0000.sig").read_bytes())
        expected = emit_layout_json(
            postprocess(signal, DetectConfig(), mode="ensemble", cam=CameraModel(2.0))
        )
        assert (tmp_path / "out" / "square_0000.layout.json").read_text() == expected

    def test_env_var_supplies_default_config(self, tmp_path, run, monkeypatch):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "3d_only"}))
        monkeypatch.setenv(CONFIG_ENV, str(cfg))
        run("postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"))
        signal = parse_signal_file((tmp_path / "in" / "square_0000.sig").read_bytes())
        expected = emit_layout_json(
            postprocess(signal, DetectConfig(), mode="3d_only", cam=CameraModel(1.6))
        )
        assert (tmp_path / "out" / "square_0000.layout.json").read_text() == expected

    def test_config_flag_beats_env_var(self, tmp_path, run, monkeypatch):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text(json.dumps({"mode": "3d_only"}))
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text(json.dumps({"mode": "2d_only"}))
        monkeypatch.setenv(CONFIG_ENV, str(env_cfg))
        run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(flag_cfg),
        )
        signal = parse_signal_file((tmp_path / "in" / "square_0000.sig").read_bytes())
        expected = emit_layout_json(
            postprocess(signal, DetectConfig(), mode="2d_only", cam=CameraModel(1.6))
        )
        assert (tmp_path / "out" / "square_0000.layout.json").read_text() == expected

    def test_unknown_config_key_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"camera_hieght": 1.2}))
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 1
        assert "camera_hieght" in err

    def test_invalid_mode_in_config_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "psychic"}))
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 1
        assert "mode" in err

    def test_unreadable_config_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(tmp_path / "missing.json"),
        )
        assert code == 1
        assert "cannot read config" in err

    def test_malformed_config_json_is_usage_error(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 1
        assert "not valid json" in err

    def test_detect_overrides_flow_through(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("l_room",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jump_ratio": 1.05, "cluster_radius": 6}))
        code, _, _ = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 0
        signal = parse_signal_file((tmp_path / "in" / "l_room_0000.sig").read_bytes())
        detect_cfg = DetectConfig(jump_ratio=1.05, cluster_radius=6)
        expected = emit_layout_json(
            postprocess(signal, detect_cfg, mode="ensemble", cam=CameraModel(1.6))
        )
        assert (tmp_path / "out" / "l_room_0000.layout.json").read_text() == expected


BAD_SETTINGS = [
    ("jump_ratio", 0.9),
    ("peak_min_separation", 0),
    ("smoothing_width", 2.5),
    ("cluster_radius", "4"),
    ("camera_height", -1),
    ("camera_height", "tall"),
    ("mode", "bogus"),
    ("regime", "bogus"),
    ("regime", "non_visible"),  # the key was removed with the visible regime
]


def settings_argv(command, tmp_path):
    """postprocess or evaluate on one clean room, writing under tmp_path/out."""
    write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
    if command == "postprocess":
        return (command, "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"))
    return (
        command, "--pred", str(tmp_path / "in"), "--gt", str(tmp_path / "in"),
        "--out", str(tmp_path / "out" / "report.csv"),
    )


class TestSettings:
    """Every setting of CONFIG_KEYS, from a file or a flag, is checked before any work."""

    def test_config_keys_are_the_library_fields(self):
        assert CONFIG_KEYS == (
            "mode",
            "camera_height",
            "peak_threshold",
            "peak_min_separation",
            "slope_threshold",
            "kink_threshold",
            "jump_ratio",
            "cluster_radius",
            "extrema_window",
            "smoothing_width",
        )

    @pytest.mark.parametrize("command", ["postprocess", "evaluate"])
    @pytest.mark.parametrize("key, value", BAD_SETTINGS)
    def test_bad_config_value_is_usage_error(self, tmp_path, run, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(*settings_argv(command, tmp_path), "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("postprocess", "--camera-height", "-1"),
            ("postprocess", "--camera-height", "inf"),
            ("postprocess", "--mode", "bogus"),
            ("evaluate", "--regime", "bogus"),  # the flag was removed
        ],
    )
    def test_bad_flag_value_is_usage_error(self, tmp_path, run, command, flag, value):
        code, out, err = run(*settings_argv(command, tmp_path), flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag[2:] in err or flag[2:].replace("-", "_") in err
        assert not (tmp_path / "out").exists()

    def test_null_keeps_the_default(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("l_room",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(CONFIG_KEYS)))
        code, _, err = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 0 and err == ""
        signal = parse_signal_file((tmp_path / "in" / "l_room_0000.sig").read_bytes())
        expected = emit_layout_json(postprocess(signal))
        assert (tmp_path / "out" / "l_room_0000.layout.json").read_text() == expected

    def test_null_key_beside_a_set_key(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square",), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"camera_height": 1.2, "mode": None}))
        code, _, _ = run(
            "postprocess", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--config", str(cfg),
        )
        assert code == 0
        signal = parse_signal_file((tmp_path / "in" / "square_0000.sig").read_bytes())
        expected = emit_layout_json(postprocess(signal, cam=CameraModel(1.2)))
        assert (tmp_path / "out" / "square_0000.layout.json").read_text() == expected

    def test_all_defaults_config_gives_identical_files(self, tmp_path, run):
        write_corpus(tmp_path / "in", families=("square", "l_room", "t_room"), seeds=(0,))
        cfg = tmp_path / "cfg.json"
        defaults = dataclasses.asdict(DetectConfig())
        defaults.update(mode="ensemble", camera_height=1.6)
        assert set(defaults) == set(CONFIG_KEYS)
        cfg.write_text(json.dumps(defaults))
        for name, extra in (("plain", ()), ("cfg", ("--config", str(cfg)))):
            out = tmp_path / name
            assert run(
                "postprocess", "--in", str(tmp_path / "in"), "--out", str(out / "pred"), *extra
            )[0] == 0
            assert run(
                "evaluate", "--pred", str(out / "pred"), "--gt", str(tmp_path / "in"),
                "--out", str(out / "report.csv"), *extra,
            )[0] == 0
        plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*"))
        assert plain == sorted(p.relative_to(tmp_path / "cfg") for p in (tmp_path / "cfg").rglob("*"))
        for rel in plain:
            if (tmp_path / "plain" / rel).is_file():
                assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "cfg" / rel).read_bytes()


class TestArgumentErrors:
    def test_missing_subcommand_returns_1(self, run):
        code, _, err = run()
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_subcommand_returns_1(self, run):
        code, _, err = run("transmogrify")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_flag_returns_1(self, run):
        code, _, err = run("postprocess", "--out", "somewhere")
        assert code == 1
        assert err.startswith("error:")

    def test_bad_mode_choice_returns_1(self, tmp_path, run):
        code, _, err = run(
            "postprocess", "--in", str(tmp_path), "--out", str(tmp_path),
            "--mode", "telepathy",
        )
        assert code == 1
        assert "invalid choice" in err
