"""Tests of the experiment script on a small noisy corpus."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

from panolayout import (
    MODES,
    ReconstructionError,
    corner_error,
    iou_2d,
    junction_f,
    make_fixture,
    perturb_signal,
    postprocess,
    render_signal,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["square", "l_room"], [0, 1]


def test_noise_sweep_runs_at_documented_sigma():
    # The sweep is the ensemble row of layout_digest's table at each noise level.
    script = _load("layout_digest")
    _, table = script.digest(*SMALL, [0.005])
    ious, errors, fscores, exact, pairs = [], [], [], 0, 0
    for family in SMALL[0]:
        for seed in SMALL[1]:
            signal, truth = render_signal(make_fixture(family, seed))
            pred = postprocess(perturb_signal(signal, 0.005, seed=seed))
            ious.append(iou_2d(pred, truth))
            errors.append(corner_error(pred, truth))
            fscores.append(junction_f(pred, truth))
            exact += len(pred.corners) == len(truth.corners)
            pairs += len(pred.occlusion_pairs()) == len(truth.occlusion_pairs())
    assert script.summary(table[0.005, "ensemble"]) == (
        np.mean(ious), np.min(ious), np.mean(errors), np.mean(fscores), exact / 4, pairs / 4
    )


def test_run_ablation_runs_at_documented_sigma():
    # The ablation is the per-mode rows of layout_digest's table.
    script = _load("layout_digest")
    _, table = script.digest(*SMALL, [0.005])
    assert list(table) == [(0.005, mode) for mode in MODES]
    for cell in table.values():
        assert cell.outcomes == {"ok": 4}
        iou_mean, iou_min, err, jf, exact, pair_acc = script.summary(cell)
        assert 0 < iou_min <= iou_mean <= 1 and err >= 0
        assert 0 <= jf <= 1 and 0 <= exact <= 1 and 0 <= pair_acc <= 1


def test_layout_digest_counts_failures_by_class(monkeypatch, capsys):
    script = _load("layout_digest")
    real = script.postprocess
    failing = perturb_signal(render_signal(make_fixture("square", 0))[0], 0.005, seed=0)

    def fail_one_scene(signal, mode):
        if np.array_equal(signal.y_f, failing.y_f):
            raise ReconstructionError("too few corners")
        return real(signal, mode=mode)

    monkeypatch.setattr(script, "postprocess", fail_one_scene)
    corpus = ["--families", *SMALL[0], "--seeds", *map(str, SMALL[1]), "--sigmas", "0.005"]
    assert script.main(corpus) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("  0.0050")]
    assert [row[1] for row in rows] == list(MODES)
    for row in rows:
        assert row[2] == "3" and row[-2:] == ["ReconstructionError", "1"]
    assert "ensemble minus best single source" in out
    assert "runs 12: ReconstructionError 3, ok 9" in out


def test_layout_digest_repeats():
    digest = _load("layout_digest").digest
    first = digest(*SMALL)
    assert digest(*SMALL) == first
    hexdigest, table = first
    assert len(hexdigest) == 64
    assert sum(sum(cell.outcomes.values()) for cell in table.values()) == 2 * 2 * 4 * 3


# Output drift on the small corpus fails here without the full 2880-run
# digest; a change that moves any output on purpose updates this value and
# says so in CHANGES.md.
SMALL_CORPUS_DIGEST = "cbe6e04efd8955de1cbe6c6d71311deb706c6d10689931fae153dcea00a98f88"


def test_layout_digest_pinned_on_small_corpus():
    hexdigest, table = _load("layout_digest").digest(*SMALL)
    assert all(cell.outcomes == {"ok": 4} for cell in table.values())
    assert hexdigest == SMALL_CORPUS_DIGEST


# The candidates of every mode on the small corpus: their columns, strengths
# and source names. A change to the detectors that moves any candidate on
# purpose updates this value and says so in CHANGES.md.
SMALL_CORPUS_CANDIDATE_DIGEST = "b545582da7335208a5119bc92819755a7d71adac4a0cf8c33e56da110e85e3d3"


def test_candidate_digest_pinned_on_small_corpus():
    assert _load("layout_digest").candidate_digest(*SMALL) == SMALL_CORPUS_CANDIDATE_DIGEST


def test_layout_digest_expect_sets_exit_status(capsys):
    script = _load("layout_digest")
    corpus = ["--families", "square", "l_room", "--seeds", "0", "1"]
    hexdigest, _ = script.digest(*SMALL)
    assert script.main([*corpus, "--expect", hexdigest]) == 0
    assert "mismatch" not in capsys.readouterr().out
    wrong = "0" * 64
    assert script.main([*corpus, "--expect", wrong]) == 1
    out = capsys.readouterr().out
    assert f"digest mismatch: expected {wrong}, got {hexdigest}" in out


def _checkout_copy(dest: Path) -> Path:
    """What perfbench needs of a checkout: its harness, the package and BENCHMARK.json."""
    root = SCRIPTS.parent
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_run")
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, dest / name, ignore=ignore)
    shutil.copy(root / "BENCHMARK.json", dest)
    return dest


def test_perf_pairs_one_pair_smoke(tmp_path, capsys):
    script = _load("perf_pairs")
    parent, change = (_checkout_copy(tmp_path / side) for side in ("parent", "change"))
    argv = [str(parent), str(change), "--workload", "noisy_postprocess",
            "--seeds", "0", "--seconds", "0"]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 1/1 seed 0, parent first: setup_s ")
    rows = {line.split()[0]: line.split() for line in lines[3:]}
    metrics = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(rows) == [m["name"] for m in metrics]
    # the same code on both sides: shares tie, and a tie is no win, no gain
    # and no step past the bound
    for name in ("ok_share", "exact_corner_share"):
        assert rows[name][-3:] == ["unmet", "within", "0/1"]


# ten pairs of a lower-is-better metric: the parent's median is 1.09 and its
# quartiles 1.045 and 1.135, an interquartile range of 0.09
PARENT_RUNS = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]


def test_perf_pairs_gain_needs_nine_wins_in_ten():
    script = _load("perf_pairs")
    change = [p - 0.2 for p in PARENT_RUNS]
    change[0] = 1.5  # one loss: 9/10 wins, median 0.91
    assert script.wins(PARENT_RUNS, change, "lower") == 9
    assert script.gain_met(PARENT_RUNS, change, "lower")
    change[1] = 1.5  # a second loss: 8/10
    assert script.wins(PARENT_RUNS, change, "lower") == 8
    assert not script.gain_met(PARENT_RUNS, change, "lower")
    # 18 of 20 wins is the same share as 9 of 10
    twenty = PARENT_RUNS + [p + 0.01 for p in PARENT_RUNS]
    change = [p - 0.2 for p in twenty]
    change[0] = change[10] = 1.5
    assert script.gain_met(twenty, change, "lower")


def test_perf_pairs_gain_needs_a_median_beyond_the_parent_quartiles():
    script = _load("perf_pairs")
    within = [p - 0.05 for p in PARENT_RUNS]  # wins every pair, by less than 0.09
    assert script.wins(PARENT_RUNS, within, "lower") == 10
    assert not script.gain_met(PARENT_RUNS, within, "lower")
    beyond = [p - 0.1 for p in PARENT_RUNS]
    assert script.gain_met(PARENT_RUNS, beyond, "lower")
    # the same runs read as a loss on a higher-is-better metric
    assert script.wins(PARENT_RUNS, beyond, "higher") == 0
    assert not script.gain_met(PARENT_RUNS, beyond, "higher")
    assert script.gain_met(beyond, PARENT_RUNS, "higher")


def test_perf_pairs_bound_is_a_share_of_the_parent_median():
    script = _load("perf_pairs")
    parent = [0.9, 1.0, 1.1]  # median 1.0
    assert script.bound_exceeded(parent, [1.2, 1.3, 1.4], "lower", 0.25)
    assert not script.bound_exceeded(parent, [1.1, 1.2, 1.3], "lower", 0.25)
    assert script.bound_exceeded(parent, [0.6, 0.7, 0.8], "higher", 0.25)
    assert not script.bound_exceeded(parent, [0.7, 0.8, 0.9], "higher", 0.25)
    # better by any margin is within the bound
    assert not script.bound_exceeded(parent, [0.1, 0.1, 0.1], "lower", 0.25)
    assert not script.bound_exceeded(parent, [9.0, 9.0, 9.0], "higher", 0.25)


def test_perf_pairs_reports_a_failed_run(tmp_path, capsys):
    # perfbench exits non-zero without a result when src/ holds no package
    script = _load("perf_pairs")
    broken = _checkout_copy(tmp_path / "broken")
    shutil.rmtree(broken / "src" / "panolayout")
    argv = [str(broken), str(broken), "--workload", "noisy_postprocess",
            "--seeds", "0", "--seconds", "0"]
    assert script.main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"pair 1: {broken}: perfbench exited 1 without a result")
