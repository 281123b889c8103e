"""Tests of the experiment script on a small noisy corpus."""

import importlib.util
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
SMALL_CORPUS_DIGEST = "b6e920d3b6d33886ddf23899260b79928e58a2bd6bab6cba6a007c4b10380277"


def test_layout_digest_pinned_on_small_corpus():
    hexdigest, table = _load("layout_digest").digest(*SMALL)
    assert all(cell.outcomes == {"ok": 4} for cell in table.values())
    assert hexdigest == SMALL_CORPUS_DIGEST


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
