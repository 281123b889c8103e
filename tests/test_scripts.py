"""Smoke tests of the experiment scripts on a small noisy corpus."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_noise_sweep_runs_at_documented_sigma():
    (row,) = _load("noise_sweep").sweep(["square", "l_room"], 2, [0.005])
    sigma, iou_mean, iou_min, corner_err, exact = row
    assert sigma == 0.005
    assert 0 < iou_min <= iou_mean <= 1
    assert corner_err >= 0
    assert 0 <= exact <= 1


def test_run_ablation_runs_at_documented_sigma():
    rows = _load("run_ablation").run(["square", "l_room"], 2, 0.005)
    assert [r[0] for r in rows] == ["2d_only", "3d_only", "ensemble"]
    for _, jf, iou, err, pair_acc in rows:
        assert 0 <= jf <= 1 and 0 < iou <= 1 and err >= 0 and 0 <= pair_acc <= 1


def test_layout_digest_repeats():
    digest = _load("layout_digest").digest
    first = digest(["square", "l_room"], [0, 1])
    assert digest(["square", "l_room"], [0, 1]) == first
    hexdigest, outcomes = first
    assert len(hexdigest) == 64
    assert sum(outcomes.values()) == 2 * 2 * 4 * 3


# Output drift on the small corpus fails here without the full 2880-run
# digest; a change that moves any output on purpose updates this value and
# says so in CHANGES.md.
SMALL_CORPUS_DIGEST = "3cd68ae37089904a481f0c4c587b7a51d577b4d21b121bedc18a975ae66abc92"


def test_layout_digest_pinned_on_small_corpus():
    hexdigest, outcomes = _load("layout_digest").digest(["square", "l_room"], [0, 1])
    assert outcomes == {"ok": 48}
    assert hexdigest == SMALL_CORPUS_DIGEST


def test_layout_digest_expect_sets_exit_status(capsys):
    script = _load("layout_digest")
    corpus = ["--families", "square", "l_room", "--seeds", "0", "1"]
    hexdigest, _ = script.digest(["square", "l_room"], [0, 1])
    assert script.main([*corpus, "--expect", hexdigest]) == 0
    assert "mismatch" not in capsys.readouterr().out
    wrong = "0" * 64
    assert script.main([*corpus, "--expect", wrong]) == 1
    out = capsys.readouterr().out
    assert f"digest mismatch: expected {wrong}, got {hexdigest}" in out
