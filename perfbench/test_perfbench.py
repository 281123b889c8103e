"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

They use one fixture seed per family, so each workload pass takes about a
second.
"""

import sys

import pytest

import run
import tracer as tracing
from workloads import (
    CliRoundtrip,
    CorrectnessError,
    NoisyPostprocess,
    OracleEval,
    _csv_float,
    import_panolayout,
)

pl = import_panolayout()



@pytest.fixture(params=["oracle_eval", "noisy_postprocess", "cli_roundtrip"])
def workload(request, tmp_path):
    if request.param == "cli_roundtrip":
        return CliRoundtrip(pl, per_family=1, work_dir=tmp_path)
    return {"oracle_eval": OracleEval, "noisy_postprocess": NoisyPostprocess}[request.param](
        pl, per_family=1
    )


def test_traced_outputs_equal_untraced(workload):
    corpus = workload.setup(3)
    plain = workload.run_pass(corpus)
    with tracing.Tracer() as tr:
        traced = workload.run_pass(corpus, tr)
    assert tr.spans
    assert traced.digest == plain.digest


def test_patched_functions_are_restored():
    originals = {
        (mod, attr): getattr(sys.modules[mod], attr) for mod, attr in tracing.TRACED.values()
    }
    cli_parse = pl.cli.parse_signal_file
    with tracing.Tracer():
        # every namespace that binds a traced function gets the wrapper
        assert pl.cli.parse_signal_file is not cli_parse
        assert pl.postprocess is pl.detect.postprocess
        assert pl.postprocess is not originals[("panolayout.detect", "postprocess")]
        assert tracing.still_wrapped()
    assert tracing.still_wrapped() == []
    assert pl.cli.parse_signal_file is cli_parse
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn


def test_spans_record_parent_scene_and_self_time():
    work = OracleEval(pl, per_family=1)
    rooms = work.setup(0)[:1]
    with tracing.Tracer() as tr:
        work.run_pass(rooms, tr)
    names = [s[tracing.NAME] for s in tr.spans]
    assert "metrics.evaluate_pair" in names and "synth.layout_boundaries" in names
    assert {s[tracing.SCENE] for s in tr.spans} == {rooms[0][0]}
    for s in tr.spans:
        assert s[tracing.END] >= s[tracing.START]
        if s[tracing.PARENT] >= 0:
            parent = tr.spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
    times = tracing.span_times(tr.spans)
    assert 0 < times["metrics.evaluate_pair.self_ms"] < times["metrics.evaluate_pair.ms"]


def test_seed_changes_inputs_not_metric_names(workload):
    e2e = {m["name"] for m in run.BENCHMARK["end_to_end"]}
    layers = {m["name"] for m in run.BENCHMARK["per_layer"]}
    names, inputs = [], []
    for seed in (0, 1):
        inputs.append(repr(workload.setup(seed)))
        passes, setup_s = run.measure(workload, seed, 0)
        names.append(set(run.e2e_metrics(passes, setup_s)))
        traced = run.layer_metrics(*run.measure_traced(workload, seed, 0))
        names.append(set(traced))
        assert all(isinstance(v, (int, float)) for v in traced.values())
    assert inputs[0] != inputs[1]
    assert names == [e2e, layers, e2e, layers]


def test_exact_counts_repeat_between_runs():
    work = NoisyPostprocess(pl, per_family=1)
    counts = []
    for _ in range(2):
        plain, traced, bounds, spans = run.measure_traced(work, 5, 0)
        counts.append(tracing.pass_counts(spans, *bounds[0]))
    assert counts[0] == counts[1]
    assert counts[0]["geometry.estimate_room_height.calls_per_scene"] == 2.0


def test_failure_counts_do_not_depend_on_the_number_of_passes():
    work = NoisyPostprocess(pl, per_family=1)
    signals = work.setup(0)
    once = run.failure_counts([work.run_pass(signals)])
    thrice = run.failure_counts([work.run_pass(signals) for _ in range(3)])
    assert once == thrice
    assert once["attempted"] == len(signals)


def test_oracle_check_rejects_a_wrong_score(monkeypatch):
    work = OracleEval(pl, per_family=1)
    rooms = work.setup(0)
    real = pl.evaluate_pair

    def low_iou(pred, gt, **kw):
        rep = real(pred, gt, **kw)
        return type(rep)(0.5, *rep.as_row()[1:])

    monkeypatch.setattr(pl, "evaluate_pair", low_iou)
    with pytest.raises(CorrectnessError, match="iou2d"):
        work.run_pass(rooms)


def test_cli_check_rejects_a_csv_that_differs_from_the_library(tmp_path):
    work = CliRoundtrip(pl, per_family=1, work_dir=tmp_path)
    res = work.run_pass(work.setup(0))
    work.check(res)
    report = next(name for name in res.files if name.startswith("report/"))
    header, first, *rest = res.files[report].decode().splitlines()
    name, iou, *others = first.split(",")
    bad = ",".join([name, repr(_csv_float(iou) / 2), *others])
    res.files[report] = "\n".join([header, bad, *rest]).encode()
    res.digest = "changed"
    work.checked_digest = None
    with pytest.raises(CorrectnessError, match="csv"):
        work.check(res)
