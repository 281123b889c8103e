"""Benchmark of panolayout's end-to-end paths and, traced, of its layers.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_eval --seed 0 --seconds 20 --trace 0

Workloads are described in ``workloads.py``. With ``--trace 0`` the last
stdout line is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones, from the traced passes. Lines before it
report the machine and library versions, failures by error class and the
workload-specific figures. A fuller record (and, traced, every span) goes to
``.perfbench_run/`` in the checkout. The result's ``attempted`` and
``failed`` count each scene of the corpus once (failed: a RoomLayoutError),
so they depend on the seed and the code, not on the number of passes that
fit in ``--seconds``. The exit code is 1, after the result
line, when an output fails a correctness check, and non-zero without a
result line when the package cannot be imported from ``src/``.
"""

import os

# one BLAS thread: the workloads are single-threaded closed loops
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy as np
import scipy

import tracer as tracing
from workloads import ROOT, WORKLOADS, CorrectnessError, PassResult, import_panolayout

SETUP_REPEATS = 5
MIN_TRACED_PAIRS = 2
RUN_DIR = ROOT / ".perfbench_run"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def percentiles(samples: list[float]) -> tuple[float, float]:
    p50, p90 = np.percentile(samples, [50, 90])
    return float(p50), float(p90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_passes(workload, passes: list[PassResult]) -> None:
    """Every pass over one corpus yields the same outputs."""
    for res in passes:
        if res.digest != passes[0].digest:
            raise CorrectnessError(f"{workload.name}: outputs differ between passes")
        if hasattr(workload, "check"):
            workload.check(res)


def measure(workload, seed: int, seconds: float) -> tuple[list[PassResult], float]:
    """Passes over one corpus until ``seconds`` of them have run.

    The corpus is set up again after every pass, and at the end up to
    SETUP_REPEATS times, so the median set-up time samples the whole run
    rather than its first moments. Returns the passes and that median.
    """
    setup_times = []

    def setup():
        t0 = perf_counter()
        corpus = workload.setup(seed)
        setup_times.append(perf_counter() - t0)
        return corpus

    corpus = setup()
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(workload.run_pass(corpus))
        setup()
    while len(setup_times) < SETUP_REPEATS:
        setup()
    return passes, statistics.median(setup_times)


def measure_traced(workload, seed: int, seconds: float):
    """Alternate untraced and traced passes; the corpus is built traced once."""
    tr = tracing.Tracer()
    with tr:
        corpus = workload.setup(seed)
    plain, traced, bounds = [], [], []
    while len(traced) < MIN_TRACED_PAIRS or sum(p.wall_s for p in plain + traced) < seconds:
        plain.append(workload.run_pass(corpus))
        lo = len(tr.spans)
        with tr:
            traced.append(workload.run_pass(corpus, tr))
        bounds.append((lo, len(tr.spans)))
    left = tracing.still_wrapped()
    if left:
        raise CorrectnessError(f"tracer left wrappers in place: {left}")
    return plain, traced, bounds, tr.spans


def e2e_metrics(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)
    p50, p90 = percentiles([t for p in passes for t in p.postprocess_ms])
    return {
        "setup_s": setup_s,
        "scenes_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "postprocess_ms.p50": p50,
        "postprocess_ms.p90": p90,
        "ok_share": (attempted - failed) / attempted,
        "exact_corner_share": sum(p.exact for p in passes) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def workload_report(workload, passes: list[PassResult]) -> dict:
    """The workload-specific figures, each with its unit and sample count."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)
    rep = {
        "passes": len(passes),
        "fail_share": {"value": failed / attempted, "unit": "failed/attempted", "n": attempted},
    }
    post = [t for p in passes for t in p.postprocess_ms]
    rep["postprocess_ms.p50"], rep["postprocess_ms.p90"] = (
        {"value": v, "unit": "ms", "n": len(post)} for v in percentiles(post)
    )
    evals = [t for p in passes for t in p.evaluate_ms]
    if evals:
        rep["evaluate_ms.p50"], rep["evaluate_ms.p90"] = (
            {"value": v, "unit": "ms", "n": len(evals)} for v in percentiles(evals)
        )
    ious = [v for p in passes for v in p.iou2d]
    if ious:
        rep["iou2d_mean"] = {"value": float(np.mean(ious)), "unit": "iou", "n": len(ious)}
    for stage in passes[0].stage_s:
        vals = [p.stage_s[stage] for p in passes]
        rep[f"cli_{stage}_s"] = {"value": statistics.median(vals), "unit": "s", "n": len(vals)}
    return rep


def failure_counts(passes: list[PassResult]) -> dict:
    """Attempts and failures by error class over the corpus's distinct scenes.

    Every pass over a corpus gives the same outputs (``check_passes``), so
    one pass holds them all; counting every pass would weight the corpus by
    how many passes the measuring time allowed.
    """
    return {
        "attempted": passes[0].attempted,
        "by_class": dict(sorted(passes[0].failures.items())),
    }


def layer_metrics(plain, traced, bounds, spans) -> dict[str, float]:
    counts = [tracing.pass_counts(spans, lo, hi) for lo, hi in bounds]
    for c in counts[1:]:
        if c != counts[0]:
            diff = {k: (counts[0][k], c[k]) for k in c if c[k] != counts[0][k]}
            raise CorrectnessError(f"exact counts differ between traced passes: {diff}")
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            raise CorrectnessError("traced outputs differ from untraced outputs")
    untraced_s = statistics.median(p.wall_s for p in plain)
    overhead = statistics.median(p.wall_s for p in traced) - untraced_s
    return {
        **tracing.span_times(spans),
        **counts[0],
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    pl = import_panolayout()
    env = environment(args)
    print("perfbench env " + json.dumps(env), flush=True)
    workload = WORKLOADS[args.workload](pl)
    record = {"env": env}
    correct = True
    passes: list[PassResult] = []
    reported: list[PassResult] = []  # untraced passes, for the workload report
    metrics: dict[str, float] = {}
    try:
        if args.trace:
            plain, traced, bounds, spans = measure_traced(workload, args.seed, args.seconds)
            passes, reported = plain + traced, plain
            check_passes(workload, passes)
            metrics = layer_metrics(plain, traced, bounds, spans)
            RUN_DIR.mkdir(exist_ok=True)
            spans_file = f"{args.workload}-seed{args.seed}-trace1-spans.jsonl"
            record["spans"] = spans_file
            with open(RUN_DIR / spans_file, "w") as f:
                f.write(json.dumps(["name", "start", "end", "parent", "scene", "size", "error"]) + "\n")
                for span in spans:
                    f.write(json.dumps(span) + "\n")
        else:
            passes, setup_s = measure(workload, args.seed, args.seconds)
            reported = passes
            check_passes(workload, passes)
            metrics = e2e_metrics(passes, setup_s)
    except CorrectnessError as e:
        print(f"perfbench CORRECTNESS FAILURE: {e}", file=sys.stderr)
        correct = False

    attempted, failed = 0, 0
    if reported:
        record["failures"] = failure_counts(passes)
        attempted = record["failures"]["attempted"]
        failed = sum(record["failures"]["by_class"].values())
        record["report"] = workload_report(workload, reported)
        print("perfbench failures " + json.dumps(record["failures"]))
        print("perfbench report " + json.dumps(record["report"]))
    for name, value in metrics.items():
        print(f"perfbench metric {name} {value!r} {UNITS[name]}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }
    record["result"] = result
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
