"""Alternating perfbench runs of two checkouts: each side's median [quartiles] and the wins.

Runs ``perfbench/run.py`` of each checkout in turn, one pair per seed, and
alternates which side runs first: the parent first in pairs 1, 3, 5, ...,
the change first in the others. Runs are sequential, so the two sides never
share the machine with each other. After the pairs it prints, for every
end-to-end metric of the change's BENCHMARK.json, each side's median and
quartiles over the pairs, two verdicts and the number of pairs the change
wins by that metric's direction; ties count for neither side. The verdicts:

  gain   "met" if the change would carry a claimed gain on that metric: it
         wins at least 9 of every 10 pairs, and its median is better than
         the parent's by more than the parent's interquartile range.
  bound  "exceeded" if the change's median is worse than the parent's by
         more than the metric's relative ``bound`` in BENCHMARK.json.

A run that fails or whose outputs fail perfbench's correctness check stops
the comparison with exit status 1.

Usage:
    python3 scripts/perf_pairs.py PARENT CHANGE --workload noisy_postprocess \\
        --seeds 601 602 603 604 605 606 607 608 609 610 --seconds 20
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced perfbench run in ``checkout``: its end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{checkout}: perfbench exited {proc.returncode} without a result\n{proc.stderr}"
        ) from None
    if proc.returncode or not result["correct"]:
        raise RuntimeError(f"{checkout}: perfbench correctness failure\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def _sign(better: str) -> int:
    return 1 if better == "higher" else -1


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better; a tie is no win."""
    return sum(_sign(better) * (c - p) > 0 for p, c in zip(parent, change))


def gain_met(parent: list[float], change: list[float], better: str) -> bool:
    """A claimed gain holds: the change wins at least 9 of every 10 pairs, and
    its median beats the parent's by more than the parent's interquartile range."""
    q1, med, q3 = np.percentile(parent, [25, 50, 75])
    beyond = _sign(better) * (np.median(change) - med) > q3 - q1
    return wins(parent, change, better) >= 0.9 * len(parent) and bool(beyond)


def bound_exceeded(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """The change's median is worse than the parent's by more than ``bound``,
    a share of the parent's median."""
    med_p, med_c = np.median(parent), np.median(change)
    if better == "higher":
        return bool(med_c < med_p * (1 - bound))
    return bool(med_c > med_p * (1 + bound))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True,
                    help="one pair per seed, in order, repeated when --pairs is larger")
    ap.add_argument("--seconds", type=float, required=True, help="perfbench --seconds of every run")
    ap.add_argument("--pairs", type=int, help="number of pairs (default: one per seed)")
    args = ap.parse_args(argv)
    pairs = args.pairs or len(args.seeds)
    if pairs < 1:
        ap.error("--pairs must be >= 1")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        try:
            for side in order:
                runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        except RuntimeError as e:
            print(f"pair {i + 1}: {e}")
            return 1
        last = {side: runs[side][-1] for side in runs}
        values = ", ".join(
            f"{name} {last['parent'][name]:.4g} -> {last['change'][name]:.4g}"
            for name in (m["name"] for m in metrics)
        )
        print(f"pair {i + 1}/{pairs} seed {seed}, {order[0]} first: {values}", flush=True)

    print(f"{args.workload}: {pairs} alternating pairs of {args.seconds:g} s runs")
    print(f"{'metric':<20} {'unit':<6} {'parent median [quartiles]':<32} "
          f"{'change median [quartiles]':<32} {'gain':<5} {'bound':<8} change wins")
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        gain = "met" if gain_met(parent, change, better) else "unmet"
        bound = "exceeded" if bound_exceeded(parent, change, better, m["bound"]) else "within"
        print(f"{name:<20} {m['unit']:<6} {summary(parent):<32} {summary(change):<32} "
              f"{gain:<5} {bound:<8} {wins(parent, change, better)}/{pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
