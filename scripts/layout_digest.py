"""One pass over a fixed corpus: a digest of every pipeline output and a quality table.

For each fixture room, noise level and post-processing mode, records the
layout's corners, room height and occlusion pairs and its evaluate_pair row,
or the class of the error that stopped it, and hashes the records in order.
A change meant to leave every output bit-identical must print the same
digest before and after. The default corpus is 240 rooms (fixture seeds
0-19 and 1000-1019 per family) at four noise levels in three modes: 2880
runs. Noise seeds are the fixture seeds. With --expect, a digest
other than the given one is reported with both digests and exit status 1.

From the same runs it prints one row per (noise level, mode): ok runs and
failures by error class; mean and worst 2D IoU, mean corner error and mean
junction F of the ok runs; and the shares of runs whose corner count
(exact_n) and occlusion pair count (pair_acc) equal the truth's, where a
failed run counts as a miss. Under each noise level, one
line gives the ensemble's junction F minus the best single source's.

Usage:
    python3 scripts/layout_digest.py
    python3 scripts/layout_digest.py --expect <hex digest of the parent commit>
    # noise sweep: the ensemble rows are the README table
    python3 scripts/layout_digest.py --seeds 0 1 2 3 4 5 6 7 8 9 --sigmas 0 0.001 0.002 0.005 0.01
    # candidate-source ablation
    python3 scripts/layout_digest.py --seeds 0 1 2 3 4 5 6 7 8 9 --sigmas 0.002
"""

import argparse
import hashlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from panolayout import (
    FIXTURE_FAMILIES,
    MODES,
    MetricReport,
    RoomLayoutError,
    evaluate_pair,
    make_fixture,
    perturb_signal,
    postprocess,
    render_signal,
)

SEEDS = [*range(20), *range(1000, 1020)]
SIGMAS = [0.0, 0.002, 0.005, 0.01]


@dataclass
class Cell:
    """The runs of one (noise level, mode): outcomes ("ok" or error class)
    and, per ok run, (2D IoU, corner error, junction F, corner count exact,
    pair count exact)."""

    outcomes: Counter = field(default_factory=Counter)
    runs: list = field(default_factory=list)


def _record(signal, truth, mode):
    try:
        pred = postprocess(signal, mode=mode)
        row = [float(v) for v in evaluate_pair(pred, truth).as_row()]
    except RoomLayoutError as exc:
        return type(exc).__name__, None
    corners = [(float(c.column), float(c.ceil_lat), float(c.floor_lat), c.kind.value)
               for c in pred.corners]
    return "ok", (corners, float(pred.room_height), pred.occlusion_pairs(), row)


def digest(families=FIXTURE_FAMILIES, seeds=SEEDS, sigmas=SIGMAS, modes=MODES):
    """(sha256 hex digest of all runs, {(sigma, mode): Cell} in run order)."""
    h = hashlib.sha256()
    table = defaultdict(Cell)
    for family in families:
        for seed in seeds:
            signal, truth = render_signal(make_fixture(family, seed))
            n_corners, n_pairs = len(truth.corners), len(truth.occlusion_pairs())
            for sigma in sigmas:
                noisy = perturb_signal(signal, sigma, seed=seed) if sigma > 0 else signal
                for mode in modes:
                    outcome, result = _record(noisy, truth, mode)
                    h.update(repr((family, seed, sigma, mode, outcome, result)).encode())
                    cell = table[sigma, mode]
                    cell.outcomes[outcome] += 1
                    if result is not None:
                        corners, _, pairs, row = result
                        m = MetricReport(*row)
                        cell.runs.append((m.iou2d, m.corner_error, m.junction_f,
                                          len(corners) == n_corners, len(pairs) == n_pairs))
    return h.hexdigest(), dict(table)


def summary(cell):
    """(iou_mean, iou_min, corner_err, junction_f, exact_n, pair_acc) of a Cell."""
    n = sum(cell.outcomes.values())
    if not cell.runs:
        return (float("nan"),) * 4 + (0.0, 0.0)
    iou, err, jf, exact, pairs = zip(*cell.runs)
    return (float(np.mean(iou)), float(np.min(iou)), float(np.mean(err)), float(np.mean(jf)),
            sum(exact) / n, sum(pairs) / n)


def print_table(table):
    header = (f"{'sigma':>8} {'mode':<9} {'ok':>5} {'iou_mean':>9} {'iou_min':>9} "
              f"{'corner_err':>11} {'exact_n':>8} {'junction_f':>10} {'pair_acc':>9}  failures")
    print(header)
    print("-" * len(header))
    for sigma in dict.fromkeys(s for s, _ in table):
        jf = {}
        for (s, mode), cell in table.items():
            if s != sigma:
                continue
            iou_mean, iou_min, err, jf[mode], exact, pacc = summary(cell)
            failures = ", ".join(f"{name} {k}" for name, k in sorted(cell.outcomes.items())
                                 if name != "ok") or "-"
            print(f"{sigma:>8.4f} {mode:<9} {cell.outcomes['ok']:>5} {iou_mean:>9.4f} "
                  f"{iou_min:>9.4f} {err:>11.5f} {exact:>8.3f} {jf[mode]:>10.4f} {pacc:>9.3f}"
                  f"  {failures}")
        best_single = max(v for mode, v in jf.items() if mode != "ensemble")
        print(f"# sigma {sigma:.4f}: ensemble minus best single source: "
              f"{jf['ensemble'] - best_single:+.4f} junction F")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", nargs="*", default=list(FIXTURE_FAMILIES))
    ap.add_argument("--seeds", nargs="*", type=int, default=SEEDS, help="fixture seeds")
    ap.add_argument("--sigmas", nargs="*", type=float, default=SIGMAS)
    ap.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is this one")
    args = ap.parse_args(argv)

    hexdigest, table = digest(args.families, args.seeds, args.sigmas)
    print_table(table)
    outcomes = sum((cell.outcomes for cell in table.values()), Counter())
    print(f"runs {sum(outcomes.values())}: " + ", ".join(
        f"{name} {n}" for name, n in sorted(outcomes.items())))
    print(hexdigest)
    if args.expect is not None and hexdigest != args.expect:
        print(f"digest mismatch: expected {args.expect}, got {hexdigest}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
