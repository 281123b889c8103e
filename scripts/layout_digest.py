"""One digest of everything the pipeline outputs on a fixed corpus.

For each fixture room, noise level and post-processing mode, records the
layout's corners, room height and occlusion pairs and its evaluate_pair rows
in both regimes, or the class of the error that stopped it, and hashes the
records in order. A change meant to leave every output bit-identical must
print the same digest before and after. The default corpus is 240 rooms
(fixture seeds 0-19 and 1000-1019 per family) at four noise levels in three
modes: 2880 runs. Noise seeds are the fixture seeds. With --expect, a digest
other than the given one is reported with both digests and exit status 1.

Usage:
    python3 scripts/layout_digest.py
    python3 scripts/layout_digest.py --families square l_room --seeds 0 1
    python3 scripts/layout_digest.py --expect <hex digest of the parent commit>
"""

import argparse
import hashlib
import sys
from collections import Counter

from panolayout import (
    FIXTURE_FAMILIES,
    MODES,
    RoomLayoutError,
    evaluate_pair,
    make_fixture,
    perturb_signal,
    postprocess,
    render_signal,
)
from panolayout.metrics import REGIMES

SEEDS = [*range(20), *range(1000, 1020)]
SIGMAS = [0.0, 0.002, 0.005, 0.01]


def _record(signal, truth, mode):
    try:
        pred = postprocess(signal, mode=mode)
        rows = [[float(v) for v in evaluate_pair(pred, truth, regime=r).as_row()] for r in REGIMES]
    except RoomLayoutError as exc:
        return type(exc).__name__, None
    corners = [(float(c.column), float(c.ceil_lat), float(c.floor_lat), c.kind.value)
               for c in pred.corners]
    return "ok", (corners, float(pred.room_height), pred.occlusion_pairs(), rows)


def digest(families=FIXTURE_FAMILIES, seeds=SEEDS, sigmas=SIGMAS, modes=MODES):
    """(sha256 hex digest of all runs, Counter of outcomes: "ok" or error class)."""
    h = hashlib.sha256()
    outcomes = Counter()
    for family in families:
        for seed in seeds:
            signal, truth = render_signal(make_fixture(family, seed))
            for sigma in sigmas:
                noisy = perturb_signal(signal, sigma, seed=seed) if sigma > 0 else signal
                for mode in modes:
                    outcome, result = _record(noisy, truth, mode)
                    outcomes[outcome] += 1
                    h.update(repr((family, seed, sigma, mode, outcome, result)).encode())
    return h.hexdigest(), outcomes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", nargs="*", default=list(FIXTURE_FAMILIES))
    ap.add_argument("--seeds", nargs="*", type=int, default=SEEDS, help="fixture seeds")
    ap.add_argument("--sigmas", nargs="*", type=float, default=SIGMAS)
    ap.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is this one")
    args = ap.parse_args(argv)

    hexdigest, outcomes = digest(args.families, args.seeds, args.sigmas)
    print(f"runs {sum(outcomes.values())}: " + ", ".join(
        f"{name} {n}" for name, n in sorted(outcomes.items())))
    print(hexdigest)
    if args.expect is not None and hexdigest != args.expect:
        print(f"digest mismatch: expected {args.expect}, got {hexdigest}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
