"""Release gate: the end-to-end guarantees this package must hold.

Each test checks one gate criterion and prints a single PASS/FAIL line
straight to the terminal (bypassing capture) so a full run reads as a
checklist. Assertions carry the first few failure details.
"""

import math
import time

import numpy as np
import pytest

from panolayout import (
    MODES,
    BoundarySignal,
    FIXTURE_FAMILIES,
    ImageGrid,
    LossWeights,
    ParseError,
    col_to_lon,
    corner_error,
    cyclic_column_distance,
    detect_3d,
    emit_signal_file,
    evaluate_pair,
    iou_2d,
    iou_3d,
    junction_f,
    lat_to_row,
    lon_to_col,
    make_fixture,
    parse_signal_file,
    perturb_signal,
    pixel_error,
    plane_f,
    postprocess,
    render_signal,
    row_to_lat,
    total_loss,
    total_loss_grads,
    truth_layout,
    weight_schedule,
    wireframe_f,
)
from panolayout import SyntheticRoom
from panolayout.geometry import floor_distance, floor_lat_of_distance
from panolayout.loss import bce_mean, l2_mean

GRID = ImageGrid()
DIAG = math.sqrt(GRID.width**2 + GRID.height**2)
SEEDS_PER_FAMILY = 20


@pytest.fixture
def gate(capsys):
    def check(criterion: str, failures: list):
        ok = not failures
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
        assert ok, f"{criterion}: " + "; ".join(str(f) for f in failures[:5])

    return check


@pytest.fixture(scope="module")
def round_trip_corpus():
    """Every fixture family through the clean pipeline, with wall time."""
    records = []
    start = time.perf_counter()
    for family in FIXTURE_FAMILIES:
        for seed in range(SEEDS_PER_FAMILY):
            room = make_fixture(family, seed)
            signal, truth = render_signal(room)
            pred = postprocess(signal)
            records.append((family, seed, signal, truth, pred))
    elapsed = time.perf_counter() - start
    return records, elapsed


def columns_of(layout):
    return [c.column for c in layout.corners]


def worst_aligned_column_error(pred_cols, gt_cols, width):
    """Best cyclic alignment of two equally sized sorted column lists."""
    n = len(gt_cols)
    best = math.inf
    for k in range(n):
        worst = max(
            cyclic_column_distance(pred_cols[(i + k) % n], gt_cols[i], width)
            for i in range(n)
        )
        best = min(best, worst)
    return best


def pair_columns(layout):
    return [layout.corners[i].column for i, _ in layout.occlusion_pairs()]


class TestGate:
    def test_oracle_round_trip_corpus(self, gate, round_trip_corpus):
        records, elapsed = round_trip_corpus
        failures = []
        for family, seed, signal, truth, pred in records:
            tag = f"{family}/{seed}"
            if len(pred.corners) != len(truth.corners):
                failures.append(
                    f"{tag}: {len(pred.corners)} corners vs {len(truth.corners)}"
                )
                continue
            col_err = worst_aligned_column_error(
                columns_of(pred), columns_of(truth), GRID.width
            )
            if col_err > 2.0:
                failures.append(f"{tag}: column error {col_err:.2f}")
            i2 = iou_2d(pred, truth)
            i3 = iou_3d(pred, truth)
            if i2 <= 0.99:
                failures.append(f"{tag}: 2d iou {i2:.4f}")
            if i3 <= 0.99:
                failures.append(f"{tag}: 3d iou {i3:.4f}")
        if elapsed >= 30.0:
            failures.append(f"corpus took {elapsed:.1f} s")
        gate("oracle round-trip: exact corners, columns within 2, IoU > 0.99, < 30 s", failures)

    def test_occlusion_pair_fidelity(self, gate, round_trip_corpus):
        records, _ = round_trip_corpus
        failures = []
        for family, seed, signal, truth, pred in records:
            tag = f"{family}/{seed}"
            true_cols = pair_columns(truth)
            pred_cols = pair_columns(pred)
            if family in ("l_room", "t_room"):
                if not true_cols:
                    failures.append(f"{tag}: oracle produced no hidden corners")
                for col in true_cols:
                    near = [
                        p for p in pred_cols
                        if cyclic_column_distance(p, col, GRID.width) <= 2.0
                    ]
                    if len(near) != 1:
                        failures.append(
                            f"{tag}: hidden corner at {col:.1f} matched {len(near)} pairs"
                        )
                if len(pred_cols) != len(true_cols):
                    failures.append(
                        f"{tag}: {len(pred_cols)} pairs vs {len(true_cols)} true"
                    )
            elif pred_cols:
                failures.append(f"{tag}: false pair on convex room at {pred_cols[0]:.1f}")
        gate("occlusion: one pair per hidden corner within 2 columns, none on convex rooms", failures)

    def test_ensemble_not_worse_than_single_modes(self, gate):
        noise_sigma = 0.002
        scores = {mode: [] for mode in MODES}
        for family in FIXTURE_FAMILIES:
            for seed in range(5):
                signal, truth = render_signal(make_fixture(family, seed))
                noisy = perturb_signal(signal, noise_sigma, seed=seed)
                for mode in MODES:
                    pred = postprocess(noisy, mode=mode)
                    scores[mode].append(junction_f(pred, truth))
        means = {mode: float(np.mean(vals)) for mode, vals in scores.items()}
        floor = max(means["2d_only"], means["3d_only"]) - 0.01
        failures = []
        if means["ensemble"] < floor:
            failures.append(f"ensemble {means['ensemble']:.4f} < floor {floor:.4f}")
        gate(
            "ensemble junction F within 0.01 of the best single candidate source "
            f"(ens {means['ensemble']:.4f}, 2d {means['2d_only']:.4f}, 3d {means['3d_only']:.4f})",
            failures,
        )

    def test_metric_hand_examples(self, gate, raster):
        failures = []

        def expect(label, got, want, tol):
            if not (abs(got - want) <= tol):
                failures.append(f"{label}: got {got!r}, want {want!r} +/- {tol}")

        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        shifted = square + np.array([0.5, 0.0])
        big = 2.0 * square
        l_shape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)

        expect("iou2d identical", iou_2d(square, square), 1.0, 0.0)
        expect("iou2d half shift", iou_2d(square, shifted), 1 / 3, 1e-12)
        expect("iou2d L in square", iou_2d(big, l_shape), 0.75, 1e-12)
        for a, b in ((square, shifted), (big, l_shape)):
            drift = abs(iou_2d(a, b) - raster(a, b, resolution=4096))
            expect("iou2d exact vs raster(4096)", drift, 0.0, 0.001)

        expect(
            "iou3d nested heights",
            iou_3d(square, square, height_a=3.2, height_b=1.6), 0.5, 1e-12,
        )
        expect(
            "iou3d shifted prisms",
            iou_3d(square, shifted, height_a=2.0, height_b=2.0), 1 / 3, 1e-12,
        )

        five_px = corner_error(
            np.array([[100.0, 200.0]]), np.array([[103.0, 204.0]]), GRID
        )
        expect("corner error 5 px", five_px, 5.0 / DIAG, 1e-15)
        expect("corner error decimal", five_px, 0.004368, 1e-6)
        expect(
            "corner error unmatched penalty",
            corner_error(
                np.array([[100.0, 200.0], [500.0, 300.0]]),
                np.array([[100.0, 200.0]]),
                GRID,
            ),
            0.05, 1e-12,
        )

        expect(
            "junction F 7 px",
            junction_f(np.array([[100.0, 200.0]]), np.array([[100.0, 207.0]]), GRID),
            2 / 3, 1e-12,
        )

        base = BoundarySignal(
            np.zeros(GRID.width),
            np.full(GRID.width, math.pi / 4),
            np.full(GRID.width, -math.pi / 4),
        )
        rows_f = lat_to_row(base.y_f, GRID)
        shifted_sig = BoundarySignal(base.y_p, base.y_c, row_to_lat(rows_f + 7.0, GRID))
        expect(
            "wireframe F below threshold",
            wireframe_f(base, shifted_sig, GRID, thresholds=(5.0,), include_verticals=False),
            0.5, 1e-12,
        )
        expect(
            "wireframe F above threshold",
            wireframe_f(base, shifted_sig, GRID, thresholds=(10.0,), include_verticals=False),
            1.0, 0.0,
        )

        cam = np.array([2.0, 2.2])
        poly4 = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float)
        poly5 = np.array([[0, 0], [2.8, 0], [4, 0], [4, 4], [0, 4]], float)
        expect(
            "plane F split wall",
            plane_f(
                truth_layout(SyntheticRoom(poly4, 3.2, cam), GRID),
                truth_layout(SyntheticRoom(poly5, 3.2, cam), GRID),
            ),
            12 / 13, 1e-12,
        )

        a = np.zeros((GRID.height, GRID.width), dtype=np.int8)
        b = a.copy()
        b[0] = 1
        expect("pixel error one row", pixel_error(a, b), 1.0 / GRID.height, 0.0)
        expect("pixel error complement", pixel_error(a, a + 1), 1.0, 0.0)

        gate("metric hand examples at stated tolerances", failures)

    def test_loss_reference_values_and_gradients(self, gate):
        failures = []

        def expect(label, got, want, tol):
            if not (abs(got - want) <= tol):
                failures.append(f"{label}: got {got!r}, want {want!r} +/- {tol}")

        w = 64
        pred = (np.full(w, 0.5), np.full(w, 0.5), np.full(w, -0.5))
        truth = (np.ones(w), np.full(w, 0.4), np.full(w, -0.7))
        expect("bce coin flip", bce_mean(pred[0], truth[0]), math.log(2.0), 1e-12)
        expect("l2 ceiling", l2_mean(pred[1], truth[1]), 0.01, 1e-12)
        expect("l2 floor", l2_mean(pred[2], truth[2]), 0.04, 1e-12)
        corner_heavy = total_loss(pred, truth, LossWeights(3.0, 1.0))
        expect("corner-heavy total", corner_heavy.total, 3 * math.log(2.0) + 0.05, 1e-6)
        boundary_heavy = total_loss(pred, truth, LossWeights(1.0, 3.0))
        expect("boundary-heavy total", boundary_heavy.total, math.log(2.0) + 0.15, 1e-6)

        rng = np.random.default_rng(7)
        n = 32
        p = (rng.uniform(0.05, 0.95, n), rng.uniform(0.2, 1.2, n), rng.uniform(-1.2, -0.2, n))
        t = (rng.uniform(0.05, 0.95, n), rng.uniform(0.2, 1.2, n), rng.uniform(-1.2, -0.2, n))
        weights = LossWeights(3.0, 1.0)
        grads = total_loss_grads(p, t, weights)
        h = 1e-6
        for which, grad in enumerate(grads):
            for i in range(n):
                hi = [arr.copy() for arr in p]
                lo = [arr.copy() for arr in p]
                hi[which][i] += h
                lo[which][i] -= h
                fd = (
                    total_loss(hi, t, weights).total - total_loss(lo, t, weights).total
                ) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
                if rel > 1e-5:
                    failures.append(f"grad[{which}][{i}]: analytic {grad[i]:.6g} vs fd {fd:.6g}")

        for epoch in (0, 100, 249):
            if weight_schedule(epoch) != LossWeights(3.0, 1.0, 3e-4):
                failures.append(f"schedule({epoch}) != (3, 1, 3e-4)")
        for epoch in (250, 400, 499):
            if weight_schedule(epoch) != LossWeights(1.0, 3.0, 1e-4):
                failures.append(f"schedule({epoch}) != (1, 3, 1e-4)")

        gate("loss reference values at 1e-6, gradients at 1e-5, weight schedule exact", failures)

    def test_geometry_and_detection_invariants(self, gate):
        failures = []

        cols = np.arange(GRID.width)
        back_cols = lon_to_col(col_to_lon(cols, GRID), GRID)
        if np.max(np.abs(back_cols - cols)) > 1e-9:
            failures.append("column/longitude round trip drifts")
        rows = np.arange(GRID.height)
        back_rows = lat_to_row(row_to_lat(rows, GRID), GRID)
        if np.max(np.abs(back_rows - rows)) > 1e-9:
            failures.append("row/latitude round trip drifts")
        dists = np.geomspace(0.2, 50.0, 64)
        back = floor_distance(floor_lat_of_distance(dists, 1.6), 1.6)
        if np.max(np.abs(back - dists) / dists) > 1e-9:
            failures.append("distance/latitude round trip drifts")

        signal, truth = render_signal(make_fixture("l_room", 0))
        base_cols = sorted(columns_of(postprocess(signal)))
        base_pairs = len(postprocess(signal).occlusion_pairs())
        rng = np.random.default_rng(2024)
        for s in rng.integers(1, GRID.width, size=1000):
            moved = postprocess(signal.shifted(int(s)))
            if len(moved.corners) != len(base_cols):
                failures.append(f"shift {s}: corner count changed")
                break
            want = sorted((c + int(s)) % GRID.width for c in base_cols)
            err = worst_aligned_column_error(
                sorted(columns_of(moved)), want, GRID.width
            )
            if err > 1e-6:
                failures.append(f"shift {s}: columns moved by {err:.2e}")
                break
            if len(moved.occlusion_pairs()) != base_pairs:
                failures.append(f"shift {s}: pair count changed")
                break

        profile = np.concatenate([np.full(300, 2.0), np.full(424, 3.1), np.full(300, 2.0)])
        small = detect_3d(profile)
        large = detect_3d(profile * 3.7)
        if not len(small):
            failures.append("detect_3d found nothing on a step profile")
        if small["column"].tolist() != large["column"].tolist():
            failures.append("detect_3d columns changed under uniform rescaling")
        elif np.any(np.abs(small["strength"] - large["strength"]) > 1e-12):
            failures.append("detect_3d strengths changed under uniform rescaling")

        gate("round trips at 1e-9, detection equivariant under 1000 shifts, scale-free 3d test", failures)

    def test_noise_robustness_and_parser_fuzz(self, gate):
        failures = []

        ious, errors = [], []
        for k in range(100):
            family = FIXTURE_FAMILIES[k % len(FIXTURE_FAMILIES)]
            signal, truth = render_signal(make_fixture(family, k))
            noisy = perturb_signal(signal, 0.002, seed=k)
            pred = postprocess(noisy)
            ious.append(iou_2d(pred, truth))
            errors.append(corner_error(pred, truth))
        mean_iou = float(np.mean(ious))
        mean_err = float(np.mean(errors))
        if mean_iou <= 0.98:
            failures.append(f"mean 2d iou {mean_iou:.4f}")
        if mean_err >= 0.005:
            failures.append(f"mean corner error {mean_err:.5f}")

        w = 64
        base = BoundarySignal(
            np.where(np.arange(w) == 16, 1.0, 0.0),
            np.full(w, 0.7),
            np.linspace(-0.8, -0.6, w),
        )
        payload = bytearray(emit_signal_file(base).encode())
        rng = np.random.default_rng(99)
        parsed = rejected = 0
        for _ in range(10_000):
            mutated = bytearray(payload)
            mutated[rng.integers(len(mutated))] = rng.integers(256)
            try:
                out = parse_signal_file(bytes(mutated))
            except ParseError:
                rejected += 1
                continue
            except Exception as e:  # noqa: BLE001 - the gate is "no other escape"
                failures.append(f"fuzz escaped with {type(e).__name__}: {e}")
                break
            parsed += 1
            if not isinstance(out, BoundarySignal):
                failures.append(f"fuzz returned {type(out).__name__}")
                break
        if not failures and parsed + rejected != 10_000:
            failures.append("fuzz loop exited early")

        gate(
            f"noise robustness (iou {mean_iou:.4f}, corner err {mean_err:.5f}) "
            f"and 10k-file fuzz ({parsed} parsed / {rejected} rejected)",
            failures,
        )

    def test_runtime_budget(self, gate, round_trip_corpus):
        records, _ = round_trip_corpus
        failures = []

        signal, _ = render_signal(make_fixture("t_room", 3))
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            postprocess(signal)
            best = min(best, time.perf_counter() - t0)
        if best >= 0.050:
            failures.append(f"postprocess took {best * 1e3:.1f} ms")

        start = time.perf_counter()
        for _, _, _, truth, pred in records:
            evaluate_pair(pred, truth)
        evaluate_elapsed = time.perf_counter() - start
        if evaluate_elapsed >= 10.0:
            failures.append(f"120-fixture evaluate took {evaluate_elapsed:.1f} s")

        gate(
            f"runtime: postprocess {best * 1e3:.2f} ms < 50 ms, "
            f"{len(records)}-fixture evaluate {evaluate_elapsed:.1f} s < 10 s",
            failures,
        )
