"""On-disk formats: parsers, emitters, round trips, and mutation fuzzing."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panolayout import (
    FIXTURE_FAMILIES,
    BoundarySignal,
    CornerKind,
    EmitError,
    CameraModel,
    ImageGrid,
    MetricReport,
    ParseError,
    VisibleLayout,
    convert_structured3d,
    emit_corner_txt,
    emit_layout_json,
    emit_ply,
    emit_report,
    emit_signal_file,
    emit_svg_topdown,
    parse_corner_txt,
    parse_layout_json,
    parse_signal_file,
    postprocess,
    render_signal,
    row_to_lat,
)
from panolayout.geometry import LayoutCorner
from panolayout.synth import make_fixture, perturb_signal

GRID = ImageGrid()


def small_signal(w=64):
    y_p = np.zeros(w)
    y_p[w // 4] = 1.0
    y_p[w // 4 + 1] = 0.25
    y_c = np.full(w, 0.7)
    y_c[0] = 1e-5  # exercises exponent notation in the emitted text
    y_f = np.linspace(-0.8, -0.6, w)
    return BoundarySignal(y_p, y_c, y_f)


def fixture_layouts(family="l_room", seed=0):
    signal, truth = render_signal(make_fixture(family, seed))
    return postprocess(signal), truth


def hand_l_truth():
    # one hidden vertex: 4 plain corners plus the near/far pair
    from panolayout import SyntheticRoom, truth_layout

    poly = np.array([[0, 0], [6, 0], [6, 3], [2, 3], [2, 6], [0, 6]], dtype=float)
    return truth_layout(SyntheticRoom(poly, 3.2, np.array([2.8, 1.5])), GRID)


class TestSignalFile:
    def test_round_trip_exact(self):
        sig = small_signal()
        out = parse_signal_file(emit_signal_file(sig))
        assert np.array_equal(out.y_p, sig.y_p)
        assert np.array_equal(out.y_c, sig.y_c)
        assert np.array_equal(out.y_f, sig.y_f)

    def test_fixture_round_trip(self):
        sig, _ = render_signal(make_fixture("square", 0))
        out = parse_signal_file(emit_signal_file(sig).encode())
        assert out.width == 1024
        assert np.array_equal(out.y_f, sig.y_f)

    # sha256 of emit_signal_file for each family at seed 0 and sigma 0.002
    # (perturb_signal seed 0): a faster emitter must write the same bytes
    SIG_SHA256 = {
        "square": "3c27a597c0f016217396f34f4b397475e2987ebb4f5d6e13e69ca7aa51d4479f",
        "rectangle": "f66faf387ae99f62b3d94e18aa88d62c306572d2fff564cb96fb054055b6c30f",
        "pentagon": "34b3cb57d5f75af9bc93de7025c4c8ba3c9a5fc9eadce17aa48da9cbb2d44175",
        "hexagon": "31096241db741dceabd8bf650cc662fbcd406166dbd3ad557a94e12537291856",
        "l_room": "ced2e006cbd6329b0161cf985bdfe90e3d7ae47beb3e85813929bc1c79fceae2",
        "t_room": "a4e0aee60f309b26b6187b04e5105705e6235c08a2adeb06a95585bec1845ba0",
    }

    @pytest.mark.parametrize("family", FIXTURE_FAMILIES)
    def test_emitted_bytes_pinned(self, family):
        sig, _ = render_signal(make_fixture(family, 0))
        noisy = perturb_signal(sig, 0.002, seed=0)
        text = emit_signal_file(noisy)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SIG_SHA256[family]
        out = parse_signal_file(text)
        for name in ("y_p", "y_c", "y_f"):
            assert np.array_equal(getattr(out, name), getattr(noisy, name))

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            parse_signal_file("NOTASIG 4 " + "0 " * 12)

    def test_out_of_range_probability_names_column(self):
        sig = small_signal(4)
        text = emit_signal_file(sig)
        lines = text.splitlines()
        row = lines[2].split()
        row[2] = "1.5"
        lines[2] = " ".join(row)
        with pytest.raises(ParseError, match="column 2"):
            parse_signal_file("\n".join(lines))

    def test_truncated(self):
        text = emit_signal_file(small_signal(8))
        with pytest.raises(ParseError, match="expected 24 values"):
            parse_signal_file(text.rsplit(" ", 1)[0])

    def test_non_numeric_token_names_row_and_column(self):
        text = emit_signal_file(small_signal(4)).splitlines()
        row = text[3].split()
        row[1] = "zz"
        text[3] = " ".join(row)
        with pytest.raises(ParseError, match="y_c column 1"):
            parse_signal_file("\n".join(text))

    def test_width_errors(self):
        with pytest.raises(ParseError, match="width"):
            parse_signal_file("PANOSIG1 four 1 2 3")
        with pytest.raises(ParseError, match="width"):
            parse_signal_file("PANOSIG1 0")
        with pytest.raises(ParseError, match="width"):
            parse_signal_file("PANOSIG1")

    def test_width_without_grid(self):
        with pytest.raises(ParseError, match="signal width 3 "):
            parse_signal_file("PANOSIG1 3 0 0 0 0.5 0.5 0.5 -0.5 -0.5 -0.5")

    def test_empty_and_binary_garbage(self):
        with pytest.raises(ParseError):
            parse_signal_file("")
        with pytest.raises(ParseError, match="UTF-8"):
            parse_signal_file(b"\xff\xfe\x00\x01")


class TestCornerTxt:
    BOX = (
        "100.0 120.0\n100.0 400.0\n"
        "300.5 118.0\n300.5 404.0\n"
        "612.0 122.5\n612.0 398.0\n"
        "900.0 119.0\n900.0 401.0\n"
    )

    def test_box_room_four_corners(self):
        for data in (self.BOX, self.BOX.encode()):
            layout = parse_corner_txt(data)
            assert isinstance(layout, VisibleLayout)
            assert len(layout.corners) == 4
            assert layout.grid == GRID and layout.camera.camera_height == 1.6
            c = layout.corners[1]
            assert (c.column, c.ceil_lat, c.floor_lat, c.kind) == (
                300.5, row_to_lat(118.0, GRID), row_to_lat(404.0, GRID), CornerKind.VISIBLE
            )

    def test_single_pair(self):
        with pytest.raises(ParseError, match=">= 3 corners"):
            parse_corner_txt("512.0 100.0\n512.0 400.0")

    def test_odd_line_count_names_last_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_corner_txt("1.0 100.0\n1.0 400.0\n5.0 90.0")

    def test_pair_x_mismatch(self):
        with pytest.raises(ParseError, match="mismatch"):
            parse_corner_txt("10.0 100.0\n11.0 400.0")

    def test_half_pixel_x_tolerance_folds_to_mean(self):
        layout = parse_corner_txt("10.0 100.0\n10.4 400.0\n" + self.BOX.split("\n", 2)[2])
        assert layout.corners[0].column == pytest.approx(10.2)

    def test_ceiling_below_floor_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_corner_txt("10.0 400.0\n10.0 100.0")

    def test_rows_above_horizon_rejected(self):
        text = self.BOX.replace("300.5 404.0", "300.5 200.0")
        with pytest.raises(ParseError, match="line 3: corner needs floor_lat < 0"):
            parse_corner_txt(text)

    def test_row_out_of_range(self):
        with pytest.raises(ParseError, match="line 1: row"):
            parse_corner_txt(self.BOX.replace("100.0 120.0", "100.0 -1.0"))
        with pytest.raises(ParseError, match="line 7: row"):
            parse_corner_txt(self.BOX.replace("900.0 401.0", "900.0 512.0"))

    def test_column_out_of_range(self):
        with pytest.raises(ParseError, match="column"):
            parse_corner_txt(self.BOX.replace("900.0", "1024.0"))
        with pytest.raises(ParseError, match="column"):
            parse_corner_txt(self.BOX.replace("900.0", "nan"))

    def test_non_ascending_rejected(self):
        text = "500.0 100.0\n500.0 400.0\n200.0 100.0\n200.0 400.0"
        with pytest.raises(ParseError, match="ascending"):
            parse_corner_txt(text)

    def test_shared_column_rejected(self):
        with pytest.raises(ParseError, match="line 5: .* not ascending"):
            parse_corner_txt(self.BOX.replace("612.0", "300.5"))

    def test_non_numeric_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_corner_txt("10.0 100.0\n10.0 4o0.0")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_corner_txt("10.0 100.0 3.0\n10.0 400.0")

    def test_empty(self):
        with pytest.raises(ParseError, match="no corner"):
            parse_corner_txt("\n\n")

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_corner_txt(b"\xff\xfe 1.0")

    def test_blank_lines_skipped(self):
        assert len(parse_corner_txt("\n" + self.BOX.replace("\n", "\n\n")).corners) == 4

    def test_emit_round_trip(self):
        layout = parse_corner_txt(self.BOX)
        again = parse_corner_txt(emit_corner_txt(layout))
        assert again.room_height == pytest.approx(layout.room_height, abs=1e-12)
        for a, b in zip(again.corners, layout.corners, strict=True):
            assert a.column == b.column
            assert a.ceil_lat == pytest.approx(b.ceil_lat, abs=1e-12)
            assert a.floor_lat == pytest.approx(b.floor_lat, abs=1e-12)

    def test_emit_rejects_shared_columns(self):
        _, truth = fixture_layouts("l_room", 0)
        assert truth.occlusion_pairs()
        with pytest.raises(EmitError, match="occlusion"):
            emit_corner_txt(truth)

    def test_fixture_truths_round_trip(self, corpus):
        checked = 0
        for _, _, truth in corpus.values():
            if truth.occlusion_pairs():
                continue
            back = parse_corner_txt(emit_corner_txt(truth), truth.grid, truth.camera)
            assert back.grid == truth.grid and back.camera == truth.camera
            assert back.room_height == pytest.approx(truth.room_height, abs=1e-12)
            for a, b in zip(back.corners, truth.corners, strict=True):
                assert a.column == pytest.approx(b.column, abs=1e-12)
                assert a.ceil_lat == pytest.approx(b.ceil_lat, abs=1e-12)
                assert a.floor_lat == pytest.approx(b.floor_lat, abs=1e-12)
            checked += 1
        assert checked == 80

    def test_room_height_from_corners(self):
        # the implied heights scale with the camera height
        _, truth = fixture_layouts("pentagon", 0)
        text = emit_corner_txt(truth)
        back = parse_corner_txt(text, truth.grid, truth.camera)
        assert back.room_height == pytest.approx(truth.room_height, abs=1e-12)
        tall = parse_corner_txt(text, truth.grid, CameraModel(2 * truth.camera.camera_height))
        assert tall.room_height == pytest.approx(2 * truth.room_height, abs=1e-12)

    def test_grid_sets_the_latitudes(self):
        half = ImageGrid(512)
        layout = parse_corner_txt("50.0 60.0\n50.0 200.0\n150.0 60.0\n150.0 200.0\n"
                                  "350.0 60.0\n350.0 200.0\n", grid=half)
        assert layout.grid == half
        assert layout.corners[0].floor_lat == row_to_lat(200.0, half)


class TestLayoutJson:
    def test_round_trip_identity(self):
        for layout in (*fixture_layouts("l_room", 0), hand_l_truth()):
            back = parse_layout_json(emit_layout_json(layout))
            assert back.grid == layout.grid
            assert back.room_height == layout.room_height
            assert back.camera.camera_height == layout.camera.camera_height
            assert len(back.corners) == len(layout.corners)
            for a, b in zip(back.corners, layout.corners):
                assert (a.column, a.ceil_lat, a.floor_lat, a.kind) == (
                    b.column,
                    b.ceil_lat,
                    b.floor_lat,
                    b.kind,
                )

    def test_bytes_accepted(self):
        _, truth = fixture_layouts("square", 2)
        assert len(parse_layout_json(emit_layout_json(truth).encode()).corners) == 4

    def test_wrong_format_tag(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["format"] = "visible-layout-9"
        with pytest.raises(ParseError, match="format"):
            parse_layout_json(json.dumps(doc))

    def test_invalid_json(self):
        # json.loads raises plain ValueError for an over-long integer and
        # RecursionError for deep nesting
        for text in ("{not json", "1" * 5000, "[" * 100_000):
            with pytest.raises(ParseError, match="invalid json"):
                parse_layout_json(text)

    def test_missing_key(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        del doc["room_height"]
        with pytest.raises(ParseError, match="invalid layout"):
            parse_layout_json(json.dumps(doc))

    def test_bad_corner_kind(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["corners"][0]["kind"] = "imaginary"
        with pytest.raises(ParseError):
            parse_layout_json(json.dumps(doc))

    def test_non_finite_floor_point_rejected(self):
        # floor_lat -5e-324 puts the corner's floor point at infinity
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["corners"][1]["floor_lat"] = -5e-324
        with pytest.raises(ParseError):
            parse_layout_json(json.dumps(doc))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1.0"])
    def test_room_height_not_above_camera_rejected(self, value):
        _, truth = fixture_layouts("square", 2)
        text = emit_layout_json(truth).replace(
            f'"room_height": {truth.room_height!r}', f'"room_height": {value}'
        )
        assert f'"room_height": {value}' in text
        with pytest.raises(ParseError, match="camera_height < room_height"):
            parse_layout_json(text)

    @pytest.mark.parametrize("size", [[1024.9, 512.2], [1024.0, 512.0], ["1024", "512"]])
    def test_non_integer_grid_rejected(self, size):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["grid"] = dict(zip(("width", "height"), size))
        with pytest.raises(ParseError, match="integer"):
            parse_layout_json(json.dumps(doc))

    @pytest.mark.parametrize("height", [500, 1024, 512.0, "512", True, None])
    def test_grid_height_not_half_the_width_rejected(self, height):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["grid"]["height"] = height
        with pytest.raises(ParseError, match="grid height must be the integer width // 2"):
            parse_layout_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [True, "1.5"])
    @pytest.mark.parametrize(
        "key", ["column", "ceil_lat", "floor_lat", "camera_height", "room_height"]
    )
    def test_non_number_rejected(self, key, value):
        # float() would read a boolean or a numeric string as a number
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        corner = doc["corners"][1]
        (corner if key in corner else doc)[key] = value
        with pytest.raises(ParseError, match=f"{key} must be a number"):
            parse_layout_json(json.dumps(doc))

    def test_integer_too_large_for_a_float_rejected(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["room_height"] = 10**400
        with pytest.raises(ParseError, match="too large"):
            parse_layout_json(json.dumps(doc))

    def test_floor_point_past_the_pole_rejected(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["corners"][1]["floor_lat"] = -1.6
        with pytest.raises(ParseError, match="pi/2"):
            parse_layout_json(json.dumps(doc))

    def test_unsorted_corners_rejected(self):
        _, truth = fixture_layouts("square", 2)
        doc = json.loads(emit_layout_json(truth))
        doc["corners"].reverse()
        with pytest.raises(ParseError):
            parse_layout_json(json.dumps(doc))


def parse_ply(data: bytes):
    lines = data.decode("ascii").splitlines()
    assert lines[0] == "ply" and lines[1] == "format ascii 1.0"
    nv = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
    nf = int(next(l for l in lines if l.startswith("element face")).split()[-1])
    body = lines[lines.index("end_header") + 1 :]
    verts = np.array([[float(t) for t in l.split()] for l in body[:nv]])
    faces = [tuple(int(t) for t in l.split()[1:]) for l in body[nv : nv + nf]]
    assert all(len(f) == 3 for f in faces)
    return verts, faces


def edge_use_counts(faces):
    counts = {}
    for tri in faces:
        for k in range(3):
            e = tuple(sorted((tri[k], tri[(k + 1) % 3])))
            counts[e] = counts.get(e, 0) + 1
    return counts


def fan_caps(layout):
    """The PLY's floor and ceiling cap triangles, with the vertex table."""
    verts, faces = parse_ply(emit_ply(layout))
    n = len(layout.corners)
    floor = [f for f in faces if f[0] == 2 * n]
    ceiling = [f for f in faces if f[0] == 2 * n + 1]
    return verts, floor, ceiling


def triangle_signed_area(verts, tri):
    (ax, ay), (bx, by), (cx, cy) = (verts[k, :2] for k in tri)
    return 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


class TestPly:
    def test_square_box_is_watertight(self):
        _, truth = fixture_layouts("square", 0)
        verts, faces = parse_ply(emit_ply(truth))
        assert len(verts) == 2 * 4 + 2  # 2 x corners + the camera's floor and ceiling points
        assert len(faces) == 2 * 4 + 2 * 4  # 2 per wall + one per edge in each cap
        assert set(np.round(verts[:, 2], 9)) == {0.0, round(truth.room_height, 9)}
        assert all(c == 2 for c in edge_use_counts(faces).values())

    def test_occlusion_span_left_open(self):
        truth = hand_l_truth()
        n = len(truth.corners)
        verts, faces = parse_ply(emit_ply(truth))
        assert len(verts) == 2 * n + 2
        assert len(faces) == 2 * len(truth.wall_edges()) + 2 * n
        boundary = [e for e, c in edge_use_counts(faces).items() if c == 1]
        (i, j), = truth.occlusion_pairs()
        # the open hole is the unbuilt occlusion quad: its four edges
        hole = [(i, j), (n + i, n + j), (i, n + i), (j, n + j)]
        assert sorted(boundary) == sorted(tuple(sorted(e)) for e in hole)

    def test_floor_triangulation_covers_polygon(self):
        truth = hand_l_truth()  # a reflex corner and an occlusion edge
        n = len(truth.corners)
        verts, floor, ceiling = fan_caps(truth)
        assert floor == [(2 * n, i, (i + 1) % n) for i in range(n)]
        assert ceiling == [(2 * n + 1, n + (i + 1) % n, n + i) for i in range(n)]
        assert verts[2 * n].tolist() == [0.0, 0.0, 0.0]
        assert verts[2 * n + 1].tolist() == [0.0, 0.0, truth.room_height]
        areas = [triangle_signed_area(verts, t) for t in floor]
        assert min(areas) >= 0.0
        assert sum(areas) == pytest.approx(truth.floor_area(), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 4 * 1024 - 1), min_size=3, max_size=12, unique=True),
        st.data(),
    )
    def test_layouts_around_the_camera_mesh_as_fans(self, quarters, data):
        # visible corners on quarter columns with every cyclic gap below half
        # a turn, at latitudes in the detector's clamp range: floor points
        # from 1.6e-6 m to 1.6e6 m from the camera
        cols = sorted(q / 4 for q in quarters)
        assume(all(b - a < 512 for a, b in zip(cols, cols[1:] + [cols[0] + 1024])))
        lat = st.floats(1e-6, math.pi / 2 - 1e-6)
        corners = [LayoutCorner(c, data.draw(lat), -data.draw(lat)) for c in cols]
        layout = VisibleLayout(corners, CameraModel(), 3.2, GRID)
        verts, floor, ceiling = fan_caps(layout)
        areas = [triangle_signed_area(verts, t) for t in floor]
        assert min(areas) >= 0.0
        assert [-triangle_signed_area(verts, t) for t in ceiling] == areas
        assert sum(areas) == pytest.approx(layout.floor_area(), rel=1e-9)

    def test_fixture_truths_open_only_at_occlusion_quads(self, corpus):
        for family in FIXTURE_FAMILIES:
            for seed in range(3):
                truth = corpus[(family, seed)][2]
                n = len(truth.corners)
                _, faces = parse_ply(emit_ply(truth))
                once = [e for e, c in edge_use_counts(faces).items() if c == 1]
                hole = [
                    tuple(sorted(e))
                    for i, j in truth.occlusion_pairs()
                    for e in ((i, j), (n + i, n + j), (i, n + i), (j, n + j))
                ]
                assert sorted(once) == sorted(hole)
                assert all(c <= 2 for c in edge_use_counts(faces).values())


class TestSvg:
    def test_l_room_edges_and_dashes(self):
        truth = hand_l_truth()
        svg = emit_svg_topdown(truth)
        assert svg.count("<line") == len(truth.corners)
        assert svg.count("stroke-dasharray") == 1
        assert svg.count("<circle") == 1

    def test_overlay_two_groups_two_colors(self):
        pred, truth = fixture_layouts("t_room", 0)
        svg = emit_svg_topdown(pred, truth, labels=("prediction", "truth"))
        assert svg.count("<g ") == 2
        assert "prediction" in svg and "truth" in svg
        assert "#2b6cb0" in svg and "#c53030" in svg

    def test_scale_controls_camera_marker(self):
        _, truth = fixture_layouts("square", 3)
        assert 'r="8.000"' in emit_svg_topdown(truth, scale=100.0)
        assert 'r="4.000"' in emit_svg_topdown(truth, scale=50.0)

    def test_deterministic(self):
        _, truth = fixture_layouts("square", 3)
        assert emit_svg_topdown(truth) == emit_svg_topdown(truth)

    def test_no_layouts_rejected(self):
        with pytest.raises(EmitError):
            emit_svg_topdown()


class TestReport:
    reports = [
        ("scene_a", MetricReport(0.9, 0.8, 0.01, 0.02, 1.0, 0.95, 0.9)),
        ("scene_b", MetricReport(0.7, 0.6, 0.03, 0.04, 0.5, 0.85, 0.7)),
    ]

    def test_csv_round_trips_values(self):
        lines = emit_report(self.reports, fmt="csv").splitlines()
        assert lines[0] == "scene,iou2d,iou3d,corner_error,pixel_error,junction_f,wireframe_f,plane_f"
        assert len(lines) == 4
        row_b = lines[2].split(",")
        assert row_b[0] == "scene_b"
        assert [float(v) for v in row_b[1:]] == self.reports[1][1].as_row()
        mean = [float(v) for v in lines[3].split(",")[1:]]
        assert mean[0] == pytest.approx(0.8, abs=1e-15)
        assert mean[4] == pytest.approx(0.75, abs=1e-15)

    def test_csv_numpy_scalars_write_plain_float_tokens(self):
        # under numpy 2, repr(np.float64(x)) is "np.float64(x)"
        values = [np.float64(v) for v in self.reports[0][1].as_row()]
        reports = [("scene_np", MetricReport(*values)), *self.reports]
        rows = [line.split(",")[1:] for line in emit_report(reports, fmt="csv").splitlines()[1:]]
        parsed = [[float(t) for t in row] for row in rows]  # float() rejects "np.float64(...)"
        assert parsed[0] == values
        assert parsed[1:3] == [rep.as_row() for _, rep in self.reports]

    def test_table_layout(self):
        text = emit_report(self.reports, fmt="table")
        lines = text.splitlines()
        assert lines[0].startswith("scene")
        assert "iou2d" in lines[0] and "plane_f" in lines[0]
        assert set(lines[1]) == {"-"}
        assert lines[-1].startswith("mean")
        assert "0.8000" in lines[-1]
        # columns are separated even for the widest header
        assert "corner_error" in lines[0].split()

    def test_unknown_format(self):
        with pytest.raises(EmitError):
            emit_report(self.reports, fmt="yaml")

    def test_empty_rejected(self):
        with pytest.raises(EmitError):
            emit_report([])


class TestConvertStructured3d:
    def doc(self, pts):
        return json.dumps({"junctions": pts})

    def test_bare_pairs(self):
        pts = [[400.0, 400.0], [400.0, 120.0], [50.0, 110.0], [50.0, 390.0],
               [700.0, 100.0], [700.0, 410.0]]
        txt = convert_structured3d(self.doc(pts))
        layout = parse_corner_txt(txt)
        assert [c.column for c in layout.corners] == [50.0, 400.0, 700.0]
        c = layout.corners[0]
        assert (c.ceil_lat, c.floor_lat) == (row_to_lat(110.0, GRID), row_to_lat(390.0, GRID))

    def test_coordinate_objects(self):
        pts = [{"coordinate": [400.0, 400.0]}, {"coordinate": [400.0, 120.0]},
               {"coordinate": [50.0, 110.0]}, {"coordinate": [50.0, 390.0]},
               {"coordinate": [700.0, 100.0]}, {"coordinate": [700.0, 410.0]}]
        assert len(parse_corner_txt(convert_structured3d(self.doc(pts))).corners) == 3

    def test_corners_not_around_the_camera_rejected(self):
        # 100 -> 700 leaves 600 of 1024 columns without a corner
        pts = [[100.0, 400.0], [100.0, 120.0], [50.0, 110.0], [50.0, 390.0],
               [700.0, 100.0], [700.0, 410.0]]
        txt = convert_structured3d(self.doc(pts))
        with pytest.raises(ParseError, match="half a turn"):
            parse_corner_txt(txt)

    def test_string_junctions_rejected(self):
        doc = json.dumps({"junctions": ["12", "14", "52", "58", "92", "98"]})
        with pytest.raises(ParseError, match="junction is not a finite 2D point: '12'"):
            convert_structured3d(doc)

    def test_boolean_coordinate_rejected(self):
        pts = [[True, 1], [50.0, 110.0], [50.0, 390.0], [400.0, 120.0], [400.0, 400.0],
               [700.0, 100.0], [700.0, 410.0], [1.0, 300.0]]
        with pytest.raises(ParseError, match=r"junction is not a finite 2D point: \[True, 1\]"):
            convert_structured3d(self.doc(pts))
        pts[0] = {"coordinate": [1, False]}
        with pytest.raises(ParseError, match=r"'coordinate': \[1, False\]"):
            convert_structured3d(self.doc(pts))

    def test_integer_and_three_element_coordinates(self):
        pts = [[400, 400], [400, 120], [50, 110], [50, 390], [700, 100], [700, 410]]
        assert convert_structured3d(self.doc(pts)).splitlines()[0] == "50.0 110.0"
        pts[0] = [400, 400, 0]
        with pytest.raises(ParseError, match="2D point"):
            convert_structured3d(self.doc(pts))

    def test_unpaired_columns_rejected(self):
        pts = [[100.0, 400.0], [103.0, 120.0], [50.0, 110.0], [50.0, 390.0],
               [700.0, 100.0], [700.0, 410.0]]
        with pytest.raises(ParseError, match="pair"):
            convert_structured3d(self.doc(pts))

    def test_too_few_or_odd(self):
        with pytest.raises(ParseError, match="junctions"):
            convert_structured3d(self.doc([[1.0, 2.0]] * 4))
        with pytest.raises(ParseError, match="junctions"):
            convert_structured3d(self.doc([[1.0, 2.0]] * 7))

    def test_missing_key_and_bad_json(self):
        with pytest.raises(ParseError):
            convert_structured3d("{}")
        with pytest.raises(ParseError):
            convert_structured3d("{bad")
        with pytest.raises(ParseError, match="2D point"):
            convert_structured3d(self.doc([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]))
        with pytest.raises(ParseError, match="2D point"):
            convert_structured3d(self.doc([{"coordinate": {"x": 1.0}}] * 6))
        for text in ("1" * 5000, "[" * 100_000):
            with pytest.raises(ParseError, match="invalid json"):
                convert_structured3d(text)

    @pytest.mark.parametrize("junctions", ["5", "null", '{"a": 1}', '"abcdef"'])
    def test_junctions_not_a_list(self, junctions):
        with pytest.raises(ParseError, match="'junctions' list"):
            convert_structured3d('{"junctions": %s}' % junctions)

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="UTF-8"):
            convert_structured3d(b'{"junctions": [\xff]}')

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "long_int"])
    def test_non_finite_coordinate(self, bad):
        doc = self.doc([[100.0, 400.0], [100.0, 120.0], [50.0, 110.0], [50.0, 390.0],
                        [700.0, 100.0], [700.0, 410.0]])
        with pytest.raises(ParseError, match="finite 2D point"):
            convert_structured3d(doc.replace("390.0", bad))


class TestMutationFuzz:
    """Single-byte mutations must parse cleanly or raise ParseError: no other
    exception type, and every successful parse satisfies the type invariants
    (the constructors enforce them)."""

    def mutate(self, data: bytes, rng, n: int):
        for _ in range(n):
            b = bytearray(data)
            b[rng.integers(0, len(b))] = rng.integers(0, 256)
            yield bytes(b)

    def test_signal_file_fuzz(self):
        base = emit_signal_file(small_signal()).encode()
        rng = np.random.default_rng(2024)
        parsed = failed = 0
        for blob in self.mutate(base, rng, 800):
            try:
                out = parse_signal_file(blob)
            except ParseError:
                failed += 1
            else:
                assert isinstance(out, BoundarySignal)
                parsed += 1
        assert parsed + failed == 800 and failed > 0

    def test_layout_json_fuzz(self):
        base = emit_layout_json(hand_l_truth()).encode()
        rng = np.random.default_rng(2025)
        for blob in self.mutate(base, rng, 600):
            try:
                out = parse_layout_json(blob)
            except ParseError:
                continue
            assert isinstance(out, VisibleLayout)

    def test_corner_txt_fuzz(self):
        base = emit_corner_txt(parse_corner_txt(TestCornerTxt.BOX)).encode()
        rng = np.random.default_rng(2026)
        for blob in self.mutate(base, rng, 600):
            try:
                out = parse_corner_txt(blob)
            except ParseError:
                continue
            assert isinstance(out, VisibleLayout)

    def test_structured3d_fuzz(self):
        pts = [{"coordinate": [100.0, 400.0]}, [100.0, 120.0], [50.0, 110.0],
               [50.0, 390.0], {"coordinate": [700.0, 100.0]}, [700.0, 410.0]]
        base = json.dumps({"junctions": pts}).encode()
        rng = np.random.default_rng(2027)
        for blob in self.mutate(base, rng, 600):
            try:
                out = convert_structured3d(blob)
            except ParseError:
                continue
            assert isinstance(out, str)
