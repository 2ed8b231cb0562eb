import json
import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curverecon import cli, euclidean
from curverecon.curvatures import parse_spec
from curverecon.curveio import (
    _CHUNK_ROWS,
    CsvFormatError,
    _svg_coords,
    bound_report_json,
    closure_report_json,
    emit_svg,
    read_curve_csv,
    read_table_csv,
    write_curve_csv,
    write_table_csv,
)
from curverecon.geometry import BoundReport, SampledCurve


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        curve = SampledCurve(
            [0.0, 0.1234567890123456, 2.0 / 3.0],
            [[0.0, 0.0], [1.0 / 7.0, -2.5e-17], [math.pi, math.e]],
        )
        path = tmp_path / "c.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert_allclose(back.params, curve.params, rtol=0, atol=0)
        assert_allclose(back.points, curve.points, rtol=0, atol=0)

    def test_accepts_t_header(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("t,x,y\n0,0,0\n1,1,0\n", encoding="utf-8")
        curve = read_curve_csv(p)
        assert curve.span == 1.0

    def test_missing_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("x,y\n0,0\n1,1\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="missing column"):
            read_curve_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("s,x,y\n0,0,0\n1,oops,0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match=":3:"):
            read_curve_csv(p)

    @pytest.mark.parametrize("text, message", [
        ("", "{path}:1: empty file"),
        ("s,x,y\n0,0,0\n1,1\n", "{path}:3: expected 3 fields, got 2"),
        ("s,x,y\n0,0,0\n", "{path}: need at least 2 data rows"),
        ("s,x,y\n0,0,0\n\n", "{path}: need at least 2 data rows"),
        ("s,x,y\n0,0,0\n\n1,1,0,0\n", "{path}:4: expected 3 fields, got 4"),
    ], ids=["empty-file", "short-row", "one-data-row", "blank-line-is-not-a-row", "line-count-keeps-blank-lines"])
    def test_malformed_file_refused(self, tmp_path, text, message):
        p = tmp_path / "c.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError) as exc:
            read_curve_csv(p)
        assert str(exc.value) == message.format(path=p)

    def test_blank_line_is_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("s,x,y\n0,0,0\n\n1,1,0\n", encoding="utf-8")
        curve = read_curve_csv(p)
        assert curve.params.tolist() == [0.0, 1.0]
        assert curve.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_non_monotone_param_reports_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("s,x,y\n0,0,0\n2,1,0\n1,2,0\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="increasing"):
            read_curve_csv(p)

    @pytest.mark.parametrize("reader", ["curve-csv", "table-spec"])
    def test_non_monotone_line_counts_blank_lines(self, tmp_path, capsys, reader):
        # the offending row comes after a blank line 3, so it sits on line 5
        p = tmp_path / "blank.csv"
        message = f"{p}:5: parameter column not strictly increasing"
        if reader == "curve-csv":
            p.write_text("s,x,y\n0,0,0\n\n2,1,0\n1,2,0\n", encoding="utf-8")
            with pytest.raises(CsvFormatError) as exc:
                read_curve_csv(p)
            assert str(exc.value) == message
        else:
            p.write_text("t,value\n0,0\n\n2,1\n1,2\n", encoding="utf-8")
            assert cli.main(["reconstruct", "euclid", "--curvature", f"table:{p}", "--domain", "0:1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("reader", ["curve-csv", "table-csv", "table-spec"])
    @pytest.mark.parametrize("rows, message", [
        (['"0', '",0', "1,oops"], "{path}:4: cannot parse number 'oops'"),
        (['"0', '",0', "2,1", "1,1"], "{path}:5: parameter column not strictly increasing"),
    ], ids=["bad-number", "non-monotone"])
    def test_line_number_counts_the_lines_of_a_quoted_field(self, tmp_path, capsys, reader, rows, message):
        # the quoted first field spans lines 2 and 3, so each later row sits one line below its record number
        p = tmp_path / "quoted.csv"
        if reader == "curve-csv":
            header, rows = "s,x,y", [r if r == '"0' else r + ",0" for r in rows]
        else:
            header = "t,value"
        p.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        message = message.format(path=p)
        if reader == "table-spec":
            assert cli.main(["reconstruct", "euclid", "--curvature", f"table:{p}", "--domain", "0:1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        else:
            with pytest.raises(CsvFormatError) as exc:
                (read_curve_csv if reader == "curve-csv" else read_table_csv)(p)
            assert str(exc.value) == message

    @pytest.mark.parametrize("reader", ["curve-csv", "table-csv", "table-spec"])
    @pytest.mark.parametrize("rows, column, value", [
        (["0,1", "inf,2"], 0, "inf"),
        (["0,1", "nan,2", "1,3"], 0, "nan"),
        (["0,1", "1,nan", "2,1"], 1, "nan"),
        (["0,1", "1,1e999", "2,1"], 1, "inf"),
    ], ids=["inf-parameter", "nan-parameter", "nan-value", "overflowing-value"])
    def test_cell_that_is_not_finite_is_refused(self, tmp_path, capsys, reader, rows, column, value):
        # each bad cell sits on line 3; before the readers refused them, a NaN passed the monotonicity check
        p = tmp_path / "nonfinite.csv"
        header = "s,x,y" if reader == "curve-csv" else "t,value"
        if reader == "curve-csv":
            rows = [r + ",0" for r in rows]
        p.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        message = f"{p}:3: column {header.split(',')[column]!r} reads as {value}, not a finite number"
        if reader == "table-spec":
            assert cli.main(["reconstruct", "euclid", "--curvature", f"table:{p}", "--domain", "0:1"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        else:
            with pytest.raises(CsvFormatError) as exc:
                (read_curve_csv if reader == "curve-csv" else read_table_csv)(p)
            assert str(exc.value) == message

    def test_bad_cell_deep_in_a_table_names_its_line(self, tmp_path):
        # rows parse a whole row at a time; the cell-by-cell pass that names the cell runs only for a failed row
        lines = [f"{i},{i * 0.5}" for i in range(1500)]
        lines[1200] = "1200,oops"
        p = tmp_path / "deep.csv"
        p.write_text("t,value\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError) as exc:
            read_table_csv(p)
        assert str(exc.value) == f"{p}:1202: cannot parse number 'oops'"

    @pytest.mark.parametrize("grid, values, column, value", [
        ([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], "value", "nan"),
        ([0.0, math.inf], [1.0, 2.0], "t", "inf"),
    ], ids=["nan-value", "inf-parameter"])
    def test_writer_refuses_a_cell_the_readers_refuse(self, tmp_path, grid, values, column, value):
        # refused before the file is opened, so no partial file is left
        p = tmp_path / "w.csv"
        with pytest.raises(CsvFormatError) as exc:
            write_table_csv(np.array(grid), np.array(values), p)
        assert str(exc.value) == f"{p}:3: column {column!r} reads as {value}, not a finite number"
        assert not p.exists()

    def test_table_round_trip(self, tmp_path):
        g = np.linspace(0, 1, 17)
        v = np.sin(g)
        write_table_csv(g, v, tmp_path / "t.csv")
        g2, v2 = read_table_csv(tmp_path / "t.csv")
        assert_allclose(g2, g, rtol=0, atol=0)
        assert_allclose(v2, v, rtol=0, atol=0)


def random_doubles(rng, n):
    """``n`` doubles from uniform random bit patterns: every exponent, subnormals, infinities and NaN."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-5]


class TestChunkedWriters:
    """The writers format a chunk of rows with one ``%``; the bytes equal ``format`` cell by cell across a chunk
    boundary."""

    n = _CHUNK_ROWS + 1

    @staticmethod
    def reference_csv(header, *columns):
        rows = (",".join(format(float(x), ".17g") for x in row) + "\n" for row in zip(*columns))
        return (header + "\n" + "".join(rows)).encode()

    def test_table_csv(self, tmp_path):
        rng = np.random.default_rng(25)
        finite = random_doubles(rng, 3 * self.n)
        finite = finite[np.isfinite(finite)]
        grid, values = finite[:self.n].copy(), finite[self.n:2 * self.n].copy()
        grid[:len(EDGES)] = values[-len(EDGES):] = EDGES
        grid[_CHUNK_ROWS - 1:_CHUNK_ROWS + 1] = [-0.0, 5e-324]
        write_table_csv(grid, values, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == self.reference_csv("t,value", grid, values)

    def test_curve_csv(self, tmp_path):
        rng = np.random.default_rng(26)
        finite = random_doubles(rng, 4 * self.n)
        finite = finite[np.isfinite(finite)]
        params = np.sort(rng.choice(np.unique(finite), self.n, replace=False))
        points = finite[:2 * self.n].reshape(-1, 2).copy()
        points[:len(EDGES), 0] = points[-len(EDGES):, 1] = EDGES
        points[_CHUNK_ROWS - 1:_CHUNK_ROWS + 1] = [[-0.0, 5e-324], [1.7976931348623157e308, -0.0]]
        write_curve_csv(SampledCurve(params, points), tmp_path / "c.csv")
        assert (tmp_path / "c.csv").read_bytes() == self.reference_csv("s,x,y", params, points[:, 0], points[:, 1])

    def test_svg_points(self, tmp_path):
        # a [0, 560] x [0, 400] bounding box fills the 560 x 400 plot area at scale 1 from the corner (40, 40);
        # multiples of 1/16 put binary ties on the third decimal
        rng = np.random.default_rng(27)
        pts = np.column_stack([rng.uniform(0, 560, self.n), rng.uniform(0, 400, self.n)])
        pts[:1000] = np.round(pts[:1000] * 16) / 16
        pts[0], pts[-1] = (0.0, 0.0), (560.0, 400.0)
        emit_svg(((SampledCurve(np.arange(self.n, dtype=float), pts), ""),), tmp_path / "p.svg")
        line = ElementTree.parse(tmp_path / "p.svg").getroot().find("{http://www.w3.org/2000/svg}polyline")
        xs, ys = 40.0 + (pts[:, 0] - 0.0) * 1.0, 40.0 + (400.0 - pts[:, 1]) * 1.0
        assert line.get("points") == " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))

    def test_svg_coords_round_to_negative_zero(self):
        # scale 1 from the origin leaves x as it is and negates y, so small values of either sign reach %.3f
        rng = np.random.default_rng(28)
        pts = rng.uniform(-0.002, 0.002, (self.n, 2))
        pts[:4] = [[-0.0, 0.0], [-0.0004, 0.0004], [-0.0005, 0.0005], [1e-300, -1e-300]]
        coords = _svg_coords(pts, 1.0, 0.0, 0.0, 0.0, 0.0)
        xs, ys = 0.0 + (pts[:, 0] - 0.0) * 1.0, 0.0 + (0.0 - pts[:, 1]) * 1.0
        assert coords == " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys))
        assert "-0.000," in coords and ",-0.000" in coords


class TestSvg:
    def circle(self, n=257):
        t = np.linspace(0, 2 * np.pi, n)
        return SampledCurve(t, np.stack([np.cos(t), np.sin(t)], axis=1))

    def test_unit_circle_bbox_is_square(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg(((self.circle(), ""),), path)
        text = path.read_text()
        coords = re.findall(r"points=\"([^\"]+)\"", text)[0]
        xy = np.array([list(map(float, pair.split(","))) for pair in coords.split()])
        w = xy[:, 0].max() - xy[:, 0].min()
        h = xy[:, 1].max() - xy[:, 1].min()
        assert abs(w - h) <= 1.0  # equal aspect within a pixel

    def test_two_labeled_curves_have_paths_and_legend(self, tmp_path):
        t = np.linspace(0, 1, 33)
        a = SampledCurve(t, np.stack([t, t], axis=1))
        b = SampledCurve(t, np.stack([t, t**2], axis=1))
        path = tmp_path / "two.svg"
        emit_svg(((a, "first"), (b, "second a&b <c>")), path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert '<g id="legend"' in text
        assert "first" in text and "second" in text
        labels = [t.text for t in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert labels == ["first", "second a&b <c>"]

    def test_deterministic_bytes(self, tmp_path):
        spec = ((self.circle(), "circle"),)
        emit_svg(spec, tmp_path / "a.svg")
        emit_svg(spec, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_zero_area_rejected(self, tmp_path):
        pt = SampledCurve([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="zero-area"):
            emit_svg(((pt, ""),), tmp_path / "z.svg")

    def test_nothing_to_plot(self, tmp_path):
        with pytest.raises(ValueError) as exc:
            emit_svg((), tmp_path / "e.svg")
        assert str(exc.value) == "nothing to plot"
        assert not (tmp_path / "e.svg").exists()

    def test_vertical_segment_is_padded(self, tmp_path):
        # dx = 0: the x range becomes 0.1 dy wide around the segment, which is drawn centred at full height
        seg = SampledCurve([0.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])
        emit_svg(((seg, ""),), tmp_path / "v.svg")
        line = ElementTree.parse(tmp_path / "v.svg").getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert line.get("points") == "320.000,440.000 320.000,40.000"

    def test_flat_segment_is_padded_not_rejected(self, tmp_path):
        seg = SampledCurve([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        emit_svg(((seg, ""),), tmp_path / "seg.svg")
        assert (tmp_path / "seg.svg").exists()


class TestReportJson:
    def test_bound_report_schema(self):
        rep = euclidean.bound_check(parse_spec("sinusoid:1,0,0"), parse_spec("kn:40"), 2 * math.pi)
        data = json.loads(bound_report_json(rep))
        assert list(data) == [
            "mode", "norm", "delta", "L", "c_hat", "bound", "measured", "satisfied",
        ]
        assert data["mode"] == "euclidean" and data["satisfied"] is True

    def test_infinite_bound_is_null(self):
        rep = BoundReport(
            mode="affine", norm="linf", delta=1.0, length=5.0, c_hat=301.0,
            bound=math.inf, measured=0.01, solver_floor=1e-12,
        )
        text = bound_report_json(rep)
        assert '"bound": null' in text
        assert "Infinity" not in text

    def test_closure_report_schema(self):
        rep = euclidean.classify_closure(parse_spec("kn:10"), period=2 * math.pi)
        data = json.loads(closure_report_json(rep))
        assert data == {
            "ratio": "1/10",
            "closed": True,
            "turning": 1,
            "symmetry": 10,
            "minimal_period": pytest.approx(20 * math.pi),
        }
