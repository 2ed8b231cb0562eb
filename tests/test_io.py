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
    CsvFormatError,
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

    def test_table_round_trip(self, tmp_path):
        g = np.linspace(0, 1, 17)
        v = np.sin(g)
        write_table_csv(g, v, tmp_path / "t.csv")
        g2, v2 = read_table_csv(tmp_path / "t.csv")
        assert_allclose(g2, g, rtol=0, atol=0)
        assert_allclose(v2, v, rtol=0, atol=0)


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
