import contextlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curverecon import affine, cli, euclidean
from curverecon.curvatures import TableCurvature
from curverecon.curveio import read_curve_csv, write_table_csv
from curverecon.geometry import BoundReport, grid_distance, hausdorff_distance

SRC = Path(__file__).resolve().parents[1] / "src"
# numpy warnings raised as errors: pytest records warnings apart from capsys, so a leak would pass unseen
no_runtime_warning = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(cwd, *argv):
    """(exit code, stdout, stderr) of one request in a fresh interpreter with Python's default warning
    filters, as a user's shell runs the CLI."""
    child = "import sys; sys.path.insert(0, sys.argv[1]); from curverecon import cli; sys.exit(cli.main(sys.argv[2:]))"
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", child, str(SRC), *argv],
                          cwd=cwd, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON: the ``Infinity``/``NaN`` tokens are refused."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestReconstruct:
    def test_euclid_threefold_curve(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run_cli(
            capsys, "reconstruct", "euclid",
            "--curvature", "sinusoid:1,1,1/3",
            "--domain", "0:18.8495559", "--samples", "8192",
            "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["mode"] == "euclid"
        assert summary["endpoint_gap"] < 1e-5  # three periods close the curve
        curve = read_curve_csv(out)
        assert len(curve) == 8193

    def test_affine_ellipse_arc(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, stdout, _ = run_cli(
            capsys, "reconstruct", "affine",
            "--curvature", "const:2", "--domain", "0:4", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["tail_bound"] < 1e-9
        from curverecon import affine

        oracle = affine.conic(2.0, 4.0, summary["samples"])
        assert grid_distance(read_curve_csv(out), oracle) < 1e-8

    def test_series_matches_picard_across_commands(self, tmp_path, capsys):
        a, b = tmp_path / "s.csv", tmp_path / "p.csv"
        code1, _, _ = run_cli(capsys, "reconstruct", "series",
                              "--curvature", "monomial:1,1", "--domain", "0:3", "--out", str(a))
        code2, _, _ = run_cli(capsys, "reconstruct", "affine",
                              "--curvature", "monomial:1,1", "--domain", "0:3", "--out", str(b))
        assert code1 == 0 and code2 == 0
        assert hausdorff_distance(read_curve_csv(a), read_curve_csv(b)) <= 1e-6

    def test_s_column_is_arc_length_from_the_domain_start(self, tmp_path, capsys):
        columns = []
        for mode in ("euclid", "affine"):
            out = tmp_path / f"{mode}.csv"
            code, _, _ = run_cli(capsys, "reconstruct", mode, "--curvature", "const:1",
                                 "--domain", "1:3", "--samples", "1025", "--out", str(out))
            assert code == 0
            columns.append([row.split(",")[0] for row in out.read_text().splitlines()[1:]])
        assert columns[0] == columns[1]
        assert float(columns[0][0]) == 0.0 and float(columns[0][-1]) == 2.0

    def test_one_ulp_domain_exits_0(self, capsys):
        for mode in ("euclid", "affine"):
            code, stdout, _ = run_cli(capsys, "reconstruct", mode, "--curvature", "const:1",
                                      "--domain", "1:1.0000000000000002")
            assert code == 0
            assert json.loads(stdout)["length"] == 2.220446049250313e-16

    @pytest.mark.parametrize("argv", [
        ("reconstruct", "euclid", "--curvature", "const:1"),
        ("compare", "euclid", "const:1", "const:1.01"),
    ], ids=["reconstruct", "compare"])
    @pytest.mark.parametrize("domain", ["-1:1", "-.5:1"])
    def test_spaced_negative_domain_matches_equals_form(self, capsys, argv, domain):
        spaced = run_cli(capsys, *argv, "--domain", domain)
        joined = run_cli(capsys, *argv, f"--domain={domain}")
        assert spaced == joined
        assert run_cli(capsys, *argv, "--dom", domain) == joined
        assert spaced[0] == 0 and json.loads(spaced[1])

    def test_spaced_non_number_domain_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reconstruct", "euclid", "--curvature", "const:1", "--domain", "-x:1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert any("error:" in line for line in captured.err.splitlines())

    @pytest.mark.parametrize("flags", [
        ("euclid", "--tol", "1e-3"),
        ("euclid", "--iterations", "5"),
        ("series", "--iterations", "5"),
    ])
    def test_flag_the_mode_does_not_read_exits_2(self, capsys, flags):
        mode, flag, value = flags
        code, stdout, err = run_cli(capsys, "reconstruct", mode, "--curvature", "monomial:1,1",
                                    "--domain", "0:1", flag, value)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and flag in err and mode in err

    def test_iterations_with_tol_exits_2(self, capsys):
        # a tol run solves for the fixed point, so a sweep count next to it would certify sweeps that never ran
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:2",
                                    "--iterations", "3", "--tol", "1e-10")
        assert code == 2
        assert stdout == ""
        assert err == "error: --iterations and --tol exclude each other\n"

    def test_samples_with_tol_exits_2_in_affine_mode(self, capsys):
        # --samples fixes the grid that --tol would size, so one of the two would be dropped without a word
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "mun:2/5", "--domain", "0:2",
                                    "--samples", "1025", "--tol", "1e-10")
        assert (code, stdout, err) == (2, "", "error: --samples and --tol exclude each other in affine mode\n")
        # series mode reads both: the sample count and the term tolerance
        code, stdout, err = run_cli(capsys, "reconstruct", "series", "--curvature", "monomial:1,1", "--domain", "0:1",
                                    "--samples", "1025", "--tol", "1e-12")
        assert (code, err) == (0, "")
        assert strict_json(stdout)["samples"] == 1025

    def test_svg_output_is_deterministic(self, tmp_path, capsys):
        args = ("reconstruct", "euclid", "--curvature", "kn:10", "--domain", "0:6.283185307")
        run_cli(capsys, *args, "--svg", str(tmp_path / "a.svg"))
        run_cli(capsys, *args, "--svg", str(tmp_path / "b.svg"))
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "euclid",
                               "--curvature", "nope:1", "--domain", "0:1")
        assert code == 2
        assert "unknown kind" in err
        # integers past Python's int-from-string digit limit are parse errors too
        long_int = "1" * 5000
        for spec in (f"const:{long_int}", f"const:{long_int}/3", f"monomial:1,{long_int}"):
            code, stdout, err = run_cli(capsys, "reconstruct", "euclid", "--curvature", spec, "--domain", "0:1")
            assert code == 2
            assert stdout == ""
            assert err.startswith("error:") and "too long" in err

    def test_solver_failure_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "affine",
                               "--curvature", "const:2500", "--domain", "0:2", "--iterations", "20000")
        assert code == 3
        assert "solver error" in err

    def test_past_the_sweep_caps_exits_0_on_the_conic(self, tmp_path, capsys):
        # a sweep count with tail bound 1e-10 would exceed the sweep cap here; the direct solve runs none
        out = tmp_path / "c.csv"
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "const:2500",
                                    "--domain", "0:2", "--out", str(out))
        assert (code, err) == (0, "")
        summary = strict_json(stdout)
        assert (summary["iterations"], summary["tail_bound"]) == (0, 0.0)
        assert grid_distance(read_curve_csv(out), affine.conic(2500.0, 2.0, summary["samples"])) <= 1e-9

    def test_work_cap_refuses_before_any_sweep(self, capsys, monkeypatch):
        # 2,000 sweeps over the 42,733 nodes that 32 L sqrt(c) / pi gives
        sweeps = []
        simpson = affine.cumulative_simpson
        monkeypatch.setattr(affine, "cumulative_simpson", lambda *a: sweeps.append(1) or simpson(*a))
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "const:1.1",
                                    "--domain", "0:4000", "--iterations", "2000")
        assert code == 3
        assert stdout == ""
        assert err.startswith("solver error:") and "work cap" in err
        assert sweeps == []

    def test_bad_domain_exits_2(self, capsys):
        for domain in ("5:1", "0:inf", "-inf:0", "0:nan", "0:5e-324"):
            code, stdout, err = run_cli(capsys, "reconstruct", "euclid",
                                        "--curvature", "const:1", f"--domain={domain}")
            assert code == 2
            assert stdout == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        ("affine", "--iterations", "-1"),
        ("affine", "--tol", "0"),
        ("affine", "--tol=-1e-10"),
        ("affine", "--tol", "inf"),
        ("affine", "--tol", "nan"),
        ("series", "--tol", "0"),
        ("series", "--tol", "nan"),
    ])
    def test_bad_solver_flag_exits_2(self, capsys, flags):
        mode, *rest = flags
        code, stdout, err = run_cli(capsys, "reconstruct", mode, "--curvature", "monomial:1,1",
                                    "--domain", "0:1", *rest)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and rest[0].split("=")[0] in err

    def test_series_exponent_beyond_int64_has_no_traceback(self, capsys):
        big_k = "monomial:1,99999999999999999999999"
        code, stdout, _ = run_cli(capsys, "reconstruct", "series", "--curvature", big_k, "--domain", "0:1")
        assert code == 0
        assert json.loads(stdout)["terms"] == 1
        code, stdout, err = run_cli(capsys, "reconstruct", "series", "--curvature", big_k, "--domain", "0:2")
        assert code == 3
        assert stdout == ""
        assert err.startswith("solver error:")

    def test_small_sample_count_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "reconstruct", "euclid",
                             "--curvature", "const:1", "--domain", "0:1", "--samples", "8")
        assert code == 2

    @no_runtime_warning
    def test_overflowing_curvature_exits_3(self, capsys):
        # monomial:1,400 overflows to inf past t = 5.89 on [0, 10]: the probe refuses it before any grid is built
        code, stdout, err = run_cli(capsys, "reconstruct", "euclid",
                                    "--curvature", "monomial:1,400", "--domain", "0:10")
        assert code == 3
        assert stdout == ""
        assert err == "solver error: curvature inf at parameter 5.8984375 past the domain start is not finite\n"

    @pytest.mark.parametrize("argv", [
        ("euclid", "--curvature", "const:1", "--domain", "0:1", "--samples", "2049"),
        ("affine", "--curvature", "const:0", "--domain", "0:1", "--samples", "300003", "--iterations", "1"),
        ("series", "--curvature", "monomial:1,1", "--domain", "0:1", "--samples", "300003"),
        ("affine", "--curvature", "const:1", "--domain", "0:1", "--samples", "17", "--iterations", "20000"),
        ("affine", "--curvature", "const:100", "--domain", "0:10", "--samples", "300001", "--iterations", "200"),
    ], ids=["euclid-samples", "affine-samples", "series-samples", "affine-iterations", "affine-work"])
    def test_sample_cap_exits_3(self, capsys, monkeypatch, argv):
        from curverecon import euclidean

        monkeypatch.setattr(euclidean, "SAMPLE_CAP", 1025)
        code, _, err = run_cli(capsys, "reconstruct", *argv)
        assert code == 3
        assert err.startswith("solver error:") and "cap" in err

    def test_subnormal_tol_runs_on_the_capped_grid(self, capsys):
        # the h^4 rule's step underflows to 0, so the grid takes the cap
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "const:1",
                                    "--domain", "0:1", "--tol", "5e-324")
        assert (code, err) == (0, "")
        summary = strict_json(stdout)
        assert (summary["samples"], summary["iterations"], summary["tail_bound"]) == (300001, 0, 0.0)

    def test_fixed_sweep_grid_is_capped_and_json_is_strict(self, capsys):
        code, stdout, _ = run_cli(capsys, "reconstruct", "affine", "--curvature", "const:1e7",
                                  "--domain", "0:10", "--iterations", "1")
        assert code == 0
        summary = strict_json(stdout)
        assert summary["tail_bound"] is None
        assert summary["samples"] == 300001

    @no_runtime_warning
    def test_overflowing_fixed_sweep_grid_exits_3(self, capsys):
        # 32 L sqrt(c) / pi is inf here; the grid takes the cap and the curve overflows
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "const:1",
                                    "--domain", "0:1e308", "--iterations", "1")
        assert code == 3
        assert stdout == ""
        assert err.startswith("solver error:")

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_table_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "absent.csv" if kind == "missing" else tmp_path
        for argv in (
            ("reconstruct", "euclid", "--curvature", f"table:{path}", "--domain", "0:1"),
            ("classify", "--curvature", f"table:{path},periodic", "--period", "1"),
            ("compare", "affine", "const:1", f"table:{path}", "--domain", "0:1"),
        ):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 2
            assert stdout == ""
            assert err.startswith("error:") and "cannot read" in err

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "curve.out"
        code, stdout, err = run_cli(capsys, "reconstruct", "euclid", "--curvature", "const:1",
                                    "--domain", "0:1", flag, str(path))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "cannot write" in err

    def test_non_finite_spec_number_exits_2(self, capsys):
        code, stdout, err = run_cli(capsys, "reconstruct", "euclid",
                                    "--curvature", "const:1e400", "--domain", "0:1")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("curvature, domain, flags, code, err", [
        ("monomial:1,1", "1:2", (), 2, "error: series mode integrates from 0"),
        ("monomial:1,0", "0:30", (), 3, "solver error: series round-off"),
        ("monomial:1,0", "0:100", (), 3, "solver error: series round-off"),
        ("monomial:1,0", "0:30", ("--tol", "1e-3"), 0, ""),
        ("monomial:1,0", "0:3", (), 0, ""),
    ], ids=["domain-start", "round-off-0:30", "round-off-0:100", "loose-tol-0:30", "accepted-0:3"])
    def test_series_refusals(self, capsys, curvature, domain, flags, code, err):
        got, stdout, stderr = run_cli(capsys, "reconstruct", "series", "--curvature", curvature,
                                      "--domain", domain, *flags)
        assert got == code
        assert stderr.startswith(err)
        assert (stdout == "") == (code != 0)

    def test_series_needs_monomial(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "series",
                               "--curvature", "const:1", "--domain", "0:1")
        assert code == 2
        assert "monomial" in err


@pytest.fixture
def bad_tables(monkeypatch):
    """Specs ``table:nan`` and ``table:inf`` (``,periodic`` allowed): 4097 rows on [0, 100], 1.0 everywhere but
    row 10, which holds the named value.

    The CSV reader refuses a cell that is not finite (exit 2), so these tables reach the solvers as a library
    caller builds one, through ``TableCurvature``; every other spec goes through the CLI's own parser.
    """
    t = np.linspace(0.0, 100.0, 4097)
    parse = cli.parse_spec_cli

    def parse_with_bad_tables(text):
        name, _, flag = text.removeprefix("table:").partition(",")
        if not (text.startswith("table:") and name in ("nan", "inf")):
            return parse(text)
        values = np.ones_like(t)
        values[10] = float(name)
        return TableCurvature(t, values, periodic=flag == "periodic")

    monkeypatch.setattr(cli, "parse_spec_cli", parse_with_bad_tables)


class TestNonFiniteCurvature:
    # on [0, 100] the probe's nodes are the table's rows; on [0, 12] the first node past row 9 is 0.2227
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("argv, at", [
        (("reconstruct", "affine", "--curvature", "<table>", "--domain", "0:100", "--iterations", "300"), 0.244140625),
        (("reconstruct", "euclid", "--curvature", "<table>", "--domain", "0:100"), 0.244140625),
        (("reconstruct", "euclid", "--curvature", "<table>", "--domain", "0:100", "--samples", "4097"), 0.244140625),
        (("compare", "affine", "<table>", "const:1", "--domain", "0:12"), 0.22265625),
        (("compare", "euclid", "const:1", "<table>", "--domain", "0:12"), 0.22265625),
    ], ids=["reconstruct-affine", "reconstruct-euclid", "reconstruct-euclid-samples", "compare-affine",
            "compare-euclid"])
    @pytest.mark.usefixtures("bad_tables")
    def test_refused_before_any_sweep(self, capsys, monkeypatch, argv, at, bad):
        calls = []
        for module in (affine, euclidean):
            def counted(*args, simpson=module.cumulative_simpson):
                calls.append(1)
                return simpson(*args)

            monkeypatch.setattr(module, "cumulative_simpson", counted)
        code, stdout, err = run_cli(capsys, *(f"table:{bad}" if a == "<table>" else a for a in argv))
        assert (code, stdout) == (3, "")
        assert err == f"solver error: curvature {bad} at parameter {at!r} past the domain start is not finite\n"
        assert calls == []

    # the table's trapezoid and const's closed form give the ratio itself; the other two have no hook at
    # their period, so the probe refuses their first non-finite sample before anything is summed
    @pytest.mark.parametrize("curvature, period, err", [
        ("table:nan,periodic", "100", "turning ratio nan over period 100.0 is not finite"),
        ("const:1e308", "100", "turning ratio inf over period 100.0 is not finite"),
        ("monomial:1,400", "10", "curvature inf at parameter 5.8984375 past the domain start is not finite"),
        ("table:nan,periodic", "50", "curvature nan at parameter 0.23193359375 past the domain start is not finite"),
    ], ids=["table-ratio", "const-ratio", "monomial-probe", "table-probe"])
    @no_runtime_warning
    @pytest.mark.usefixtures("bad_tables")
    def test_classify_refused(self, capsys, curvature, period, err):
        code, stdout, got = run_cli(capsys, "classify", "--curvature", curvature, "--period", period)
        assert (code, stdout, got) == (3, "", f"solver error: {err}\n")

    def test_stderr_holds_only_the_refusal(self, tmp_path):
        assert run_fresh(tmp_path, "classify", "--curvature", "monomial:1,400", "--period", "10") == (
            3, b"", b"solver error: curvature inf at parameter 5.8984375 past the domain start is not finite\n")

    def test_quadrature_overflow_prints_only_the_refusal(self, tmp_path):
        # finite samples whose sum overflows
        assert run_fresh(tmp_path, "classify", "--curvature", "sinusoid:1,0,1e308", "--period", "1") == (
            3, b"", b"solver error: turning ratio inf over period 1.0 is not finite\n")


class TestSolverRefusals:
    @pytest.mark.parametrize("argv, err", [
        (("reconstruct", "affine", "--curvature", "const:2500", "--domain", "0:2", "--iterations", "10001"),
         "10001 sweeps exceed the cap of 10000"),
        (("reconstruct", "series", "--curvature", "monomial:1,0", "--domain", "0:30"),
         "series round-off 2^-53 x 10^11.9 exceeds the term tolerance 1.0e-14 at alpha=30.0"),
        (("reconstruct", "series", "--curvature", "monomial:1,0", "--domain", "0:500", "--tol", "1e-3"),
         "term tolerance 1.0e-03 unreachable within 100000 terms at alpha=500.0"),
        (("reconstruct", "euclid", "--curvature", "<table>", "--domain", "0:3"),
         "value outside table range [0.0, 2.0] and table is not periodic"),
        # h = 1 with |mu| up to 9 (50): the sweeps diverge on this grid
        (("reconstruct", "affine", "--curvature", "sinusoid:9,0,0", "--domain", "0:16", "--samples", "17"),
         "h^2 max|mu| = 8.99991 on 17 nodes is at least 1.8541, where Picard sweeps diverge; use more samples"),
        (("reconstruct", "affine", "--curvature", "sinusoid:50,0,0", "--domain", "0:16", "--samples", "17"),
         "h^2 max|mu| = 49.9995 on 17 nodes is at least 1.8541, where Picard sweeps diverge; use more samples"),
        # L / h overflows in the tol grid rule, which then takes the capped grid, whose step is 3.3e302
        (("reconstruct", "affine", "--curvature", "const:1", "--domain", "0:1e308"),
         "h^2 max|mu| = inf on 300001 nodes is at least 1.8541, where Picard sweeps diverge; use more samples"),
        # the shared grid of a compare report takes the cap, where h^2 2e9 = 111.111
        (("compare", "affine", "const:1e9", "const:2e9", "--domain", "0:100"),
         "h^2 max|mu| = 111.111 on 300001 nodes is at least 1.8541, where Picard sweeps diverge; use more samples"),
    ], ids=["picard-iteration-cap", "series-round-off", "series-term-cap", "table-past-its-range",
            "picard-coarse-grid", "picard-coarse-grid-overflow", "picard-grid-past-double-range",
            "compare-affine-coarse-grid"])
    def test_exit_3_names_the_cause(self, tmp_path, capsys, argv, err):
        write_table_csv(np.linspace(0.0, 2.0, 41), np.ones(41), tmp_path / "tab.csv")
        table = f"table:{tmp_path / 'tab.csv'}"
        code, stdout, got = run_cli(capsys, *(table if a == "<table>" else a for a in argv))
        assert (code, stdout, got) == (3, "", f"solver error: {err}\n")

    def test_coarse_grid_below_the_limit_exits_0(self, capsys):
        # h^2 max|mu| = 1.85398, under the limit 1.85410
        code, stdout, err = run_cli(capsys, "reconstruct", "affine", "--curvature", "sinusoid:1.854,0,0",
                                    "--domain", "0:16", "--samples", "17")
        assert (code, err) == (0, "")
        assert math.isfinite(strict_json(stdout)["endpoint_gap"])


class TestClassify:
    def test_bump_family_ten(self, capsys):
        code, stdout, _ = run_cli(capsys, "classify", "--curvature", "kn:10",
                                  "--period", "6.283185307")
        assert code == 0
        data = json.loads(stdout)
        assert data["ratio"] == "1/10" and data["closed"] is True
        assert data["symmetry"] == 10 and data["turning"] == 1

    def test_unclosed_sinusoid_still_exits_0(self, capsys):
        code, stdout, _ = run_cli(capsys, "classify", "--curvature", "sinusoid:1,1,1",
                                  "--period", "6.283185307")
        assert code == 0
        assert json.loads(stdout)["closed"] is False

    def test_zero_constant(self, capsys):
        code, stdout, _ = run_cli(capsys, "classify", "--curvature", "const:0", "--period", "1")
        assert code == 0
        data = json.loads(stdout)
        assert data["ratio"] == "0/1" and data["closed"] is False

    @pytest.mark.parametrize("period", ["0", "-1", "nan", "inf"])
    def test_bad_period_exits_2(self, capsys, period):
        code, stdout, err = run_cli(capsys, "classify", "--curvature", "kn:10", f"--period={period}")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "--period" in err


class TestCompare:
    def test_identical_specs(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "euclid", "const:1", "const:1",
                                  "--domain", "0:6.283185307")
        assert code == 0
        data = json.loads(stdout)
        assert data["delta"] == 0.0 and data["satisfied"] is True

    def test_sin_alias_against_bump_family(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "euclid", "sin", "kn:40",
                                  "--domain", "0:6.283185307")
        assert code == 0
        data = json.loads(stdout)
        assert data["delta"] <= 0.15708
        assert data["satisfied"] is True

    def test_affine_constants(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "affine", "const:2", "const:2.05",
                                  "--domain", "0:2")
        assert code == 0
        data = json.loads(stdout)
        assert data["satisfied"] is True and data["c_hat"] == 2.05

    def test_l1_norm_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "euclid", "sin", "kn:40",
                                  "--domain", "0:6.283185307", "--norm", "l1")
        assert code == 0
        data = json.loads(stdout)
        assert data["norm"] == "l1"
        assert data["bound"] == pytest.approx(data["delta"] * 6.283185307)

    def test_affine_refuses_l1_norm(self, capsys):
        code, stdout, err = run_cli(capsys, "compare", "affine", "const:2", "const:2.05",
                                    "--domain", "0:2", "--norm", "l1")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "linf" in err

    @no_runtime_warning
    def test_overflowing_curvature_exits_3(self, capsys):
        code, stdout, err = run_cli(capsys, "compare", "euclid", "monomial:1,400", "sin",
                                    "--domain", "0:10")
        assert code == 3
        assert stdout == ""
        assert err == "solver error: curvature inf at parameter 5.8984375 past the domain start is not finite\n"

    def test_affine_on_the_capped_grid_exits_0(self, capsys):
        # each curve is one direct solve over 300,001 nodes; measured is the pointwise gap of the two ellipses
        code, stdout, err = run_cli(capsys, "compare", "affine", "const:1", "const:1.1", "--domain", "0:400")
        assert (code, err) == (0, "")
        data = strict_json(stdout)
        gap = affine.conic(1.0, 400.0, 300001).points - affine.conic(1.1, 400.0, 300001).points
        assert abs(data["measured"] - float(np.hypot(gap[:, 0], gap[:, 1]).max())) <= 1e-9
        assert data["satisfied"] is True

    def test_violated_bound_maps_to_exit_4(self, capsys, monkeypatch):
        # the certified inequality holds mathematically, so a violation is
        # only reachable by stubbing the checker; this pins the exit code
        from curverecon import euclidean

        fake = BoundReport(
            mode="euclidean", norm="linf", delta=1.0, length=1.0, c_hat=None,
            bound=1.0, measured=2.0, solver_floor=0.0,
        )
        monkeypatch.setattr(euclidean, "bound_check", lambda *a, **k: fake)
        code, stdout, _ = run_cli(capsys, "compare", "euclid", "const:1", "const:1",
                                  "--domain", "0:1")
        assert code == 4
        assert json.loads(stdout)["satisfied"] is False


class TestOneParser:
    # a usage error first, then each flag given and left to its default, so a value or an error that one
    # request left on the shared parser would show in the next
    SEQUENCE = [
        ("reconstruct", "affine", "--bogus"),
        ("reconstruct", "affine", "--curvature", "const:1", "--domain", "0:1", "--tol", "1e-8"),
        ("reconstruct", "affine", "--curvature", "const:1", "--domain", "0:1"),
        ("compare", "euclid", "sin", "kn:10", "--domain", "0:1", "--norm", "l1"),
        ("compare", "euclid", "sin", "kn:10", "--domain", "0:1"),
        ("compare", "euclid", "sin", "kn:10", "--domain", "-1:1"),
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_requests_in_one_process_print_what_fresh_processes_print(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage message to the terminal width
        for argv in self.SEQUENCE:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-E", "-s", "-m", "curverecon.cli", *argv], cwd=SRC,
                                   capture_output=True, text=True, timeout=120)
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _exact(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


_NUMBER = st.one_of(
    st.integers(-3, 3).map(str),
    st.fractions(-3, 3, max_denominator=3).map(_exact),
    st.floats(-3, 3).map(repr),
    st.floats(-1e308, 1e308).map(repr),
)
# ratios near the ends of the float range: 150 to 320 digits (past 309 a parse error), and their reciprocals
_HUGE = st.integers(10**149, 10**320 - 1)
_RATIO = st.one_of(_HUGE.map(str), _HUGE.map("1/{}".format))
_SPEC = st.one_of(
    _NUMBER.map("const:{}".format),
    st.lists(_NUMBER, min_size=3, max_size=3).map(lambda xs: "sinusoid:" + ",".join(xs)),
    st.fractions(-3, 3, max_denominator=3).map(lambda r: "kn:" + _exact(r)),
    st.fractions(-1, 1, max_denominator=3).map(lambda r: "mun:" + _exact(r)),
    _RATIO.map("kn:{}".format),
    _RATIO.map("mun:{}".format),
    st.tuples(_NUMBER, st.integers(0, 3)).map(lambda t: f"monomial:{t[0]},{t[1]}"),
    st.sampled_from(["sin", "table:<table>", "table:<table>,periodic", "table:<dir>/absent.csv"]),
    # malformed text; a leading '-' would be read by argparse as an option
    st.text(alphabet=":,/.-+e0123456789xn ", max_size=12).filter(lambda s: not s.startswith("-")),
)
_START = st.just(0.0) | st.floats(-1, 1)  # series mode needs a domain starting at 0
_DOMAIN = st.one_of(
    st.tuples(_START, st.floats(0, 1, exclude_min=True)).map(lambda t: f"{t[0]!r}:{t[0] + t[1]!r}"),
    st.tuples(_START, st.floats(0, 1)).map(lambda t: f"{t[0] + t[1]!r}:{t[0]!r}"),
    st.sampled_from(["x:1", "0:", "1", "0:1:2", "a:b"]),
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["euclid", "affine", "series", "classify", "compare euclid", "compare affine"]))
    if command == "classify":
        period = draw(st.one_of(st.floats(1e-3, 7).map(repr), st.sampled_from(["0", "-1", "nan"])))
        return ["classify", f"--curvature={draw(_SPEC)}", f"--period={period}"]
    domain = draw(_DOMAIN)
    # both spellings: '--domain=-1:1' and '--domain -1:1'
    domain = draw(st.sampled_from([[f"--domain={domain}"], ["--domain", domain]]))
    if command.startswith("compare"):
        argv = ["compare", command.split()[1], draw(_SPEC), draw(_SPEC), *domain]
        norm = draw(st.none() | st.sampled_from(["linf", "l1"]))
        return argv if norm is None else argv + [f"--norm={norm}"]
    argv = ["reconstruct", command, f"--curvature={draw(_SPEC)}", *domain]
    for flag, values in (
        ("--samples", st.integers(8, 4097)),
        ("--iterations", st.integers(-1, 50)),
        ("--tol", st.sampled_from(["1e-12", "1e-6", "0", "nan", "1e-300", "1e-320", "5e-324"])),
        ("--out", st.sampled_from(["<dir>/c.csv", "<dir>/missing/c.csv"])),
        ("--svg", st.sampled_from(["<dir>/c.svg", "<dir>/missing/c.svg"])),
    ):
        value = draw(st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    t = np.linspace(0.0, 1.0, 9)
    write_table_csv(t, 1.0 + np.sin(2.0 * np.pi * t), path / "k.csv")
    return path


@settings(max_examples=100, deadline=None)
@given(argv=_cli_argv())
@example(argv=["reconstruct", "euclid", "--curvature=table:<dir>/absent.csv", "--domain=0:1"])
@example(argv=["reconstruct", "affine", "--curvature=const:1", "--domain=0:1", "--tol=5e-324"])
@example(argv=["reconstruct", "euclid", "--curvature=const:1", "--domain=0:1", "--out=<dir>/missing/c.csv"])
@example(argv=["compare", "affine", "const:1", "const:1.1", "--domain=0:1", "--norm=l1"])
@example(argv=["compare", "affine", "const:1", "const:1", "--domain=0:5e-324"])
@example(argv=["reconstruct", "euclid", "--curvature=const:1", "--domain", "-1:1"])
@example(argv=["reconstruct", "euclid", "--curvature=const:1", "--domain=0:1", "--tol=1e-3"])
@example(argv=["reconstruct", "affine", f"--curvature=mun:{10**155}", "--domain=0:1"])
@example(argv=["compare", "euclid", f"mun:{10**155}", "const:1", "--domain=0:1"])
@example(argv=["classify", f"--curvature=mun:{10**155}", "--period=2"])
@example(argv=["reconstruct", "euclid", "--curvature=sinusoid:1e308,1e308,1e308", "--domain=0:1"])
@example(argv=["reconstruct", "euclid", "--curvature=sinusoid:1e308,1e308,0", "--domain=0:1", "--samples=17"])
@example(argv=["compare", "affine", f"kn:1/{10**300}", "const:1", "--domain=0:1"])
@no_runtime_warning
def test_cli_exits_with_a_documented_code(table_dir, argv):
    """Any request over the grammar ends in an exit code from {0, 2, 3, 4}, never a traceback.

    A refusal explains itself on stderr, and a compare report names the norm it was asked for.
    """
    argv = [a.replace("<table>", str(table_dir / "k.csv")).replace("<dir>", str(table_dir)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert stderr.getvalue().startswith("error:" if code == 2 else "solver error:")
    elif argv[0] == "compare":
        norm = next((a.split("=")[1] for a in argv if a.startswith("--norm=")), "linf")
        assert json.loads(stdout.getvalue())["norm"] == norm
