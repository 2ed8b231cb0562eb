import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from curverecon.curvatures import (
    BumpPlusOneSquared,
    ConstantCurvature,
    EvaluationDomainError,
    MonomialCurvature,
    SinePlusBump,
    SinusoidCurvature,
    SpecParseError,
    bump,
    parse_spec,
    parse_spec_cli,
)

TWO_PI = 2.0 * math.pi


class TestBump:
    def test_pinned_values(self):
        assert bump(1.0) == 1.0
        assert bump(-0.5) == 0.0
        assert bump(0.0) == 0.0
        assert bump(2.0) == 0.0
        assert bump(3.7) == 0.0
        assert abs(bump(0.5) + bump(1.5) - 1.0) < 1e-15  # mirrored halves

    def test_range_on_dense_grid(self):
        s = np.linspace(-1.0, 3.0, 10_000)
        v = bump(s)
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert np.all(v[(s <= 0) | (s >= 2)] == 0.0)

    def test_unit_integral(self):
        total, err = quad(bump, 0.0, 2.0, epsabs=1e-12, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_no_overflow_near_edges(self):
        v = bump(np.array([1e-300, 1 - 1e-14, 1 + 1e-14, 2 - 1e-300]))
        assert np.isfinite(v).all()


class TestParsing:
    def test_sinusoid_with_rational_offset(self):
        spec = parse_spec("sinusoid:1,1,1/3")
        assert spec == SinusoidCurvature(Fraction(1), Fraction(1), Fraction(1, 3))

    def test_const_zero(self):
        assert parse_spec("const:0") == ConstantCurvature(Fraction(0))

    def test_bump_family_rational(self):
        spec = parse_spec("kn:5/3")
        assert isinstance(spec, SinePlusBump) and spec.r == Fraction(5, 3)
        assert parse_spec("kn:10").r == Fraction(10)
        assert parse_spec("kn:-5/3").r == Fraction(-5, 3)

    def test_mun_kind(self):
        spec = parse_spec("mun:2/5")
        assert isinstance(spec, BumpPlusOneSquared) and spec.r == Fraction(2, 5)

    def test_monomial(self):
        spec = parse_spec("monomial:1,1")
        assert spec == MonomialCurvature(Fraction(1), 1)
        assert parse_spec("monomial:0.5,3").c == 0.5

    def test_unknown_kind(self):
        with pytest.raises(SpecParseError):
            parse_spec("zigzag:1")

    def test_missing_colon(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec("const")
        assert exc.value.offset == 0

    def test_non_reduced_rational_rejected(self):
        with pytest.raises(SpecParseError, match="not reduced"):
            parse_spec("kn:10/4")

    def test_float_rejected_for_bump_families(self):
        with pytest.raises(SpecParseError, match="exact rational"):
            parse_spec("kn:2.5")
        with pytest.raises(SpecParseError, match="exact rational"):
            parse_spec("mun:0.4")

    def test_negative_monomial_exponent_rejected(self):
        with pytest.raises(SpecParseError):
            parse_spec("monomial:1,-2")

    @pytest.mark.parametrize("k", [1.5, -1])
    def test_monomial_exponent_must_be_a_non_negative_integer(self, k):
        with pytest.raises(ValueError, match="non-negative integer"):
            MonomialCurvature(1.0, k)

    def test_error_offsets_point_at_argument(self):
        with pytest.raises(SpecParseError) as exc:
            parse_spec("sinusoid:1,xx,3")
        assert exc.value.offset == len("sinusoid:1,")

    def test_non_finite_numbers_rejected(self):
        huge = "1" + "0" * 400
        for text in ("const:1e400", "const:-1e400", f"const:{huge}", f"const:{huge}/3", f"monomial:{huge},1"):
            with pytest.raises(SpecParseError, match="finite"):
                parse_spec(text)
        with pytest.raises(SpecParseError) as exc:
            parse_spec("sinusoid:1,1e309,0")
        assert exc.value.offset == len("sinusoid:1,")
        assert parse_spec("const:1e-400").value == 0.0
        long_int = "1" * 5000  # past Python's int-from-string digit limit
        for text in (f"const:{long_int}", f"const:{long_int}/3", f"monomial:1,{long_int}"):
            with pytest.raises(SpecParseError, match="too long"):
                parse_spec(text)

    def test_cli_alias(self):
        assert parse_spec_cli("sin") == SinusoidCurvature(Fraction(1), Fraction(0), Fraction(0))


class TestEvaluation:
    def test_bump_family_outside_support_is_plain_sine(self):
        spec = parse_spec("kn:10")
        assert abs(spec(3.0) - math.sin(3.0)) < 1e-15

    def test_bump_family_amplitude(self):
        spec = parse_spec("kn:10")
        assert abs(spec(1.0) - (math.sin(1.0) + TWO_PI / 10.0)) < 1e-15

    def test_mun_formula(self):
        spec = parse_spec("mun:2/5")
        expected = (0.4 * math.pi) ** 2 * (bump(1.0) + 1.0) ** 2
        assert abs(spec(1.0) - expected) < 1e-12

    def test_periodic_extension(self):
        kn = parse_spec("kn:7/2")
        t = np.linspace(0.0, TWO_PI, 97)
        assert np.abs(kn(t + TWO_PI) - kn(t)).max() < 1e-12
        mun = parse_spec("mun:3/5")
        a = np.linspace(0.0, 2.0, 97)
        assert np.abs(mun(a + 2.0) - mun(a)).max() < 1e-12

    def test_vectorized_matches_scalar(self):
        spec = parse_spec("sinusoid:1,1,1/3")
        t = np.linspace(-3, 3, 17)
        assert np.allclose(spec(t), [spec(float(x)) for x in t])


class TestTable:
    def make_table(self, tmp_path, periodic=False):
        from curverecon.curveio import write_table_csv

        g = np.linspace(0.0, 2.0, 41)
        write_table_csv(g, np.cos(g), tmp_path / "tab.csv")
        suffix = ",periodic" if periodic else ""
        return parse_spec(f"table:{tmp_path / 'tab.csv'}{suffix}")

    def test_linear_interpolation(self, tmp_path):
        spec = self.make_table(tmp_path)
        g = np.linspace(0.0, 2.0, 41)
        mid = 0.5 * (g[3] + g[4])
        assert abs(spec(mid) - 0.5 * (np.cos(g[3]) + np.cos(g[4]))) < 1e-15

    def test_extrapolation_needs_periodic_flag(self, tmp_path):
        spec = self.make_table(tmp_path)
        with pytest.raises(EvaluationDomainError):
            spec(2.5)

    def test_periodic_wraps(self, tmp_path):
        spec = self.make_table(tmp_path, periodic=True)
        assert abs(spec(2.5) - spec(0.5)) < 1e-12
