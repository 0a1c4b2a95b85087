import math

import pytest
from hypothesis import given, settings

from pdeseries import (
    Atom,
    ExpPoly,
    ExpressionSyntaxError,
    parse_expression as pe,
    to_display,
)
from helpers import assert_poly_close, exp_polys, poly_close


class TestGrammar:
    def test_identity(self):
        poly = pe("x")
        assert len(poly.atoms) == 1
        assert poly.atoms[0].coeff == 1.0
        assert poly.atoms[0].powers == (1, 0, 0, 0)

    def test_sin_euler_atoms(self):
        poly = pe("sin(x)")
        assert len(poly.atoms) == 2
        by_slope = {a.expo[0]: a.coeff for a in poly.atoms}
        assert by_slope[1j] == pytest.approx(1 / 2j)
        assert by_slope[-1j] == pytest.approx(-1 / 2j)

    def test_exp_times_monomial(self):
        poly = pe("exp(-x)*t")
        assert len(poly.atoms) == 1
        atom = poly.atoms[0]
        assert atom.coeff == 1.0
        assert atom.powers == (0, 0, 0, 1)
        assert atom.expo == (-1 + 0j, 0j, 0j, 0j)

    def test_numbers_and_scientific(self):
        assert pe("0.5").evaluate((0, 0, 0, 0)) == pytest.approx(0.5)
        assert pe("1e-3").evaluate((0, 0, 0, 0)) == pytest.approx(1e-3)
        assert pe("2.5e2").evaluate((0, 0, 0, 0)) == pytest.approx(250.0)

    def test_imaginary_unit(self):
        assert pe("i").evaluate((0, 0, 0, 0)) == 1j
        assert pe("i*i").evaluate((0, 0, 0, 0)) == pytest.approx(-1 + 0j)

    def test_power(self):
        assert_poly_close(pe("x^3"), pe("x*x*x"))
        assert_poly_close(pe("(x+1)^2"), pe("x^2 + 2*x + 1"))

    def test_unary_signs(self):
        assert_poly_close(pe("-x + +x"), ExpPoly.zero())
        assert_poly_close(pe("--x"), pe("x"))

    def test_function_with_constant_offset(self):
        # sin(x + pi/2) style: constant folds into the coefficients
        poly = pe("sin(x + 1.5707963267948966)")
        value = poly.evaluate((0.0, 0, 0, 0))
        assert value.real == pytest.approx(1.0)
        assert abs(value.imag) < 1e-12

    def test_trig_identity(self):
        lhs = pe("sin(x)*cos(x)")
        rhs = pe("0.5*sin(2*x)")
        assert_poly_close(lhs, rhs)

    def test_hyperbolic(self):
        val = pe("cosh(x)").evaluate((0.7, 0, 0, 0))
        assert val.real == pytest.approx(math.cosh(0.7))
        val = pe("sinh(2*t)").evaluate((0, 0, 0, 0.3))
        assert val.real == pytest.approx(math.sinh(0.6))

    def test_whitespace_robust(self):
        assert_poly_close(pe("  2 * x ^ 2  +  sin( x ) "), pe("2*x^2+sin(x)"))


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["x +", "(x", "sin x", "x^-1", "x^y", "2**3", "sin()", "q", "x $ y", "", "x^2^2"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ExpressionSyntaxError):
            pe(text)

    def test_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            pe("x + $")
        assert err.value.position == 4

    def test_nonlinear_function_argument(self):
        with pytest.raises(ExpressionSyntaxError):
            pe("sin(x^2)")
        with pytest.raises(ExpressionSyntaxError):
            pe("exp(x*y)")
        with pytest.raises(ExpressionSyntaxError):
            pe("cos(exp(x))")


class TestDisplay:
    def test_sin_folds(self):
        assert to_display(pe("sin(x)")) == "sin(x)"

    def test_monomial(self):
        assert to_display(pe("2*x^2 + 0*y")) == "2*x^2"

    def test_imaginary_coefficient(self):
        assert to_display(pe("i*x")) == "i*x"

    def test_zero(self):
        assert to_display(ExpPoly.zero()) == "0"

    def test_unpaired_exponential_stays_raw(self):
        text = to_display(pe("exp(i*x)"))
        assert "exp" in text
        assert_poly_close(pe(text), pe("exp(i*x)"), 1e-12)

    def test_real_exponent_factor_kept(self):
        text = to_display(pe("exp(-2*t)*cos(y+z)"))
        assert "cos" in text and "exp" in text

    @settings(max_examples=60, deadline=None)
    @given(exp_polys(max_atoms=3))
    def test_roundtrip_random(self, poly):
        assert poly_close(pe(to_display(poly)), poly, 1e-12)

    def test_roundtrip_solver_style_values(self):
        texts = [
            "exp(-0.2*t)*cos(y)*cos(z) + 100*(-1+0.1*t+exp(-0.1*t))*cos(x)",
            "exp(-0.3*t)*sin(x-y-z) + exp(t) - 1",
            "exp(0.3*t+x+y+z) - 100*z*sin(x) + 10*t*z*sin(x) + 100*exp(-0.1*t)*z*sin(x)",
            "i*sin(x)",
            "0.25*x^2*t^3*exp(-x+2*t)",
        ]
        for text in texts:
            poly = pe(text)
            assert poly_close(pe(to_display(poly)), poly, 1e-12)

    def test_conjugate_pair_with_complex_amplitudes(self):
        poly = ExpPoly(
            [
                Atom(0.3 + 0.7j, (0, 0, 0, 0), (1j, 0j, 0j, 0j)),
                Atom(-0.2 + 0.1j, (0, 0, 0, 0), (-1j, 0j, 0j, 0j)),
            ]
        )
        assert poly_close(pe(to_display(poly)), poly, 1e-12)
