import math
import random

import pytest
from hypothesis import given, settings

from pdeseries import (
    Atom,
    AtomBudgetError,
    ExpPoly,
    NonEigenAtomError,
    VectorField,
    curl,
    divergence,
    eigenvalue,
    gradient,
    heat_semigroup,
    laplacian,
    parse_expression as pe,
)
from helpers import (
    assert_poly_close,
    exp_polys,
    poly_close,
    random_points,
    reference_evaluate,
)


class TestNormalization:
    def test_merges_equal_atoms(self):
        a = Atom(1.0, (1, 0, 0, 0))
        b = Atom(2.0, (1, 0, 0, 0))
        poly = ExpPoly([a, b])
        assert len(poly.atoms) == 1
        assert poly.atoms[0].coeff == 3.0

    def test_drops_tiny_coefficients(self):
        poly = ExpPoly([Atom(1e-15, (1, 0, 0, 0))])
        assert poly.is_zero()

    def test_cancellation_gives_zero(self):
        x = pe("x")
        assert (x - x).is_zero()

    @given(exp_polys())
    def test_idempotent(self, poly):
        assert ExpPoly(poly.atoms) == poly

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ExpPoly([Atom(float("nan"), (0, 0, 0, 0))])

    def test_atom_budget(self, monkeypatch):
        import pdeseries.algebra as algebra

        monkeypatch.setattr(algebra, "MAX_ATOMS", 3)
        with pytest.raises(AtomBudgetError):
            ExpPoly([Atom(1.0, (k, 0, 0, 0)) for k in range(5)])


class TestRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(exp_polys(), exp_polys())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @settings(max_examples=40, deadline=None)
    @given(exp_polys(max_atoms=2), exp_polys(max_atoms=2))
    def test_mul_commutes_pointwise(self, a, b):
        left, right = a * b, b * a
        for p in random_points(10):
            lv, rv = left.evaluate(p), right.evaluate(p)
            assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv))

    @settings(max_examples=30, deadline=None)
    @given(exp_polys(max_atoms=2), exp_polys(max_atoms=2), exp_polys(max_atoms=2))
    def test_distributive_pointwise(self, a, b, c):
        left = a * (b + c)
        right = a * b + a * c
        for p in random_points(10):
            lv, rv = left.evaluate(p), right.evaluate(p)
            assert abs(lv - rv) <= 1e-10 * max(1.0, abs(lv), abs(rv))

    @settings(max_examples=30, deadline=None)
    @given(exp_polys(max_atoms=2), exp_polys(max_atoms=2), exp_polys(max_atoms=2))
    def test_mul_associates_pointwise(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        for p in random_points(10):
            lv, rv = left.evaluate(p), right.evaluate(p)
            assert abs(lv - rv) <= 1e-9 * max(1.0, abs(lv), abs(rv))

    def test_multiply_examples(self):
        assert_poly_close(pe("x") * pe("x"), pe("x^2"))
        assert_poly_close(pe("sin(x)") * pe("sin(x)"), pe("0.5 - 0.5*cos(2*x)"))
        assert_poly_close(pe("x") * pe("i*x"), pe("i*x^2"))


class TestDifferentiation:
    def test_monomial(self):
        assert_poly_close(pe("x^2").diff("x"), pe("2*x"))

    def test_sin_to_cos(self):
        assert_poly_close(pe("sin(x)").diff("x"), pe("cos(x)"))

    def test_second_derivative_exp(self):
        assert_poly_close(pe("exp(-x)").diff("x", 2), pe("exp(-x)"))

    def test_product_structure(self):
        poly = pe("x*exp(2*x)")
        assert_poly_close(poly.diff("x"), pe("exp(2*x) + 2*x*exp(2*x)"))

    @settings(max_examples=40, deadline=None)
    @given(exp_polys(max_atoms=2, max_power=2))
    def test_matches_central_difference(self, poly):
        step = 1e-5
        deriv = poly.diff("x")
        for px, py, pz, pt in random_points(4):
            up = poly.evaluate((px + step, py, pz, pt))
            dn = poly.evaluate((px - step, py, pz, pt))
            fd = (up - dn) / (2 * step)
            sym = deriv.evaluate((px, py, pz, pt))
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))

    def test_t_derivative_independent_of_space(self):
        poly = pe("x^2*exp(3*t)")
        assert_poly_close(poly.diff("t"), pe("3*x^2*exp(3*t)"))


class TestEvaluation:
    def test_monomial_product(self):
        assert pe("x*t").evaluate((2.0, 0.0, 0.0, 3.0)) == pytest.approx(6.0)

    def test_exponential_at_zero(self):
        assert pe("exp(-x)").evaluate((0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_sin_at_half_pi(self):
        value = pe("sin(x)").evaluate((math.pi / 2, 0.0, 0.0, 0.0))
        assert abs(value - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(exp_polys())
    def test_grid_fn_matches_scalar(self, poly):
        import numpy as np

        pts = random_points(6)
        xs, ys, zs, ts = (np.array([p[i] for p in pts]) for i in range(4))
        grid_vals = poly.grid_fn()(xs, ys, zs, ts)
        for idx, p in enumerate(pts):
            assert abs(grid_vals[idx] - reference_evaluate(poly, p)) < 1e-12 * max(
                1.0, abs(grid_vals[idx])
            )

    @settings(max_examples=30, deadline=None)
    @given(exp_polys())
    def test_evaluate_is_scalar_grid_fn(self, poly):
        fn = poly.grid_fn()
        for p in random_points(4):
            assert poly.evaluate(p) == complex(fn(*p))

    def test_reality_preservation(self):
        rng = random.Random(5)
        for text in ("sin(x)*cos(y)", "x^2 - 3*t", "exp(-x)*sin(x+0.5)", "cosh(x)*sin(z)"):
            poly = pe(text)
            for p in random_points(8, rng):
                assert abs(poly.evaluate(p).imag) < 1e-10


class TestSpatialOperators:
    def test_laplacian_eigen_product(self):
        # cos y cos z has eigenvalue -2
        poly = pe("cos(y)*cos(z)")
        assert_poly_close(laplacian(poly), poly.scale(-2.0))

    def test_curl_of_gradient_is_zero(self):
        assert curl(gradient(pe("x*y*z"))).is_zero()
        assert curl(gradient(pe("sin(x)*cos(y)+z^2"))).is_zero()

    def test_divergence_example(self):
        field = VectorField(pe("x"), pe("-y"), ExpPoly.zero())
        assert divergence(field).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(
        exp_polys(max_atoms=2, max_power=2),
        exp_polys(max_atoms=2, max_power=2),
        exp_polys(max_atoms=2, max_power=2),
    )
    def test_divergence_of_curl_is_zero(self, fx, fy, fz):
        assert divergence(curl(VectorField(fx, fy, fz))).is_zero()

    @settings(max_examples=25, deadline=None)
    @given(exp_polys(max_atoms=2, max_power=2))
    def test_curl_of_gradient_property(self, poly):
        assert curl(gradient(poly)).is_zero()


class TestEigenAtoms:
    def test_eigenvalues(self):
        cases = [
            ("sin(x)", -1), ("exp(x+y+z)", 3), ("cos(y)*cos(z)", -2),
            ("z*sin(x)", -1), ("7", 0), ("x", 0), ("sin(x-y-z)", -3),
        ]
        for text, expected in cases:
            for atom in pe(text).atoms:
                assert eigenvalue(atom) == pytest.approx(expected)

    def test_non_eigen_rejected(self):
        for text in ("x^2", "x*exp(x)", "x*sin(x)"):
            with pytest.raises(NonEigenAtomError):
                for atom in pe(text).atoms:
                    eigenvalue(atom)

    def test_semigroup_symbolic(self):
        out = heat_semigroup(pe("cos(y)*cos(z)"), 0.25)
        assert_poly_close(out, pe("exp(-0.5*t)*cos(y)*cos(z)"))
        out = heat_semigroup(pe("exp(x+y+z)"), 0.25)
        assert_poly_close(out, pe("exp(0.75*t)*exp(x+y+z)"))

    def test_semigroup_constant_unchanged(self):
        const = pe("4.5")
        assert heat_semigroup(const, 1.0) == const

    def test_semigroup_rejects_non_eigen(self):
        with pytest.raises(NonEigenAtomError):
            heat_semigroup(pe("x^2"), 1.0)


class TestVectorField:
    def test_add_and_scale(self):
        f = VectorField(pe("x"), pe("y"), pe("z"))
        g = f + f.scale(-1.0)
        assert g.is_zero()

    def test_evaluate(self):
        f = VectorField(pe("x"), pe("2*y"), pe("sin(z)"))
        vx, vy, vz = (c.evaluate((1.0, 2.0, 0.0, 0.0)) for c in f.components())
        assert (vx.real, vy.real, vz.real) == pytest.approx((1.0, 4.0, 0.0))


def test_poly_close_tolerates_key_drift():
    a = pe("exp(0.1*t)*sin(x)")
    slope = a.atoms[0].expo[3] + 1e-13
    shifted = ExpPoly(
        [Atom(at.coeff, at.powers, at.expo[:3] + (slope,)) for at in a.atoms]
    )
    assert poly_close(a, shifted, 1e-10)
    assert not poly_close(a, a.scale(1.1), 1e-10)
