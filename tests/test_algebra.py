import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pdeseries.algebra as algebra

from pdeseries import (
    Atom,
    AtomBudgetError,
    EvolutionProblem,
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
    solve_series,
)
from helpers import (
    assert_poly_close,
    atom_bits,
    exp_polys,
    poly_close,
    random_points,
    reference_evaluate,
    reference_mul,
    reference_normalize,
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


# Parts chosen so that sums cancel below MERGE_TOL ((0.1 + 0.2) - 0.3,
# 1e-15 - 1e-15), keep or lose -0.0, and so that slopes drift (0.1 + 0.2
# is not 0.3) or differ only in the sign of a zero.
_PARTS = [1.0, -1.0, 0.5, 0.1, 0.2, 0.1 + 0.2, -0.3, 1e-15, -1e-15, 0.0, -0.0, 3.0]
_ZEROS = [complex(0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)]
_X_SLOPES = _ZEROS + [1j, -1j, 1 + 0j, -1 + 0j, 0.3 + 0j, (0.1 + 0.2) + 0j, 0.3j]


@st.composite
def bit_atoms(draw):
    coeff = complex(draw(st.sampled_from(_PARTS)), draw(st.sampled_from(_PARTS)))
    powers = (draw(st.integers(0, 2)), 0, 0, draw(st.integers(0, 1)))
    expo = (
        draw(st.sampled_from(_X_SLOPES)),
        draw(st.sampled_from(_ZEROS + [1j, -1j])),
        draw(st.sampled_from(_ZEROS)),
        draw(st.sampled_from(_ZEROS)),
    )
    return Atom(coeff, powers, expo)


def bit_atom_lists(min_size, max_size):
    return st.lists(bit_atoms(), min_size=min_size, max_size=max_size)


class TestBitIdentity:
    """Every operation returns the atom tuple of the original one-Atom-
    per-pair algebra (tests/helpers.py), bit for bit: coefficient and
    slope parts are compared as exact bits, so -0.0 differs from 0.0."""

    @settings(max_examples=150, deadline=None)
    @given(bit_atom_lists(0, 40))
    def test_normalize(self, atoms):
        assert atom_bits(ExpPoly(atoms).atoms) == atom_bits(reference_normalize(atoms))

    @settings(max_examples=150, deadline=None)
    @given(bit_atom_lists(0, 7), bit_atom_lists(0, 7))
    def test_small_product(self, xs, ys):
        a, b = ExpPoly(xs), ExpPoly(ys)
        assert len(a.atoms) * len(b.atoms) < algebra._NUMPY_PAIRS
        assert atom_bits((a * b).atoms) == atom_bits(reference_mul(a, b))

    @settings(max_examples=40, deadline=None)
    @given(bit_atom_lists(18, 40), bit_atom_lists(18, 40))
    def test_large_product(self, xs, ys):
        a, b = ExpPoly(xs), ExpPoly(ys)
        assume(len(a.atoms) * len(b.atoms) >= algebra._NUMPY_PAIRS)
        assert atom_bits((a * b).atoms) == atom_bits(reference_mul(a, b))

    @settings(max_examples=30, deadline=None)
    @given(bit_atom_lists(1, 3), bit_atom_lists(18, 30), bit_atom_lists(18, 30))
    def test_product_with_long_operand(self, xs, ys, zs):
        # A short factor times a long one, as in partial sums.
        a, b = ExpPoly(xs), ExpPoly(ys) * ExpPoly(zs)
        assume(len(a.atoms) * len(b.atoms) >= algebra._NUMPY_PAIRS)
        assert atom_bits((a * b).atoms) == atom_bits(reference_mul(a, b))
        assert atom_bits((b * a).atoms) == atom_bits(reference_mul(b, a))

    @settings(max_examples=80, deadline=None)
    @given(bit_atom_lists(0, 30), bit_atom_lists(0, 30))
    def test_add(self, xs, ys):
        a, b = ExpPoly(xs), ExpPoly(ys)
        assert atom_bits((a + b).atoms) == atom_bits(reference_normalize(a.atoms + b.atoms))

    @settings(max_examples=80, deadline=None)
    @given(
        bit_atom_lists(0, 30),
        st.sampled_from([-1.0, 3, 0.1, 1e-15, complex(0.5, -0.0), complex(-0.0, 2.0)]),
    )
    def test_scale(self, xs, factor):
        a = ExpPoly(xs)
        f = complex(factor)
        want = reference_normalize([Atom(x.coeff * f, x.powers, x.expo) for x in a.atoms])
        assert atom_bits(a.scale(factor).atoms) == atom_bits(want)

    @settings(max_examples=80, deadline=None)
    @given(bit_atom_lists(0, 30), st.sampled_from(["x", "y", "t"]), st.integers(0, 2))
    def test_diff(self, xs, var, order):
        a = ExpPoly(xs)
        idx = "xyzt".index(var)
        want = a.atoms
        for _ in range(order):
            out = []
            for x in want:
                p, lam = x.powers[idx], x.expo[idx]
                if p:
                    lowered = x.powers[:idx] + (p - 1,) + x.powers[idx + 1:]
                    out.append(Atom(x.coeff * p, lowered, x.expo))
                if lam != 0:
                    out.append(Atom(x.coeff * lam, x.powers, x.expo))
            want = reference_normalize(out)
        assert atom_bits(a.diff(var, order).atoms) == atom_bits(want)

    def test_power_ranges_beyond_int64_keys(self):
        # Powers this far apart leave no int64 key for a (class, powers)
        # pair; the product still matches.
        big = 10**5
        atoms = [
            Atom(1.0 + k * 1j, (k % 2 * big, k // 2 % 2 * big, k // 4 % 2 * big, k // 8 * big))
            for k in range(16)
        ]
        a = ExpPoly(atoms)
        assert len(a.atoms) ** 2 >= algebra._NUMPY_PAIRS
        assert atom_bits((a * a).atoms) == atom_bits(reference_mul(a, a))

    def test_cubic_coefficients(self, monkeypatch):
        # w_0..w_5 of the cubic stress problem, against a solve in which
        # every product and every normalization is the reference one.
        problem = EvolutionProblem(
            a={1: -1.0}, b={1: -0.5}, c=0.5, mixed_order=2, nonlin_exponent=2,
            h=pe("exp(-x) + x*sin(x)"),
        )
        got = solve_series(problem, 5).coefficients
        monkeypatch.setattr(
            algebra, "_normalized",
            lambda terms: reference_normalize([Atom(c, p, e) for p, e, c in terms]),
        )
        monkeypatch.setattr(ExpPoly, "__mul__", lambda a, b: ExpPoly(reference_mul(a, b)))
        want = solve_series(problem, 5).coefficients
        assert [len(w.atoms) for w in want] == [3, 30, 91, 204, 385, 650]
        for n, (g, w) in enumerate(zip(got, want)):
            assert atom_bits(g.atoms) == atom_bits(w.atoms), f"w_{n}"


def _wide(n, coeff=1.0):
    """n atoms in distinct classes."""
    return ExpPoly([Atom(complex(coeff), (k, 0, 0, 0), (1j * k, 0j, 0j, 0j)) for k in range(n)])


class TestProductErrors:
    @pytest.mark.parametrize("n", [2, 20], ids=["small", "large"])
    def test_atom_budget(self, monkeypatch, n):
        a = _wide(n)
        assert (len(a.atoms) ** 2 >= algebra._NUMPY_PAIRS) == (n == 20)
        monkeypatch.setattr(algebra, "MAX_ATOMS", 2)
        with pytest.raises(AtomBudgetError):
            a * a

    @pytest.mark.parametrize("n", [2, 20], ids=["small", "large"])
    def test_overflow_is_non_finite(self, n):
        a = _wide(n, coeff=1e200)
        with pytest.raises(ValueError, match="non-finite"):
            a * a
