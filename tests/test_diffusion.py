import math
import random

import pytest
from hypothesis import given, settings

from pdeseries import (
    BallProblem,
    ExpPoly,
    GridSpec,
    HeatProblem,
    NonEigenAtomError,
    ball_series,
    detect_closed_form,
    fd_residual_heat,
    heat_semigroup,
    heat_series,
    laplacian,
    parse_expression as pe,
)
from helpers import (
    assert_poly_close,
    ball_temperature,
    eigen_poly_samples,
    exp_polys,
    poly_close,
)


class TestHeatSeries:
    def test_eigenfunction_coefficients(self):
        prob = HeatProblem(0.7, pe("sin(x)"))
        series = heat_series(prob, 6)
        for k, w in enumerate(series.coefficients):
            # Lap(sin x) = -sin x, so w_k = (i a^2)^k sin x
            assert_poly_close(w, pe("sin(x)").scale((1j * 0.7) ** k), 1e-10)
        cf = detect_closed_form(series)
        assert cf.kind == "exponential"
        value = complex(cf.grid_fn()(0.4, 0, 0, 0.3)).real
        assert value == pytest.approx(math.exp(-0.7 * 0.3) * math.sin(0.4))

    def test_constant_datum(self):
        series = heat_series(HeatProblem(1.0, pe("4")), 5)
        assert series.coefficients[0] == pe("4")
        assert all(w.is_zero() for w in series.coefficients[1:])

    def test_coefficient_identity(self):
        # w_{k+1} = -i a^2 Lap(w_k) for arbitrary smooth data, not just
        # eigenfunctions.
        prob = HeatProblem(0.5, pe("x^2*y + sin(x)*cos(z)"))
        series = heat_series(prob, 8)
        for k in range(8):
            expected = laplacian(series.coefficients[k]).scale(-0.5j)
            assert_poly_close(series.coefficients[k + 1], expected, 1e-12)

    def test_paper_example_component(self):
        nu = 0.3
        series = heat_series(HeatProblem(nu, pe("cos(y)*cos(z)")), 12)
        cf = detect_closed_form(series)
        assert cf.kind == "exponential"
        expected = pe(f"cos(y)*cos(z)*exp({-2 * nu!r}*t)")
        assert_poly_close(cf.as_exppoly(), expected, 1e-10)


class TestHeatClosedForm:
    def test_exponential_datum(self):
        out = heat_semigroup(pe("exp(x+y+z)"), 0.25)
        assert_poly_close(out, pe("exp(0.75*t)*exp(x+y+z)"), 1e-12)

    def test_trig_datum(self):
        out = heat_semigroup(pe("sin(x-y-z)"), 0.25)
        assert_poly_close(out, pe("exp(-0.75*t)*sin(x-y-z)"), 1e-12)

    def test_non_eigen_rejected(self):
        with pytest.raises(NonEigenAtomError):
            heat_semigroup(pe("x^2"), 1.0)

    def test_series_agreement_random_eigendata(self):
        # Order-12 partial sums vs the exact semigroup at a^2*t <= 0.5.
        rng = random.Random(3)
        samples = eigen_poly_samples()
        for trial in range(25):
            u0 = samples[trial % len(samples)]
            a2 = rng.uniform(0.05, 2.0)
            prob = HeatProblem(a2, u0)
            series = heat_series(prob, 12)
            closed = heat_semigroup(u0, a2)
            partial = series.partial_sum(12)
            for _ in range(4):
                point = (
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                    rng.uniform(-1, 1),
                    rng.uniform(0.0, 0.5) / a2,
                )
                got = partial.evaluate(point)
                want = closed.evaluate(point)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_initial_condition(self):
        for u0 in eigen_poly_samples()[:6]:
            series = heat_series(HeatProblem(1.3, u0), 4)
            for point in ((0.2, -0.4, 0.9, 0.0), (-1.0, 0.5, 0.1, 0.0)):
                assert series.partial_sum(0).evaluate(point) == pytest.approx(
                    u0.evaluate((point[0], point[1], point[2], 0.0))
                )


class TestBall:
    def test_constant_temperature(self):
        # T0 = 1 -> V = r, series terminates, T stays 1 exactly.
        prob = BallProblem.from_temperature(1.0, pe("1"))
        series = ball_series(prob, 6)
        assert series.coefficients[0] == pe("x")
        assert all(w.is_zero() for w in series.coefficients[1:])
        for r in (0.2, 0.5, 1.0):
            for t in (0.0, 0.05, 0.3):
                assert ball_temperature(series, r, t, 6) == pytest.approx(1.0)

    def test_sine_mode(self):
        # V0 = sin(2r): w_k = (4 i a^2)^k sin(2r), T = e^{-4 a^2 t} sin(2r)/r
        a2 = 0.8
        series = ball_series(BallProblem(a2, pe("sin(2*x)")), 8)
        for k, w in enumerate(series.coefficients):
            assert_poly_close(w, pe("sin(2*x)").scale((4j * a2) ** k), 1e-9)
        cf = detect_closed_form(series)
        assert cf.kind == "exponential"
        r, t = 0.6, 0.07
        expected = math.exp(-4 * a2 * t) * math.sin(2 * r) / r
        assert ball_temperature(series, r, t) == pytest.approx(expected, abs=1e-9)

    def test_linear_temperature(self):
        # T0 = r -> V = r^2: single correction term, T = r + 2 a^2 t / r.
        a2 = 1.2
        series = ball_series(BallProblem.from_temperature(a2, pe("x")), 6)
        coeffs = series.coefficients
        assert_poly_close(coeffs[1], ExpPoly.constant(-2j * a2), 1e-12)
        assert all(w.is_zero() for w in coeffs[2:])
        for r, t in ((0.3, 0.02), (0.9, 0.1)):
            assert ball_temperature(series, r, t) == pytest.approx(
                r + 2 * a2 * t / r
            )

    def test_radial_residual(self):
        # r*T must satisfy the 1-D heat equation on the checking grid.
        series = ball_series(BallProblem(1.0, pe("sin(x)")), 12)
        grid = GridSpec(ranges={"x": (0.1, 1.0, 19), "t": (0.01, 0.1, 10)})
        report = fd_residual_heat(detect_closed_form(series).grid_fn(), 1.0, grid)
        assert report.max_abs < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(exp_polys(max_atoms=3, max_power=3, n_vars=1))
    def test_ball_series_is_heat_series_of_v0(self, v0):
        # For x-only data the Laplacian is d^2/dx^2 atom for atom, so the
        # ball recursion w_{k+1} = -i a^2 w_k'' is the heat series of V0.
        a2 = 0.7
        coeffs = ball_series(BallProblem(a2, v0), 5).coefficients
        assert coeffs == heat_series(HeatProblem(a2, v0), 5).coefficients
        w = v0
        for got in coeffs:
            assert got == w
            w = w.diff("x", 2).scale(-1j * a2)

    def test_boundary_defect_diagnostic(self):
        # V = sin(pi r) with R = 1, hbc = 1: V(R) = 0 and dV/dr(R) = -pi,
        # so the recorded defect is pi at any time scale factor e^{...}.
        prob = BallProblem(1.0, pe("sin(3.141592653589793*x)"), radius=1.0,
                           boundary_coeff=1.0)
        defect = prob.boundary_defect(ball_series(prob, 10), t=0.0, order=10)
        assert defect == pytest.approx(math.pi, rel=1e-6)

    def test_boundary_defect_requires_data(self):
        prob = BallProblem(1.0, pe("sin(x)"))
        with pytest.raises(ValueError):
            prob.boundary_defect(ball_series(prob, 4), t=0.0)

    def test_t0_and_v0_equivalent(self):
        via_t0 = ball_series(BallProblem.from_temperature(0.5, pe("x^2")), 6)
        via_v0 = ball_series(BallProblem(0.5, pe("x^3")), 6)
        for a, b in zip(via_t0.coefficients, via_v0.coefficients):
            assert poly_close(a, b, 1e-12)
