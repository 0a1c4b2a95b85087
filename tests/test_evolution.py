import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdeseries import (
    EvolutionProblem,
    ExpPoly,
    GridSpec,
    PowersTable,
    ResonanceError,
    apply_implicit_inverse,
    detect_closed_form,
    fd_residual_evolution,
    parse_expression as pe,
    recursion_step,
    solve_series,
)
from helpers import assert_poly_close, brute_force_power_entry, exp_polys


def rlw_problem():
    # u_t + 1/2 (u^2)_x = u_xxt with u(x,0) = x
    return EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, nonlin_exponent=1, h=pe("x"))


def transport_problem():
    # u_t + u_x = 2 u_xxt with u(x,0) = exp(-x)
    return EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)"))


def fourth_order_problem():
    # u_t + 2 u_xxxx = u_xxt with u(x,0) = sin(x)
    return EvolutionProblem(a={4: -2.0}, c=1.0, mixed_order=2, h=pe("sin(x)"))


class TestImplicitInverse:
    def test_polynomial_class(self):
        # i*w - i*w'' = -x  ->  w = i*x
        w = apply_implicit_inverse(pe("-x"), c=1.0, order=2)
        assert_poly_close(w, pe("i*x"))

    def test_exponential_class(self):
        # The step operator arising in the transport example: with
        # RHS = +exp(-x) (the a_1 = -1 sign applied), i*w - 2i*w'' = e^{-x}
        # has the solution w = i*e^{-x}.
        w = apply_implicit_inverse(pe("exp(-x)"), c=2.0, order=2)
        assert_poly_close(w, pe("i*exp(-x)"))
        # Verify the operator identity directly.
        check = w.scale(1j) - w.diff("x", 2).scale(2j)
        assert_poly_close(check, pe("exp(-x)"))

    def test_resonance(self):
        with pytest.raises(ResonanceError) as err:
            apply_implicit_inverse(pe("exp(x)"), c=1.0, order=2)
        assert err.value.lam == pytest.approx(1.0)

    def test_triangular_backsubstitution(self):
        # Degree-2 polynomial class: solution exists and satisfies the
        # operator identity exactly.
        g = pe("x^2 + 3*x - 1")
        w = apply_implicit_inverse(g, c=0.5, order=2)
        check = w.scale(1j) - w.diff("x", 2).scale(0.5j)
        assert_poly_close(check, g, 1e-12)

    def test_mixed_exponential_polynomial(self):
        g = pe("x*exp(-x)")
        w = apply_implicit_inverse(g, c=2.0, order=2)
        check = w.scale(1j) - w.diff("x", 2).scale(2j)
        assert_poly_close(check, g, 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["x", "x^2", "exp(-x)", "sin(x)", "x*exp(-x)", "x^3 - x"]),
           st.sampled_from([0.5, 2.0, -1.0, 3.0]),
           st.sampled_from([1, 2, 3]))
    def test_inverse_property(self, text, c, order):
        g = pe(text)
        try:
            w = apply_implicit_inverse(g, c=c, order=order)
        except ResonanceError:
            return
        check = w.scale(1j) - w.diff("x", order).scale(1j * c)
        assert_poly_close(check, g, 1e-10)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            apply_implicit_inverse(pe("x"), c=1.0, order=0)


class TestSeriesPower:
    def test_identity_row(self):
        table = PowersTable([pe("x"), pe("i*x")])
        assert table.entry(1, 1) == pe("i*x")

    def test_square_at_zero(self):
        table = PowersTable([pe("x + 1"), pe("x")])
        assert_poly_close(table.entry(2, 0), pe("(x+1)^2"))

    def test_square_at_one_against_oracle(self):
        coeffs = [pe("x"), pe("i*x")]
        table = PowersTable(list(coeffs))
        got = table.entry(2, 1)
        expected = brute_force_power_entry(coeffs, 2, 1)
        assert_poly_close(got, expected)
        assert_poly_close(got, pe("2*i*x^2"))

    def test_binomial_symmetry(self):
        coeffs = [pe("x"), pe("exp(-x)"), pe("sin(x)"), pe("x^2")]
        forward = ExpPoly.zero()
        backward = ExpPoly.zero()
        n = 3
        for j in range(n + 1):
            forward = forward + (coeffs[j] * coeffs[n - j]).scale(math.comb(n, j))
        for j in range(n, -1, -1):
            backward = backward + (coeffs[j] * coeffs[n - j]).scale(math.comb(n, j))
        table = PowersTable(list(coeffs))
        assert_poly_close(table.entry(2, n), forward)
        assert_poly_close(forward, backward, 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(exp_polys(max_atoms=2, max_power=2, n_vars=3),
                 min_size=3, max_size=5),
        st.integers(2, 4),
    )
    def test_against_brute_force_cauchy(self, coeffs, p):
        table = PowersTable(list(coeffs))
        n = len(coeffs) - 1
        got = table.entry(p, n)
        expected = brute_force_power_entry(coeffs, p, n)
        assert_poly_close(got, expected, 1e-9)


class TestRecursionStep:
    def test_rlw_first_step(self):
        table = PowersTable([pe("x")])
        w1 = recursion_step(rlw_problem(), table, 0)
        assert_poly_close(w1, pe("i*x"))

    def test_rlw_second_step(self):
        table = PowersTable([pe("x"), pe("i*x")])
        w2 = recursion_step(rlw_problem(), table, 1)
        assert_poly_close(w2, pe("-2*x"))

    def test_all_zero_coefficients(self):
        prob = EvolutionProblem(c=1.0, mixed_order=2, h=pe("sin(x)"))
        table = PowersTable([prob.h])
        assert recursion_step(prob, table, 0).is_zero()


class TestSolveSeries:
    def test_rlw_coefficients(self):
        series = solve_series(rlw_problem(), 5)
        for n, w in enumerate(series.coefficients):
            expected = pe("x").scale(math.factorial(n) * 1j**n)
            assert_poly_close(w, expected, 1e-10)

    def test_transport_coefficients(self):
        series = solve_series(transport_problem(), 5)
        for n, w in enumerate(series.coefficients):
            assert_poly_close(w, pe("exp(-x)").scale(1j**n), 1e-10)

    def test_fourth_order_coefficients(self):
        series = solve_series(fourth_order_problem(), 5)
        for n, w in enumerate(series.coefficients):
            assert_poly_close(w, pe("sin(x)").scale(1j**n), 1e-10)

    def test_zero_datum(self):
        prob = EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, h=ExpPoly.zero())
        series = solve_series(prob, 4)
        assert all(w.is_zero() for w in series.coefficients)

    def test_resonance_reports_step_and_class(self):
        prob = EvolutionProblem(a={1: 1.0}, c=1.0, mixed_order=2, h=pe("exp(x)"))
        with pytest.raises(ResonanceError) as err:
            solve_series(prob, 6)
        assert err.value.step == 1
        assert err.value.lam == pytest.approx(1.0)

    def test_overflow_reports_step(self, monkeypatch):
        import pdeseries.algebra as algebra
        from pdeseries import AtomBudgetError

        # Nonlinear sin-data problems widen the slope basis every step.
        monkeypatch.setattr(algebra, "MAX_ATOMS", 8)
        prob = EvolutionProblem(
            b={1: -0.5}, c=1.0, mixed_order=2, nonlin_exponent=1, h=pe("sin(x)")
        )
        with pytest.raises(AtomBudgetError) as err:
            solve_series(prob, 10)
        assert err.value.step is not None and err.value.step >= 1

    def test_linear_first_order_no_mixed_term(self):
        # u_t = u_x with u(x,0) = e^x: coefficients (-i)^n e^x resum to
        # the translated solution e^{x+t}.
        prob = EvolutionProblem(a={1: 1.0}, c=0.0, mixed_order=1, h=pe("exp(x)"))
        series = solve_series(prob, 8)
        cf = detect_closed_form(series)
        assert cf.kind == "exponential"
        assert_poly_close(cf.as_exppoly(), pe("exp(x+t)"), 1e-10)

    def test_recursion_identity_invariant(self):
        # i*w_{n+1} - i*c*d^i w_{n+1}  ==  sum a_m d^m w_n + sum b_m d^m w^{k+1}_n
        for prob in (rlw_problem(), transport_problem(), fourth_order_problem()):
            series = solve_series(prob, 8)
            table = PowersTable(list(series.coefficients))
            for n in range(8):
                w_next = series.coefficients[n + 1]
                lhs = w_next.scale(1j) - w_next.diff("x", prob.mixed_order).scale(
                    1j * prob.c
                )
                rhs = ExpPoly.zero()
                for m, a_m in prob.a.items():
                    rhs = rhs + series.coefficients[n].diff("x", m).scale(a_m)
                if prob.has_nonlinearity:
                    w_pow = table.entry(prob.nonlin_exponent + 1, n)
                    for m, b_m in prob.b.items():
                        rhs = rhs + w_pow.diff("x", m).scale(b_m)
                assert_poly_close(lhs, rhs, 1e-10, label=f"step {n}")

    def test_cubic_nonlinearity_identity(self):
        prob = EvolutionProblem(
            b={0: 0.25}, c=0.5, mixed_order=2, nonlin_exponent=2, h=pe("exp(-x)")
        )
        series = solve_series(prob, 5)
        table = PowersTable(list(series.coefficients))
        for n in range(5):
            w_next = series.coefficients[n + 1]
            lhs = w_next.scale(1j) - w_next.diff("x", 2).scale(0.5j)
            rhs = table.entry(3, n).scale(0.25)
            assert_poly_close(lhs, rhs, 1e-10, label=f"cubic step {n}")


class TestClosedForm:
    def test_rlw_geometric(self):
        cf = detect_closed_form(solve_series(rlw_problem(), 8))
        assert cf.kind == "geometric"
        assert cf.ratio == pytest.approx(1j)
        assert complex(cf.grid_fn()(1.0, 0, 0, 0.1)).real == pytest.approx(1 / 1.1)

    def test_transport_exponential(self):
        cf = detect_closed_form(solve_series(transport_problem(), 8))
        assert cf.kind == "exponential"
        assert cf.ratio == pytest.approx(1j)
        value = complex(cf.grid_fn()(0.3, 0, 0, 0.2)).real
        assert value == pytest.approx(math.exp(-0.2 - 0.3))

    def test_exponential_as_exppoly(self):
        cf = detect_closed_form(solve_series(fourth_order_problem(), 8))
        assert_poly_close(cf.as_exppoly(), pe("exp(-t)*sin(x)"), 1e-10)

    def test_non_pattern_returns_none(self):
        coeffs = (pe("x"), pe("x"), pe("-x"), pe("x"), pe("-x"), pe("x^2"))
        from pdeseries import SeriesSolution

        assert not detect_closed_form(SeriesSolution(coeffs))

    def test_needs_enough_evidence(self):
        from pdeseries import SeriesSolution

        coeffs = (pe("x"), pe("i*x"), ExpPoly.zero(), ExpPoly.zero())
        assert not detect_closed_form(SeriesSolution(coeffs))

    def test_constant_series(self):
        from pdeseries import SeriesSolution

        coeffs = (pe("5"), ExpPoly.zero(), ExpPoly.zero())
        cf = detect_closed_form(SeriesSolution(coeffs))
        assert cf.kind == "exponential" and cf.ratio == 0

    def test_closed_form_matches_partial_sums(self):
        # Order 12 is the default order precisely because the geometric
        # tail (~ t^13/(1-|t|)) first dips below 1e-8 there for |t| <= 0.2.
        rng = random.Random(11)
        for prob in (rlw_problem(), transport_problem(), fourth_order_problem()):
            series = solve_series(prob, 12)
            cf = detect_closed_form(series)
            assert cf
            closed_fn, partial = cf.grid_fn(), series.partial_sum(12)
            for _ in range(20):
                x, t = rng.uniform(-1, 1), rng.uniform(-0.2, 0.2)
                closed = complex(closed_fn(x, 0, 0, t))
                assert abs(closed - partial.evaluate((x, 0, 0, t))) < 1e-8


class TestPartialSums:
    def test_value_at_zero_is_datum(self):
        series = solve_series(rlw_problem(), 6)
        for x in (-1.0, 0.3, 0.9):
            value = series.partial_sum(6).evaluate((x, 0, 0, 0.0))
            assert value.real == pytest.approx(x)
            assert abs(value.imag) < 1e-12

    def test_rlw_value(self):
        series = solve_series(rlw_problem(), 10)
        value = series.partial_sum(10).evaluate((1.0, 0, 0, 0.1))
        assert value.real == pytest.approx(1 / 1.1, abs=2e-11)
        assert abs(value.imag) < 1e-10

    def test_fourth_order_value(self):
        series = solve_series(fourth_order_problem(), 12)
        value = series.partial_sum(12).evaluate((math.pi / 2, 0, 0, 0.5))
        assert value.real == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_partial_sum_poly_matches_eval(self):
        series = solve_series(transport_problem(), 6)
        total = series.partial_sum(6)
        # Direct sum of (i t)^n / n! * w_n(x) against the single ExpPoly.
        for x, t in ((0.2, 0.1), (-0.5, 0.15)):
            direct = sum(
                (1j * t) ** n / math.factorial(n) * w.evaluate((x, 0, 0, 0))
                for n, w in enumerate(series.coefficients)
            )
            assert total.evaluate((x, 0, 0, t)) == pytest.approx(direct)

    def test_residual_decays_with_order(self):
        # Around (x, t) = (0.5, 0.1) the PDE defect of the order-N sum
        # must decrease with N until it hits the FD noise floor.
        cases = [
            (rlw_problem(), 1e-3),
            (transport_problem(), 1e-3),
            (fourth_order_problem(), 5e-3),  # 4th-derivative stencil noise
        ]
        for prob, hx in cases:
            grid = GridSpec(
                ranges={"x": (0.45, 0.55, 3), "t": (0.09, 0.11, 3)}, hx=hx
            )
            series = solve_series(prob, 8)
            values = []
            for order in range(2, 9):
                u = series.partial_sum(order).grid_fn()
                values.append(fd_residual_evolution(u, prob, grid).max_abs)
            floor = values[-1]
            for prev, nxt in zip(values, values[1:]):
                if prev > 50 * floor:
                    assert nxt < prev
