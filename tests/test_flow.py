import math
import random

import numpy as np
import pytest

from pdeseries import (
    ExpPoly,
    FlowProblem,
    FlowSolution,
    NonEigenAtomError,
    PotentialSingularityError,
    RadialPotential,
    VectorField,
    ZeroEigenvalueError,
    curl,
    divergence,
    duhamel_particular,
    eigenvalue,
    gradient,
    heat_semigroup,
    inverse_laplacian_symbolic,
    laplacian,
    parse_expression as pe,
    solve_flow,
)
from helpers import assert_poly_close, eigen_poly_samples, poly_close


NU = 0.1
# Spatial sample points in [-1, 1]^3 for pointwise checks at t = 0.
SPACE = np.meshgrid(*[np.linspace(-1.0, 1.0, 5)] * 3, indexing="ij")


def paper_flow_problem(**overrides):
    kwargs = dict(
        viscosity=NU,
        curl_u0=VectorField(pe("cos(y)*cos(z)"), pe("sin(x-y-z)"), pe("exp(x+y+z)")),
        curl_f=VectorField(pe("t*cos(x)"), pe("exp(t)"), pe("t*z*sin(x)")),
        potential=RadialPotential(),
        reference=(2.0, 0.0, 0.0, 0.0),
        p0=5.0,
    )
    kwargs.update(overrides)
    return FlowProblem(**kwargs)


def pressure_at(problem, query):
    # The pressure depends on the problem data only, not on psi.
    return FlowSolution(problem, VectorField.zero()).pressure_at(query)


def vorticity_homogeneous(field, nu):
    # The homogeneous part of the vorticity, as solve_flow forms it.
    return field.map(lambda comp: heat_semigroup(comp, nu))


class TestVorticityHomogeneous:
    def test_three_component_example(self):
        field = VectorField(pe("cos(y)*cos(z)"), pe("sin(x-y-z)"), pe("exp(x+y+z)"))
        out = vorticity_homogeneous(field, NU)
        assert_poly_close(out.cx, pe("exp(-0.2*t)*cos(y)*cos(z)"), 1e-10)
        assert_poly_close(out.cy, pe("exp(-0.3*t)*sin(x-y-z)"), 1e-10)
        assert_poly_close(out.cz, pe("exp(0.3*t)*exp(x+y+z)"), 1e-10)

    def test_zero_field(self):
        assert vorticity_homogeneous(VectorField.zero(), NU).is_zero()

    def test_single_sine_component(self):
        out = vorticity_homogeneous(
            VectorField(pe("sin(x)"), ExpPoly.zero(), ExpPoly.zero()), NU
        )
        assert_poly_close(out.cx, pe("exp(-0.1*t)*sin(x)"), 1e-12)
        # Independent resummation oracle: sum (nu t)^n lam^n / n! = e^{lam nu t}
        t_val = 0.7
        series_value = sum(
            (NU * t_val * -1.0) ** n / math.factorial(n) for n in range(30)
        )
        got = out.cx.evaluate((0.4, 0, 0, t_val)).real
        assert got == pytest.approx(series_value * math.sin(0.4))


class TestDuhamel:
    def test_polynomial_forcing(self):
        out = duhamel_particular(
            VectorField(pe("t*cos(x)"), ExpPoly.zero(), ExpPoly.zero()), NU
        )
        expected = pe("100*(-1 + 0.1*t + exp(-0.1*t))*cos(x)")
        assert_poly_close(out.cx, expected, 1e-9)

    def test_exponential_forcing(self):
        out = duhamel_particular(
            VectorField(ExpPoly.zero(), pe("exp(t)"), ExpPoly.zero()), NU
        )
        assert_poly_close(out.cy, pe("exp(t) - 1"), 1e-12)

    def test_zero_forcing(self):
        assert duhamel_particular(VectorField.zero(), NU).is_zero()

    def test_vanishes_at_time_zero(self):
        field = VectorField(pe("t*cos(x)"), pe("exp(t)*sin(y)"), pe("t^2*exp(z)"))
        out = duhamel_particular(field, 0.3)
        X, Y, Z = SPACE
        for comp in out.components():
            assert np.abs(comp.grid_fn()(X, Y, Z, 0.0)).max() <= 1e-12

    def test_solves_forced_heat_equation(self):
        field = VectorField(pe("t*cos(x)"), pe("exp(t)*sin(y)"), pe("t^2*exp(z)"))
        nu = 0.45
        out = duhamel_particular(field, nu)
        for comp, force in zip(out.components(), field.components()):
            residual = comp.diff("t") - laplacian(comp).scale(nu) - force
            assert poly_close(residual, ExpPoly.zero(), 1e-9)

    def test_against_quadrature_oracle(self):
        # integral_0^t e^{mu (t-s)} s^m e^{rho s} ds via scipy, for atoms
        # covering the degenerate (sigma = 0) and generic branches.
        from scipy.integrate import quad

        nu = 0.6
        cases = [
            ("t*cos(x)", 1, 0.0, -1.0),       # m=1, rho=0, lam2=-1
            ("exp(t)", 0, 1.0, 0.0),          # m=0, rho=1, lam2=0
            ("t^2*sin(y)", 2, 0.0, -1.0),
            ("exp(-0.6*t)", 0, -nu, 0.0),     # resonant sigma = 0... only if lam2=0
        ]
        for text, m, rho, lam2 in cases:
            comp = pe(text)
            out = duhamel_particular(
                VectorField(comp, ExpPoly.zero(), ExpPoly.zero()), nu
            ).cx
            mu = nu * lam2
            for t_val in (0.3, 1.1):
                def integrand(s):
                    return math.exp(mu * (t_val - s)) * s**m * math.exp(rho * s)

                want, _ = quad(integrand, 0.0, t_val)
                point = (0.35, 0.8, 0.0, t_val)
                spatial_val = {
                    "t*cos(x)": math.cos(0.35),
                    "exp(t)": 1.0,
                    "t^2*sin(y)": math.sin(0.8),
                    "exp(-0.6*t)": 1.0,
                }[text]
                got = out.evaluate(point).real
                assert got == pytest.approx(want * spatial_val, rel=1e-9, abs=1e-12)

    def test_sigma_zero_branch(self):
        # Forcing e^{-nu t} sin(x) has rho = -nu equal to mu = nu*(-1):
        # the integral degenerates to t * e^{mu t}.
        nu = 0.5
        out = duhamel_particular(
            VectorField(pe("exp(-0.5*t)*sin(x)"), ExpPoly.zero(), ExpPoly.zero()), nu
        ).cx
        assert_poly_close(out, pe("t*exp(-0.5*t)*sin(x)"), 1e-12)

    def test_non_eigen_spatial_part_rejected(self):
        with pytest.raises(NonEigenAtomError):
            duhamel_particular(
                VectorField(pe("t*x^2"), ExpPoly.zero(), ExpPoly.zero()), NU
            )


class TestInverseLaplacianSymbolic:
    def test_sine(self):
        assert_poly_close(inverse_laplacian_symbolic(pe("sin(x)")), pe("-sin(x)"))

    def test_exponential(self):
        out = inverse_laplacian_symbolic(pe("exp(x+y+z)"))
        assert_poly_close(out, pe("exp(x+y+z)").scale(1 / 3), 1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ZeroEigenvalueError):
            inverse_laplacian_symbolic(pe("5"))

    def test_harmonic_monomial_rejected(self):
        with pytest.raises(ZeroEigenvalueError):
            inverse_laplacian_symbolic(pe("x"))

    def test_round_trip_identity(self):
        rng = random.Random(9)
        samples = [s for s in eigen_poly_samples()
                   if all(abs(eigenvalue(a)) > 1e-12 for a in s.atoms)]
        for trial in range(25):
            v = samples[trial % len(samples)].scale(rng.uniform(0.5, 2.0))
            inv = inverse_laplacian_symbolic(v)
            assert poly_close(laplacian(inv), v, 1e-12)


class TestVelocityAssembly:
    def test_pure_potential(self):
        u = FlowSolution(
            FlowProblem(NU, potential=pe("x*y*z")), VectorField.zero()
        ).velocity_symbolic()
        assert_poly_close(u.cx, pe("y*z"))
        assert_poly_close(u.cy, pe("x*z"))
        assert_poly_close(u.cz, pe("x*y"))

    def test_divergence_free_and_poisson(self):
        psi = VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("exp(-0.1*t)*sin(x)"))
        u = FlowSolution(FlowProblem(NU), psi).velocity_symbolic()
        assert divergence(u).is_zero()
        # Lap(u) == -curl(psi) when no potential part is present
        neg_curl = curl(psi).scale(-1.0)
        for uc, cc in zip(u.components(), neg_curl.components()):
            assert poly_close(laplacian(uc), cc, 1e-12)

    def test_radial_potential_needs_pointwise_path(self):
        psi = VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("sin(x)"))
        with pytest.raises(ValueError):
            FlowSolution(
                FlowProblem(NU, potential=RadialPotential()), psi
            ).velocity_symbolic()

    def test_harmonic_vorticity_rejected_symbolically(self):
        psi = VectorField(pe("exp(t)"), ExpPoly.zero(), ExpPoly.zero())
        with pytest.raises(ZeroEigenvalueError):
            FlowSolution(FlowProblem(NU), psi).velocity_symbolic()


class TestPressure:
    def test_paper_values(self):
        prob = paper_flow_problem()
        got = pressure_at(prob, (1.0, 1.0, 1.0, 0.4))
        assert got == pytest.approx(5 + 0.5 - 1 / math.sqrt(3), abs=1e-12)

    def test_query_at_reference(self):
        prob = paper_flow_problem()
        assert pressure_at(prob, prob.reference) == pytest.approx(prob.p0)

    def test_no_potential_constant_pressure(self):
        prob = paper_flow_problem(potential=ExpPoly.zero())
        for q in ((1, 1, 1, 0), (0.2, -0.4, 0.8, 1.0)):
            assert pressure_at(prob, q) == pytest.approx(5.0)

    def test_singularity(self):
        prob = paper_flow_problem()
        with pytest.raises(PotentialSingularityError):
            pressure_at(prob, (0.0, 0.0, 0.0, 0.0))

    def test_gauge_invariance_constant_shift(self):
        # Adding a constant to an ExpPoly potential leaves pressure alone.
        base = pe("x*y*z")
        q = (0.7, -0.3, 0.5, 0.2)
        p1 = pressure_at(paper_flow_problem(potential=base), q)
        p2 = pressure_at(paper_flow_problem(potential=base + pe("11")), q)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_reference_shift_consistency(self):
        # Moving the reference while re-measuring p0 there leaves every
        # query value unchanged.
        prob = paper_flow_problem()
        new_ref = (1.5, 0.5, -0.5, 0.3)
        p0_new = pressure_at(prob, new_ref)
        moved = paper_flow_problem(reference=new_ref, p0=p0_new)
        for q in ((1, 1, 1, 0.2), (0.4, 0.9, -1.2, 0.8), (2.5, 0.1, 0.1, 0.0)):
            want = pressure_at(prob, q)
            assert pressure_at(moved, q) == pytest.approx(want, abs=1e-12)

    def test_force_term_enters_symbolically(self):
        f = VectorField(pe("sin(x)"), ExpPoly.zero(), ExpPoly.zero())
        prob = paper_flow_problem(potential=ExpPoly.zero(), f=f)
        # div(invLap f) = d/dx(-sin x) = -cos x
        q = (0.6, 0.0, 0.0, 0.0)
        expect = 5.0 - (-math.cos(2.0)) + (-math.cos(0.6))
        assert pressure_at(prob, q) == pytest.approx(expect, abs=1e-12)


class TestSolveFlow:
    def test_paper_psi_componentwise(self):
        sol = solve_flow(paper_flow_problem())
        expected = (
            pe("exp(-0.2*t)*cos(y)*cos(z) + 100*(-1 + 0.1*t + exp(-0.1*t))*cos(x)"),
            pe("exp(-0.3*t)*sin(x-y-z) + exp(t) - 1"),
            pe("exp(0.3*t + x + y + z) + 100*(-1 + 0.1*t + exp(-0.1*t))*z*sin(x)"),
        )
        for got, want in zip(sol.psi.components(), expected):
            assert poly_close(got, want, 1e-10)

    def test_paper_curl_psi(self):
        sol = solve_flow(paper_flow_problem())
        expected = (
            pe("exp(0.3*t + x + y + z) + exp(-0.3*t)*cos(x-y-z)"),
            pe("-exp(0.3*t + x + y + z) - exp(-0.2*t)*cos(y)*sin(z)"
               " - 100*(-1 + 0.1*t + exp(-0.1*t))*z*cos(x)"),
            pe("exp(-0.2*t)*sin(y)*cos(z) + exp(-0.3*t)*cos(x-y-z)"),
        )
        for got, want in zip(sol.curl_psi.components(), expected):
            assert poly_close(got, want, 1e-10)

    def test_curl_psi_computed_once(self, monkeypatch):
        # velocity_at runs once per time slice; the curl of psi is taken
        # once per solution, not once per call.
        import pdeseries.flow as flow

        calls = []

        def counting_curl(field):
            calls.append(field)
            return curl(field)

        monkeypatch.setattr(flow, "curl", counting_curl)
        sol = solve_flow(FlowProblem(
            NU, curl_u0=VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("sin(x)"))
        ))
        settings = flow.QuadratureSettings(n_space=4, n_tau=2)
        first = sol.velocity_at([(0.5, 0.0, 0.0)], t=0.1, settings=settings)
        second = sol.velocity_at([(0.5, 0.0, 0.0)], t=0.1, settings=settings)
        assert len(calls) == 1
        assert np.array_equal(first, second)

    def test_psi_solves_vorticity_equation(self):
        prob = paper_flow_problem()
        sol = solve_flow(prob)
        for comp, force in zip(sol.psi.components(), prob.curl_f.components()):
            residual = comp.diff("t") - laplacian(comp).scale(NU) - force
            assert poly_close(residual, ExpPoly.zero(), 1e-10)

    def test_initial_vorticity(self):
        sol = solve_flow(paper_flow_problem())
        X, Y, Z = SPACE
        for got, want in zip(sol.psi.components(), sol.problem.curl_u0.components()):
            np.testing.assert_allclose(
                got.grid_fn()(X, Y, Z, 0.0), want.grid_fn()(X, Y, Z, 0.0),
                rtol=1e-10, atol=1e-10,
            )

    def test_zero_data_flow(self):
        prob = FlowProblem(viscosity=0.2, p0=3.5)
        sol = solve_flow(prob)
        assert sol.psi.is_zero()
        assert sol.curl_psi.is_zero()
        u = sol.velocity_symbolic()
        assert u.is_zero()
        assert sol.pressure_at((1.0, 2.0, 3.0, 0.5)) == pytest.approx(3.5)

    def test_from_velocity_checks_divergence(self):
        with pytest.raises(ValueError):
            FlowProblem.from_velocity(0.1, VectorField(pe("x"), ExpPoly.zero(), ExpPoly.zero()))
        prob = FlowProblem.from_velocity(
            0.1, VectorField(pe("sin(y)"), ExpPoly.zero(), ExpPoly.zero())
        )
        assert_poly_close(prob.curl_u0.cz, pe("-cos(y)"))

    def test_none_potential_rejected(self):
        with pytest.raises(TypeError):
            FlowProblem(NU, potential=None)
        with pytest.raises(TypeError):
            FlowProblem(NU, f=None)

    def test_harmonic_potential_validated(self):
        with pytest.raises(ValueError):
            paper_flow_problem(potential=pe("x^2"))

    def test_symbolic_velocity_incompressible_when_available(self):
        prob = FlowProblem(
            viscosity=0.3,
            curl_u0=VectorField(pe("sin(y)"), pe("sin(z)"), pe("sin(x)")),
            potential=pe("x*y*z"),
        )
        sol = solve_flow(prob)
        u = sol.velocity_symbolic()
        assert divergence(u).is_zero()
        # Poisson consistency for the curl part (subtract the potential part)
        grad_phi = gradient(pe("x*y*z"))
        for uc, gc, cc in zip(
            u.components(), grad_phi.components(), sol.curl_psi.components()
        ):
            assert poly_close(laplacian(uc - gc), cc.scale(-1.0), 1e-10)
