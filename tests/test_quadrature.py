import math
import tracemalloc

import numpy as np
import pytest

from pdeseries import (
    ExpPoly,
    QuadratureSettings,
    RadialPotential,
    VectorField,
    inverse_laplacian_quadrature,
    inverse_laplacian_symbolic,
    parse_expression as pe,
    solve_flow,
    FlowProblem,
    FlowSolution,
)

# Probe points sit well inside [-pi, pi]^3 with |sin x| bounded away
# from zero so relative error is meaningful.
PROBES = [
    (0.5, 0.2, -0.3),
    (1.0, -0.8, 0.6),
    (-1.2, 1.0, 0.4),
    (0.8, 0.0, 0.0),
    (-0.6, -0.5, 1.1),
]

FAST = QuadratureSettings(n_space=32, n_tau=24, horizon=6.0)


class TestStandardMode:
    def test_reproduces_symbolic_sine(self):
        symbolic = inverse_laplacian_symbolic(pe("sin(x)"))
        values = inverse_laplacian_quadrature(pe("sin(x)"), PROBES)
        for point, got in zip(PROBES, values):
            want = symbolic.evaluate((*point, 0.0)).real
            assert abs(got.real - want) <= 3e-2 * abs(want)
            assert abs(got.imag) < 1e-10

    def test_zero_field(self):
        values = inverse_laplacian_quadrature(ExpPoly.zero(), PROBES, settings=FAST)
        assert np.allclose(values, 0.0)

    def test_time_slice_enters(self):
        # v = e^{-t} sin x at t: the answer scales by e^{-t}.
        v = pe("exp(-t)*sin(x)")
        base = inverse_laplacian_quadrature(v, PROBES[:2], t=0.0, settings=FAST)
        later = inverse_laplacian_quadrature(v, PROBES[:2], t=0.5, settings=FAST)
        for b, l in zip(base, later):
            assert l.real == pytest.approx(b.real * math.exp(-0.5), rel=1e-6)


class TestLiteralMode:
    def test_kernel_scaling(self):
        # For v = sin x the exact whole-space value of the literal kernel
        # is (1/2) (1 - e^{-T/4}) sin x: the narrower kernel integrates
        # to 1/8 of the normalized one and decays as e^{-tau/4}.
        settings = QuadratureSettings()
        values = inverse_laplacian_quadrature(
            pe("sin(x)"), PROBES, settings=settings, mode="paper_literal"
        )
        factor = 0.5 * (1 - math.exp(-settings.horizon / 4))
        for point, got in zip(PROBES, values):
            want = factor * math.sin(point[0])
            assert abs(got.real - want) <= 5e-2 * abs(want)

    def test_sign_differs_from_standard(self):
        std = inverse_laplacian_quadrature(pe("sin(x)"), PROBES[:1], settings=FAST)
        lit = inverse_laplacian_quadrature(
            pe("sin(x)"), PROBES[:1], settings=FAST, mode="paper_literal"
        )
        assert std[0].real * lit[0].real < 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            inverse_laplacian_quadrature(pe("sin(x)"), PROBES[:1], mode="bogus")


class TestVelocitySamples:
    def test_matches_symbolic_chain(self):
        # psi = (0, 0, sin x): u = (0, -cos x, 0) symbolically.
        psi = VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("sin(x)"))
        pts = [(0.4, 0.1, -0.2), (-0.9, 0.5, 0.3)]
        samples = FlowSolution(FlowProblem(0.1), psi).velocity_at(
            pts, settings=QuadratureSettings()
        )
        for (x, _, _), row in zip(pts, samples):
            assert abs(row[0].real) < 3e-2
            assert row[1].real == pytest.approx(-math.cos(x), abs=4e-2)
            assert abs(row[2].real) < 3e-2

    def test_potential_gradient_added(self):
        psi = VectorField.zero()
        pts = [(1.0, 1.0, 1.0)]
        t_val = 0.5
        samples = FlowSolution(
            FlowProblem(0.1, potential=RadialPotential()), psi
        ).velocity_at(pts, t=t_val, settings=FAST)
        r3 = 3.0 ** 1.5
        expect = -t_val / r3
        for comp in range(3):
            assert samples[0][comp].real == pytest.approx(expect, abs=1e-12)

    def test_exppoly_potential_gradient_added(self):
        # phi = x*y is harmonic; its gradient (y, x, 0) is added exactly.
        psi = VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("sin(x)"))
        pts = [(0.5, 0.2, -0.3), (-0.4, 0.9, 0.1)]
        with_phi = FlowSolution(FlowProblem(0.1, potential=pe("x*y")), psi).velocity_at(
            pts, t=0.3, settings=FAST
        )
        without = FlowSolution(FlowProblem(0.1), psi).velocity_at(
            pts, t=0.3, settings=FAST
        )
        for (x, y, _), row in zip(pts, with_phi - without):
            assert np.abs(row - (y, x, 0.0)).max() < 1e-12

    def test_flow_solution_sampling(self):
        prob = FlowProblem(
            viscosity=0.1,
            curl_u0=VectorField(ExpPoly.zero(), ExpPoly.zero(), pe("sin(x)")),
        )
        sol = solve_flow(prob)
        pts = [(0.5, 0.0, 0.0)]
        t_val = 0.4
        samples = sol.velocity_at(pts, t=t_val, settings=QuadratureSettings())
        want = -math.exp(-0.1 * t_val) * math.cos(0.5)
        assert samples[0][1].real == pytest.approx(want, abs=4e-2)

    @pytest.mark.parametrize("mode", ["standard", "paper_literal"])
    @pytest.mark.parametrize(
        "text, values",
        [
            ("exp(x+y+z)", lambda X, Y, Z, t: np.exp(X + Y + Z)),
            (
                "(1 + 2*i)*exp(i*x - t)*cos(y) + t^2*z*exp(y)",
                lambda X, Y, Z, t: (1 + 2j) * np.exp(1j * X - t) * np.cos(Y)
                + t**2 * Z * np.exp(Y),
            ),
            (
                "t*exp(-t)*x^2*y^3*z*exp(0.5*z - x)*cos(z)",
                lambda X, Y, Z, t: t * np.exp(-t) * X**2 * Y**3 * Z
                * np.exp(0.5 * Z - X) * np.cos(Z),
            ),
        ],
        ids=["growing", "complex-t", "powers-xyz-t"],
    )
    def test_formula_transcription_on_growing_data(self, text, values, mode):
        # For vorticity data that grows on the box the kernel identity is
        # only formal; the samples must still equal the double integral
        # exactly as written. Cross-check against a direct dense
        # re-implementation of the tensor-product midpoint rule, at
        # points between nodes, on a node (0.1, -0.3, 0.5) and outside
        # the box.
        settings = QuadratureSettings(box=(-1.0, 1.0), horizon=0.5,
                                      n_space=10, n_tau=8)
        tau_min = 1e-4  # lower end of the tau integral
        points = [(0.2, -0.1, 0.3), (0.1, -0.3, 0.5), (-0.75, 0.42, 0.05),
                  (1.5, 0.2, -1.4)]
        t = 0.3
        got = inverse_laplacian_quadrature(
            pe(text), points, t=t, settings=settings, mode=mode
        )

        lo, hi = settings.box
        h = (hi - lo) / settings.n_space
        axis = lo + (np.arange(settings.n_space) + 0.5) * h
        X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
        V = values(X, Y, Z, t)
        edges = tau_min * (settings.horizon / tau_min) ** (
            np.arange(settings.n_tau + 1) / settings.n_tau
        )
        for point, value in zip(points, got):
            total = 0j
            r2 = (X - point[0]) ** 2 + (Y - point[1]) ** 2 + (Z - point[2]) ** 2
            for k in range(settings.n_tau):
                tau = 0.5 * (edges[k] + edges[k + 1])
                w = edges[k + 1] - edges[k]
                if mode == "standard":
                    kern = (4 * math.pi * tau) ** -1.5 * np.exp(-r2 / (4 * tau))
                else:
                    kern = (4 * math.pi * tau) ** -1.5 * np.exp(-r2 / tau)
                total += w * np.sum(kern * V) * h**3
            want = -total if mode == "standard" else total
            assert value == pytest.approx(want, rel=1e-12)


class TestQuadratureWork:
    # Data with powers and exponentials on every axis and in time.
    DATA = "t*x^2*exp(y)*sin(y)*cos(z) + (1 + 2*i)*exp(i*x - t)*z^3"

    def test_never_evaluates_a_3d_grid(self, monkeypatch):
        # Every evaluation of the data goes through grid_fn and returns
        # at most one axis of midpoints, never the n_space^3 grid.
        settings = QuadratureSettings()
        sizes = []
        grid_fn = ExpPoly.grid_fn

        def counting_grid_fn(poly):
            fn = grid_fn(poly)

            def wrapped(*args):
                values = fn(*args)
                sizes.append(np.size(values))
                return values

            return wrapped

        monkeypatch.setattr(ExpPoly, "grid_fn", counting_grid_fn)
        inverse_laplacian_quadrature(pe(self.DATA), PROBES, t=0.3, settings=settings)
        assert sizes
        assert max(sizes) <= settings.n_space

    def test_memory_does_not_grow_with_points(self):
        # Work memory per point is fixed: the peak is small and the same
        # for 4 and for 400 query points.
        v = pe(self.DATA)
        rng = np.random.default_rng(0)
        peaks = []
        for count in (4, 400):
            points = rng.uniform(-2.0, 2.0, size=(count, 3))
            tracemalloc.start()
            try:
                inverse_laplacian_quadrature(v, points, t=0.3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1_000_000
        assert max(peaks) <= 1.1 * min(peaks)
