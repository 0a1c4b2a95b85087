import math

import numpy as np
import pytest

from pdeseries import (
    EvolutionProblem,
    GridSpec,
    detect_closed_form,
    fd_residual_evolution,
    fd_residual_heat,
    parse_expression as pe,
    solve_series,
    stencil,
)


class TestStencils:
    def test_first_and_second(self):
        assert stencil(1) == {-1: -0.5, 1: 0.5}
        assert stencil(2) == {-1: 1.0, 0: -2.0, 1: 1.0}

    def test_composition_third_fourth(self):
        assert stencil(3) == {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}
        assert stencil(4) == {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_accuracy(self, order):
        # Apply to exp(x) at 0: every derivative is 1.
        h = 1e-2 if order <= 2 else 5e-2
        total = sum(w * math.exp(o * h) for o, w in stencil(order).items())
        assert total / h**order == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_second_order_convergence(self, order):
        # Halving h divides the truncation error by about 4.
        def err(h):
            total = sum(w * math.sin(1.0 + o * h) for o, w in stencil(order).items())
            exact = [math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.sin][
                order - 1
            ](1.0)
            return abs(total / h**order - exact)

        h = 0.1
        ratio = err(h) / err(h / 2)
        assert 3.3 < ratio < 4.7


class TestGridSpec:
    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            GridSpec(ranges={"x": (0.0, 1.0, 2)})

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            GridSpec(hx=0.0)

    def test_meshes_fix_absent_variables(self):
        grid = GridSpec(ranges={"x": (-1.0, 1.0, 3)})
        X, Y, Z, T = grid.meshes()
        assert np.all(Y == 0) and np.all(Z == 0) and np.all(T == 0)
        assert X.shape == (3,)


class TestEvolutionResidual:
    def test_rlw_closed_form(self):
        prob = EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, h=pe("x"))
        cf = detect_closed_form(solve_series(prob, 8))
        grid = GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.2, 11)})
        report = fd_residual_evolution(cf.grid_fn(), prob, grid)
        assert report.max_abs < 1e-6
        assert report.rms <= report.max_abs

    def test_transport_closed_form(self):
        prob = EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)"))
        cf = detect_closed_form(solve_series(prob, 8))
        report = fd_residual_evolution(cf.grid_fn(), prob)
        assert report.max_abs < 1e-6

    def test_zero_candidate_zero_residual(self):
        prob = EvolutionProblem(a={2: 1.0}, c=1.0, mixed_order=2, h=pe("0"))
        u = lambda X, Y, Z, T: np.zeros(np.broadcast(X, T).shape)
        report = fd_residual_evolution(u, prob)
        assert report.max_abs == 0.0

    def test_wrong_candidate_caught(self):
        # e^{-x} does not solve the transport example; the residual is O(1).
        prob = EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)"))
        report = fd_residual_evolution(pe("exp(-x)").grid_fn(), prob)
        assert report.max_abs > 0.1

    def test_worst_point_is_reported(self):
        prob = EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)"))
        report = fd_residual_evolution(pe("exp(-x)").grid_fn(), prob)
        # residual magnitude of d/dx e^{-x} grows to the left
        assert report.worst_point[0] == pytest.approx(-1.0)


class TestHeatResidual:
    def test_exact_eigen_solution(self):
        a2 = 0.4
        u = pe("exp(-1.2*t)*sin(x)*sin(y)*sin(z)")  # eigenvalue -3
        grid = GridSpec(
            ranges={"x": (-1, 1, 7), "y": (-1, 1, 7), "z": (-1, 1, 7), "t": (0.05, 0.25, 7)}
        )
        report = fd_residual_heat(u.grid_fn(), a2, grid)
        assert report.max_abs < 1e-5

    def test_constant(self):
        u = lambda X, Y, Z, T: np.ones(np.broadcast(X, T).shape)
        grid = GridSpec(ranges={"x": (-1, 1, 5), "t": (0.05, 0.25, 5)})
        report = fd_residual_heat(u, 1.0, grid)
        assert report.max_abs < 1e-12

    def test_paper_flow_component(self):
        nu = 0.25
        u = pe("exp(-0.5*t)*cos(y)*cos(z)")
        grid = GridSpec(
            ranges={"y": (-1, 1, 9), "z": (-1, 1, 9), "t": (0.05, 0.25, 9)}
        )
        report = fd_residual_heat(u.grid_fn(), nu, grid)
        assert report.max_abs < 1e-5

    def test_stencil_convergence_on_residual(self):
        u = pe("exp(-t)*sin(x)")
        reports = []
        for h in (4e-2, 2e-2):
            grid = GridSpec(ranges={"x": (-1, 1, 5), "t": (0.05, 0.25, 5)}, hx=h, ht=h)
            reports.append(fd_residual_heat(u.grid_fn(), 1.0, grid))
        ratio = reports[0].max_abs / reports[1].max_abs
        assert 3.3 < ratio < 4.7


def _counted(fn):
    """fn, recording the arguments of every call."""
    calls = []

    def u(*coords):
        calls.append(coords)
        return fn(*coords)

    return u, calls


class TestEvaluationCount:
    """The candidate is evaluated once per distinct mesh."""

    def test_heat(self):
        # The unshifted mesh, two t-shifts and two shifts per x, y, z.
        u, calls = _counted(pe("exp(-1.2*t)*sin(x)*sin(y)*sin(z)").grid_fn())
        grid = GridSpec(
            ranges={"x": (-1, 1, 4), "y": (-1, 1, 4), "z": (-1, 1, 4), "t": (0.05, 0.25, 4)}
        )
        fd_residual_heat(u, 0.4, grid)
        assert len(calls) == 9

    def test_evolution_even_orders(self):
        # The unshifted mesh, two t-shifts, two x-shifts shared by the
        # a.2 and b.2 terms, and the four corners of the mixed term.
        prob = EvolutionProblem(a={2: 1.0}, b={2: -0.5}, c=0.5, mixed_order=2, h=pe("x"))
        u, calls = _counted(pe("x + t").grid_fn())
        fd_residual_evolution(u, prob)
        assert len(calls) == 9


class TestInitialCheck:
    """At t = 0 a partial sum is its datum w_0, on every grid point."""

    @staticmethod
    def max_initial_defect(u, datum, ranges):
        mesh = GridSpec(ranges=ranges).meshes()
        return float(np.max(np.abs(u.grid_fn()(*mesh) - datum.grid_fn()(*mesh))))

    def test_series_matches_datum_exactly(self):
        prob = EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, h=pe("x"))
        series = solve_series(prob, 8)
        defect = self.max_initial_defect(
            series.partial_sum(8), pe("x"), {"x": (-1.0, 1.0, 21)}
        )
        assert defect == 0.0

    def test_heat_order_zero(self):
        from pdeseries import HeatProblem, heat_series

        u0 = pe("sin(x)*cos(y)")
        series = heat_series(HeatProblem(1.0, u0), 4)
        defect = self.max_initial_defect(
            series.partial_sum(0), u0, {"x": (-1, 1, 5), "y": (-1, 1, 5)}
        )
        assert defect < 1e-14
