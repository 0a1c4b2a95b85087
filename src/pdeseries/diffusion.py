"""Series and closed-form solvers for the constant-coefficient heat
equation u_t = a^2 * Laplacian(u), plus the radial-ball reduction.

The series coefficients obey w_{k+1} = -i * a^2 * Laplacian(w_k), so
u = sum (i t)^k / k! * w_k = sum (a^2 t)^k / k! * Laplacian^k(u_0).
On eigen-atoms the sum collapses to the exact heat semigroup
(:func:`pdeseries.algebra.heat_semigroup`).

The ball problem (temperature T(r, t) of a homogeneous ball) reduces to
the 1-D heat equation for V = r*T; r is carried in the x variable slot,
so the ball series is the heat series of V0. The returned solution
presents T = V/r at evaluation and display level, since 1/r is outside
the atom algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ExpPoly, laplacian
from .series import ClosedForm, SeriesSolution, detect_closed_form

IMAG = 1j


@dataclass(frozen=True)
class HeatProblem:
    diffusivity: float
    u0: ExpPoly

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ValueError("diffusivity must be positive")
        if self.u0.depends_on("t"):
            raise ValueError("initial datum must not depend on t")


def heat_series(problem: HeatProblem, nmax: int = 12) -> SeriesSolution:
    """Coefficients w_k = (-i a^2 Laplacian)^k applied to the datum."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    coeffs = [problem.u0]
    for _ in range(nmax):
        coeffs.append(laplacian(coeffs[-1]).scale(-IMAG * problem.diffusivity))
    return SeriesSolution(tuple(coeffs))


def growth_flag(series: SeriesSolution) -> bool:
    """Heuristic check that |w_k| stays within k! * C^k growth.

    The geometric-rate estimates (|w_k| / k!)^(1/k) are bounded exactly
    when the coefficients obey such a bound; a persistent upward trend
    in the tail flags the series as growing too fast for the expansion
    to be trusted.
    """
    rates = []
    for k, w in enumerate(series.coefficients):
        mag = w.max_abs_coeff()
        if k == 0 or mag == 0:
            continue
        rates.append((mag / math.factorial(k)) ** (1.0 / k))
    if len(rates) < 4:
        return False
    window = rates[-max(3, len(rates) // 2):]
    increasing = all(b > a * 1.02 for a, b in zip(window, window[1:]))
    return increasing and rates[-1] > rates[0]


@dataclass(frozen=True)
class BallProblem:
    """Radial heat conduction in a ball; r lives in the x slot.

    Initial data may be given as the temperature T0(r) when that is
    representable, or directly as V0 = r*T0(r) (e.g. sin(k*r) data whose
    T0 has a 1/r factor). Optional radius and boundary coefficient are
    recorded for the boundary diagnostic only; the series construction
    uses the initial datum alone.
    """

    diffusivity: float
    v0: ExpPoly
    radius: float | None = None
    boundary_coeff: float | None = None

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ValueError("diffusivity must be positive")
        for var in ("y", "z", "t"):
            if self.v0.depends_on(var):
                raise ValueError(f"radial datum must not depend on {var}")

    @staticmethod
    def from_temperature(
        diffusivity: float, t0: ExpPoly, radius=None, boundary_coeff=None
    ) -> "BallProblem":
        v0 = ExpPoly.variable("x") * t0
        return BallProblem(diffusivity, v0, radius, boundary_coeff)


@dataclass(frozen=True)
class BallSolution:
    """Series for V = r*T plus the T = V/r presentation."""

    problem: BallProblem
    v_series: SeriesSolution

    @property
    def closed_form(self) -> ClosedForm:
        return detect_closed_form(self.v_series)

    def temperature(self, r: float, t: float, order: int | None = None) -> float:
        if r == 0:
            raise ZeroDivisionError("temperature presentation undefined at r = 0")
        value = self.v_series.partial_sum(order).evaluate((r, 0.0, 0.0, t))
        return value.real / r

    def display_temperature(self) -> str:
        import re

        from .textform import to_display

        cf = self.closed_form
        if cf:
            inner = cf.display()
        else:
            inner = to_display(self.v_series.partial_sum())
        # presentation only: the radial variable lives in the x slot
        return f"({re.sub(r'(?<![A-Za-z_])x(?![A-Za-z_0-9])', 'r', inner)}) / r"

    def boundary_defect(self, t: float, order: int | None = None) -> float:
        """|dV/dr + (h - 1/R) V| at r = R; diagnostic only, the series
        does not enforce the boundary condition."""
        prob = self.problem
        if prob.radius is None or prob.boundary_coeff is None:
            raise ValueError("radius and boundary_coeff are required")
        v = self.v_series.partial_sum(order)
        mixed = prob.boundary_coeff - 1.0 / prob.radius
        defect = v.diff("x") + v.scale(mixed)
        return abs(defect.evaluate((prob.radius, 0.0, 0.0, t)))


def ball_series(problem: BallProblem, nmax: int = 12) -> BallSolution:
    """w_k = (-i a^2)^k d^{2k}/dr^{2k} [r*T0(r)] on the V variable: the
    heat series of the x-only datum V0, whose Laplacian is d^2/dx^2."""
    v_series = heat_series(HeatProblem(problem.diffusivity, problem.v0), nmax)
    return BallSolution(problem, v_series)
