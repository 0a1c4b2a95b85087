"""Series and closed-form solvers for the constant-coefficient heat
equation u_t = a^2 * Laplacian(u), plus the radial-ball reduction.

The series coefficients obey w_{k+1} = -i * a^2 * Laplacian(w_k), so
u = sum (i t)^k / k! * w_k = sum (a^2 t)^k / k! * Laplacian^k(u_0).
On eigen-atoms the sum collapses to the exact heat semigroup
(:func:`pdeseries.algebra.heat_semigroup`).

The ball problem (temperature T(r, t) of a homogeneous ball) reduces to
the 1-D heat equation for V = r*T; r is carried in the x variable slot,
so the ball series is the heat series of V0. T = V/r is a presentation
only (:func:`temperature_display`), since 1/r is outside the atom
algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import ExpPoly, laplacian
from .series import ClosedForm, SeriesSolution

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

    def boundary_defect(
        self, series: SeriesSolution, t: float, order: int | None = None
    ) -> float:
        """|dV/dr + (h - 1/R) V| at r = R for the V series; diagnostic
        only, the series does not enforce the boundary condition."""
        if self.radius is None or self.boundary_coeff is None:
            raise ValueError("radius and boundary_coeff are required")
        v = series.partial_sum(order)
        mixed = self.boundary_coeff - 1.0 / self.radius
        defect = v.diff("x") + v.scale(mixed)
        return abs(defect.evaluate((self.radius, 0.0, 0.0, t)))


def temperature_display(closed: ClosedForm) -> str:
    """The T = V/r presentation of a closed form on V, in the variable r."""
    # presentation only: the radial variable lives in the x slot
    inner = re.sub(r"(?<![A-Za-z_])x(?![A-Za-z_0-9])", "r", closed.display())
    return f"({inner}) / r"


def ball_series(problem: BallProblem, nmax: int = 12) -> SeriesSolution:
    """w_k = (-i a^2)^k d^{2k}/dr^{2k} [r*T0(r)] on the V variable: the
    heat series of the x-only datum V0, whose Laplacian is d^2/dx^2."""
    return heat_series(HeatProblem(problem.diffusivity, problem.v0), nmax)
