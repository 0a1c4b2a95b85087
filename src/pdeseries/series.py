"""Series solutions in the convention u = sum (i t)^n / n! * w_n.

Shared by the evolution and diffusion solvers. A SeriesSolution stores
the coefficient functions w_0 ... w_N as ExpPoly values; partial sums
are again ExpPoly (t enters through the monomial slot), so they can be
displayed, differentiated and evaluated through ``ExpPoly.grid_fn`` by
the finite-difference checker like any other expression.

Closed-form detection recognizes the two resummable patterns that occur
when the step operator acts as a scalar on the initial datum's function
family:

    w_{n+1} = lam * (n+1) * w_n   ->   u = w_0 / (1 - i*lam*t)
    w_{n+1} = lam * w_n           ->   u = exp(i*lam*t) * w_0
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Atom, ExpPoly

RATIO_TOL = 1e-10


@dataclass(frozen=True)
class SeriesSolution:
    """Coefficients w_0 ... w_N under u = sum (i t)^n / n! * w_n."""

    coefficients: tuple[ExpPoly, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def partial_sum(self, order: int | None = None) -> ExpPoly:
        """The truncated series as a single ExpPoly in x, y, z, t."""
        if order is None:
            order = self.order
        if order > self.order:
            raise ValueError(f"order {order} exceeds computed order {self.order}")
        total = ExpPoly.zero()
        for n in range(order + 1):
            prefactor = (1j**n) / math.factorial(n)
            t_power = ExpPoly([Atom(prefactor, (0, 0, 0, n))])
            total = total + t_power * self.coefficients[n]
        return total


@dataclass(frozen=True)
class ClosedForm:
    """Detected resummation of a SeriesSolution.

    kind is "geometric", "exponential" or "none". For geometric the sum
    is base / (1 - i*ratio*t); for exponential it is exp(i*ratio*t) * base.
    """

    kind: str
    ratio: complex = 0j
    base: ExpPoly = ExpPoly.zero()

    @staticmethod
    def none() -> "ClosedForm":
        return ClosedForm("none")

    def __bool__(self) -> bool:
        return self.kind != "none"

    def as_exppoly(self) -> ExpPoly | None:
        """Exact ExpPoly form when one exists (exponential kind only)."""
        if self.kind != "exponential":
            return None
        factor = ExpPoly([Atom(1.0 + 0j, (0, 0, 0, 0), (0j, 0j, 0j, 1j * self.ratio))])
        return factor * self.base

    def grid_fn(self):
        """Vectorized evaluator of the resummed solution, built on the
        base datum's ExpPoly.grid_fn."""
        base_fn = self.base.grid_fn()
        kind, ratio = self.kind, self.ratio
        if kind == "none":
            raise ValueError("no closed form detected")

        def evaluate_grid(X, Y, Z, T):
            base = base_fn(X, Y, Z, np.zeros_like(np.asarray(T, dtype=float)))
            if kind == "geometric":
                return base / (1 - 1j * ratio * np.asarray(T, dtype=complex))
            return base * np.exp(1j * ratio * np.asarray(T, dtype=complex))

        return evaluate_grid

    def display(self) -> str:
        from .textform import _fmt_complex, to_display

        if self.kind == "none":
            return "(none)"
        base = to_display(self.base)
        if self.kind == "exponential":
            return to_display(self.as_exppoly())
        denom_slope = -1j * self.ratio
        if denom_slope.imag == 0:
            slope = denom_slope.real
            if slope == 1:
                denom = "1 + t"
            elif slope == -1:
                denom = "1 - t"
            else:
                denom = f"1 + {_fmt_complex(denom_slope)}*t".replace("+ -", "- ")
        else:
            denom = f"1 + {_fmt_complex(denom_slope)}*t"
        return f"({base}) / ({denom})"


def _atomwise_ratio(current: ExpPoly, following: ExpPoly) -> complex | None:
    """Scalar r with following = r * current, or None.

    Returns 0j when following is zero; None when the atom supports differ
    or the per-atom ratios disagree beyond RATIO_TOL relative.
    """
    if following.is_zero():
        return 0j
    if current.is_zero():
        return None
    if len(current.atoms) != len(following.atoms):
        return None
    ratio = None
    for a, b in zip(current.atoms, following.atoms):
        if a.key() != b.key():
            return None
        r = b.coeff / a.coeff
        if ratio is None:
            ratio = r
        elif abs(r - ratio) > RATIO_TOL * max(1.0, abs(ratio)):
            return None
    return ratio


def detect_closed_form(series: SeriesSolution) -> ClosedForm:
    """Recognize geometric / exponential coefficient patterns.

    Requires at least 4 nonzero coefficients of evidence, except for the
    exact constant case (all w_n = 0 for n >= 1) which resums trivially.
    """
    coeffs = series.coefficients
    if not coeffs or coeffs[0].is_zero():
        return ClosedForm.none()
    if all(c.is_zero() for c in coeffs[1:]):
        return ClosedForm("exponential", 0j, coeffs[0])
    nonzero = sum(1 for c in coeffs if not c.is_zero())
    if nonzero < 4:
        return ClosedForm.none()
    ratios = []
    for n in range(len(coeffs) - 1):
        r = _atomwise_ratio(coeffs[n], coeffs[n + 1])
        if r is None:
            return ClosedForm.none()
        ratios.append(r)

    def consistent(values):
        ref = values[0]
        return all(
            abs(v - ref) <= RATIO_TOL * max(1.0, abs(ref)) for v in values[1:]
        )

    if consistent(ratios):
        return ClosedForm("exponential", ratios[0], coeffs[0])
    scaled = [r / (n + 1) for n, r in enumerate(ratios)]
    if consistent(scaled):
        return ClosedForm("geometric", scaled[0], coeffs[0])
    return ClosedForm.none()
