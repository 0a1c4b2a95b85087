"""Exponential-polynomial algebra over the variables x, y, z, t.

Every function handled by the solvers is a finite sum of atoms

    coeff * x^a y^b z^c t^d * exp(l_x*x + l_y*y + l_z*z + l_t*t)

with a complex coefficient and complex exponent slopes. The family is
closed under addition, multiplication, differentiation and (on
eigen-atoms) the heat semigroup, which is what makes the series
recursions exact. Trigonometric input is rewritten into this form via
Euler's identity by the parser; display folds it back.

Atoms and ExpPoly values are immutable once normalized and safe to
share across threads.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import AtomBudgetError, NonEigenAtomError

VARIABLES = ("x", "y", "z", "t")
VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}
SPATIAL_INDICES = (0, 1, 2)

# Coefficients smaller than this (absolute) are dropped on normalization.
MERGE_TOL = 1e-14
# Hard cap on atoms per expression; nonlinear recursions fail loudly
# instead of thrashing.
MAX_ATOMS = 10_000

_ZERO4 = (0, 0, 0, 0)
_ZEROC4 = (0j, 0j, 0j, 0j)


@dataclass(frozen=True)
class Atom:
    """One term: ``coeff * monomial(powers) * exp(linear form)``."""

    coeff: complex
    powers: tuple[int, int, int, int] = _ZERO4
    expo: tuple[complex, complex, complex, complex] = _ZEROC4

    def key(self):
        return (self.powers, self.expo)

    def spatial_degree(self) -> int:
        return sum(self.powers[i] for i in SPATIAL_INDICES)


def _sort_key(atom: Atom):
    flat = []
    for c in atom.expo:
        flat.append(c.real)
        flat.append(c.imag)
    return (atom.powers, tuple(flat))


class ExpPoly:
    """A normalized sum of atoms; the universal function representation.

    Construction normalizes: atoms sharing (powers, exponent) merge,
    near-zero coefficients are dropped, atoms are sorted canonically.
    Instances are immutable; all operators return new values.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Atom] = ()):
        merged: dict = {}
        for a in atoms:
            k = a.key()
            if k in merged:
                merged[k] = Atom(merged[k].coeff + a.coeff, a.powers, a.expo)
            else:
                merged[k] = a
        for a in merged.values():
            if not (cmath.isfinite(a.coeff) and all(cmath.isfinite(c) for c in a.expo)):
                raise ValueError(f"non-finite atom in expression: {a!r}")
        kept = [a for a in merged.values() if abs(a.coeff) > MERGE_TOL]
        if len(kept) > MAX_ATOMS:
            raise AtomBudgetError(len(kept), MAX_ATOMS)
        kept.sort(key=_sort_key)
        object.__setattr__(self, "atoms", tuple(kept))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def constant(value) -> "ExpPoly":
        return ExpPoly((Atom(complex(value)),))

    @staticmethod
    def variable(name: str) -> "ExpPoly":
        idx = VAR_INDEX[name]
        powers = tuple(1 if i == idx else 0 for i in range(4))
        return ExpPoly((Atom(1.0 + 0j, powers),))

    @staticmethod
    def exponential(slopes: dict, coeff=1.0) -> "ExpPoly":
        """exp(sum slopes[v]*v) scaled by coeff; slopes keyed by variable name."""
        expo = [0j, 0j, 0j, 0j]
        for name, val in slopes.items():
            expo[VAR_INDEX[name]] = complex(val)
        return ExpPoly((Atom(complex(coeff), _ZERO4, tuple(expo)),))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(self.atoms + other.atoms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return self.scale(-1.0)

    def scale(self, factor) -> "ExpPoly":
        f = complex(factor)
        return ExpPoly(Atom(a.coeff * f, a.powers, a.expo) for a in self.atoms)

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out = []
        for a in self.atoms:
            for b in other.atoms:
                powers = tuple(pa + pb for pa, pb in zip(a.powers, b.powers))
                expo = tuple(ea + eb for ea, eb in zip(a.expo, b.expo))
                out.append(Atom(a.coeff * b.coeff, powers, expo))
        return ExpPoly(out)

    def __pow__(self, n: int) -> "ExpPoly":
        if n < 0:
            raise ValueError("negative powers are outside the algebra")
        result = ExpPoly.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, ExpPoly) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self) -> str:
        from .textform import to_display

        return f"ExpPoly({to_display(self)!r})"

    def is_zero(self) -> bool:
        return not self.atoms

    # -- calculus ------------------------------------------------------

    def diff(self, var: str, order: int = 1) -> "ExpPoly":
        """Exact partial derivative d^order/d var^order."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        idx = VAR_INDEX[var]
        poly = self
        for _ in range(order):
            out = []
            for a in poly.atoms:
                p = a.powers[idx]
                lam = a.expo[idx]
                if p:
                    lowered = list(a.powers)
                    lowered[idx] = p - 1
                    out.append(Atom(a.coeff * p, tuple(lowered), a.expo))
                if lam != 0:
                    out.append(Atom(a.coeff * lam, a.powers, a.expo))
            poly = ExpPoly(out)
        return poly

    def depends_on(self, var: str) -> bool:
        idx = VAR_INDEX[var]
        return any(a.powers[idx] or a.expo[idx] != 0 for a in self.atoms)

    def max_abs_coeff(self) -> float:
        return max((abs(a.coeff) for a in self.atoms), default=0.0)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, point) -> complex:
        """Value at one point (x, y, z, t); the scalar entry to grid_fn."""
        return complex(self.grid_fn()(*point))

    def grid_fn(self) -> Callable:
        """Vectorized evaluator f(X, Y, Z, T) -> complex ndarray.

        The single place where the atom sum is evaluated: ``evaluate``,
        closed forms, CSV samples and the finite-difference oracle all
        reach point values through this closure.
        """

        atoms = self.atoms

        def evaluate_grid(X, Y, Z, T):
            X, Y, Z, T = np.broadcast_arrays(
                np.asarray(X, dtype=float),
                np.asarray(Y, dtype=float),
                np.asarray(Z, dtype=float),
                np.asarray(T, dtype=float),
            )
            total = np.zeros(X.shape, dtype=complex)
            for a in atoms:
                term = np.full(X.shape, a.coeff, dtype=complex)
                for arr, power in zip((X, Y, Z, T), a.powers):
                    if power:
                        term *= arr**power
                arg = (
                    a.expo[0] * X + a.expo[1] * Y + a.expo[2] * Z + a.expo[3] * T
                )
                if np.any(arg):
                    term *= np.exp(arg)
                total += term
            return total

        return evaluate_grid

    def substitute_t(self, t0: float) -> "ExpPoly":
        """Freeze t = t0, returning an expression in x, y, z only."""
        out = []
        for a in self.atoms:
            c = a.coeff
            if a.powers[3]:
                c *= t0 ** a.powers[3]
            if a.expo[3] != 0:
                c *= cmath.exp(a.expo[3] * t0)
            out.append(Atom(c, a.powers[:3] + (0,), a.expo[:3] + (0j,)))
        return ExpPoly(out)


# -- spatial operators on scalars and fields ---------------------------


def laplacian(poly: ExpPoly) -> ExpPoly:
    """Sum of second derivatives over the spatial variables x, y, z."""
    return poly.diff("x", 2) + poly.diff("y", 2) + poly.diff("z", 2)


def eigenvalue(atom: Atom) -> complex:
    """Laplacian eigenvalue of a single atom, via the symbolic check
    laplacian(atom) == value * atom. Raises NonEigenAtomError otherwise."""
    single = ExpPoly((Atom(1.0 + 0j, atom.powers, atom.expo),))
    lap = laplacian(single)
    if lap.is_zero():
        return 0j
    if len(lap.atoms) == 1 and lap.atoms[0].key() == single.atoms[0].key():
        return lap.atoms[0].coeff
    from .textform import to_display

    raise NonEigenAtomError(to_display(single))


def heat_semigroup(poly: ExpPoly, diffusivity: float, theta: float | None = None) -> ExpPoly:
    """Apply exp(diffusivity * theta * Laplacian) on eigen-atoms.

    With ``theta=None`` time stays symbolic: each atom's exponent gains
    diffusivity * eigenvalue in the t slot. With a numeric ``theta`` the
    coefficient is scaled by exp(diffusivity * theta * eigenvalue).
    """
    out = []
    for a in poly.atoms:
        lam2 = eigenvalue(a)
        if theta is None:
            expo = a.expo[:3] + (a.expo[3] + diffusivity * lam2,)
            out.append(Atom(a.coeff, a.powers, expo))
        else:
            out.append(
                Atom(a.coeff * cmath.exp(diffusivity * theta * lam2), a.powers, a.expo)
            )
    return ExpPoly(out)


@dataclass(frozen=True)
class VectorField:
    """Ordered triple of ExpPoly components."""

    cx: ExpPoly
    cy: ExpPoly
    cz: ExpPoly

    @staticmethod
    def zero() -> "VectorField":
        return VectorField(ExpPoly.zero(), ExpPoly.zero(), ExpPoly.zero())

    def components(self):
        return (self.cx, self.cy, self.cz)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx + other.cx, self.cy + other.cy, self.cz + other.cz)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx - other.cx, self.cy - other.cy, self.cz - other.cz)

    def __neg__(self) -> "VectorField":
        return VectorField(-self.cx, -self.cy, -self.cz)

    def scale(self, factor) -> "VectorField":
        return VectorField(
            self.cx.scale(factor), self.cy.scale(factor), self.cz.scale(factor)
        )

    def map(self, fn) -> "VectorField":
        return VectorField(fn(self.cx), fn(self.cy), fn(self.cz))

    def is_zero(self) -> bool:
        return self.cx.is_zero() and self.cy.is_zero() and self.cz.is_zero()


def curl(field: VectorField) -> VectorField:
    fx, fy, fz = field.components()
    return VectorField(
        fz.diff("y") - fy.diff("z"),
        fx.diff("z") - fz.diff("x"),
        fy.diff("x") - fx.diff("y"),
    )


def divergence(field: VectorField) -> ExpPoly:
    return field.cx.diff("x") + field.cy.diff("y") + field.cz.diff("z")


def gradient(poly: ExpPoly) -> VectorField:
    return VectorField(poly.diff("x"), poly.diff("y"), poly.diff("z"))


def poly_close(a: ExpPoly, b: ExpPoly, tol: float = 1e-10) -> bool:
    """Atom-wise comparison with mixed absolute/relative tolerance.

    Atom classes are matched on (powers, exponent rounded to 9 decimal
    places) so tiny float drift in exponent slopes does not split
    classes; coefficients must then agree within tol * max(1, scale).
    """

    def bucket(poly):
        d = {}
        for at in poly.atoms:
            expo_key = tuple(
                (round(c.real, 9), round(c.imag, 9)) for c in at.expo
            )
            k = (at.powers, expo_key)
            d[k] = d.get(k, 0j) + at.coeff
        return d

    da, db = bucket(a), bucket(b)
    scale = max(
        [abs(c) for c in da.values()] + [abs(c) for c in db.values()] + [1.0]
    )
    for k in set(da) | set(db):
        if abs(da.get(k, 0j) - db.get(k, 0j)) > tol * scale:
            return False
    return True
