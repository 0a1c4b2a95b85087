"""Series solver for 1-D evolution equations with a mixed-derivative term.

The equation family is

    u_t = sum_m a_m d^m u / dx^m
        + sum_m b_m d^m (u^{k+1}) / dx^m
        + c d^{i+1} u / dx^i dt,          u(x, 0) = h(x),

with real constants a_m, b_m, c and positive integers i, k. Writing
u = sum (i t)^n / n! * w_n, the coefficients satisfy

    i*w_{n+1} - i*c * d^i w_{n+1} / dx^i = RHS_n,
    RHS_n = sum_m a_m d^m w_n + sum_m b_m d^m (w^{k+1})_n,

where (w^{k+1})_n is the binomial convolution of the coefficient
sequence with itself (see :meth:`PowersTable.entry`). The implicit left-hand
operator is solved exactly per exponential class e^{lam*x}: it is
triangular in polynomial degree with diagonal i*(1 - c*lam^i), so back
substitution from the highest degree yields the unique solution in the
span of the right-hand side's classes. A vanishing diagonal is a
resonance and is reported as such rather than silently regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import Atom, ExpPoly
from .errors import AtomBudgetError, ResonanceError
from .series import SeriesSolution

RESONANCE_TOL = 1e-12

IMAG = 1j


@dataclass(frozen=True)
class EvolutionProblem:
    """Coefficients and initial datum of the evolution equation.

    ``a`` and ``b`` map derivative order m to the real coefficient;
    missing orders are zero. ``h`` must depend on x only.
    """

    a: dict[int, float] = field(default_factory=dict)
    b: dict[int, float] = field(default_factory=dict)
    c: float = 0.0
    mixed_order: int = 1
    nonlin_exponent: int = 1
    h: ExpPoly = field(default_factory=ExpPoly.zero)

    def __post_init__(self):
        if self.mixed_order < 1:
            raise ValueError("mixed_order must be a positive integer")
        if self.nonlin_exponent < 1:
            raise ValueError("nonlin_exponent must be a positive integer")
        for m in list(self.a) + list(self.b):
            if m < 0:
                raise ValueError("derivative orders must be nonnegative")
        for var in ("y", "z", "t"):
            if self.h.depends_on(var):
                raise ValueError(f"initial datum must not depend on {var}")

    @property
    def has_nonlinearity(self) -> bool:
        return any(v != 0 for v in self.b.values())


class PowersTable:
    """Binomial-convolution table w[p][n] for powers of the series.

    Row 1 is the coefficient sequence itself; higher rows satisfy
    w[p][n] = sum_j C(n, j) * w[1][j] * w[p-1][n-j].
    """

    def __init__(self, base: list[ExpPoly]):
        self.rows: dict[int, list[ExpPoly]] = {1: base}

    def append_base(self, value: ExpPoly):
        self.rows[1].append(value)

    def entry(self, p: int, n: int) -> ExpPoly:
        """Coefficient of the p-th power of the series at index n."""
        if p < 1:
            raise ValueError("power must be >= 1")
        base = self.rows[1]
        if n >= len(base):
            raise ValueError(f"base coefficients up to n={n} not available")
        row = self.rows.setdefault(p, [])
        while len(row) <= n:
            m = len(row)
            if p == 1:
                row.append(base[m])
                continue
            total = ExpPoly.zero()
            for j in range(m + 1):
                total = total + (base[j] * self.entry(p - 1, m - j)).scale(
                    math.comb(m, j)
                )
            row.append(total)
        return row[n]


def apply_implicit_inverse(g: ExpPoly, c: float, order: int) -> ExpPoly:
    """Solve i*w - i*c * d^order w / dx^order = g exactly.

    Atoms are grouped into exponential classes (everything except the
    x-monomial degree); within a class the operator is triangular in
    degree, with diagonal i*(1 - c*lam^order). Raises ResonanceError
    when a class present in g has a vanishing diagonal.
    """
    if order < 1:
        raise ValueError("operator order must be a positive integer")
    classes: dict = {}
    for atom in g.atoms:
        key = (atom.powers[1:], atom.expo)
        # Normalization guarantees one atom per (class, degree).
        classes.setdefault(key, {})[atom.powers[0]] = atom.coeff
    result = []
    for (tail_powers, expo), degrees in classes.items():
        lam = expo[0]
        diagonal = IMAG * (1 - c * lam**order)
        if abs(diagonal) <= RESONANCE_TOL:
            raise ResonanceError(lam)
        top = max(degrees)
        solved: dict[int, complex] = {}
        for d in range(top, -1, -1):
            rhs = degrees.get(d, 0j)
            # Known higher-degree solution terms feed back through the
            # x-derivative of the monomial part.
            for j in range(1, order + 1):
                e = d + j
                if e in solved:
                    rhs += (
                        IMAG
                        * c
                        * math.comb(order, j)
                        * lam ** (order - j)
                        * (math.factorial(e) // math.factorial(d))
                        * solved[e]
                    )
            solved[d] = rhs / diagonal
        for d, coeff in solved.items():
            powers = (d,) + tail_powers
            result.append(Atom(coeff, powers, expo))
    return ExpPoly(result)


def _rhs(problem: EvolutionProblem, table: PowersTable, n: int) -> ExpPoly:
    w_n = table.rows[1][n]
    total = ExpPoly.zero()
    for m, a_m in problem.a.items():
        if a_m != 0:
            total = total + w_n.diff("x", m).scale(a_m)
    if problem.has_nonlinearity:
        w_pow = table.entry(problem.nonlin_exponent + 1, n)
        for m, b_m in problem.b.items():
            if b_m != 0:
                total = total + w_pow.diff("x", m).scale(b_m)
    return total


def recursion_step(problem: EvolutionProblem, table: PowersTable, n: int) -> ExpPoly:
    """Compute w_{n+1} from rows 0..n of the powers table."""
    return apply_implicit_inverse(_rhs(problem, table, n), problem.c, problem.mixed_order)


def solve_series(problem: EvolutionProblem, nmax: int = 12) -> SeriesSolution:
    """Coefficients w_0 ... w_nmax; w_0 is the initial datum.

    Resonance and atom-budget failures carry the step index at which
    they occurred.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    table = PowersTable([problem.h])
    for n in range(nmax):
        try:
            nxt = recursion_step(problem, table, n)
        except ResonanceError as err:
            raise ResonanceError(err.lam, step=n + 1) from None
        except AtomBudgetError as err:
            raise AtomBudgetError(err.count, err.cap, step=n + 1) from None
        table.append_base(nxt)
    return SeriesSolution(tuple(table.rows[1]))
