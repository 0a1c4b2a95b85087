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

Every operation returns, bit for bit (down to the sign of a zero), the
atom tuple of the plain definition: one term per pair of atoms in a
product, terms merged on (powers, exponent) by summing coefficients left
to right in order of appearance, then the checks, the drop and the
canonical sort of :func:`_finish`. Products of at least ``_NUMPY_PAIRS``
atom pairs run on numpy arrays. Exponent vectors are interned as class
ids, each (class, powers) pair is packed into one int64 key, and
``np.unique`` and ``np.bincount`` merge the terms; bincount adds in
index order, which is the same left fold. Coefficient products use the
split form ``re = ar*br - ai*bi``, ``im = ar*bi + ai*br``, which is how
CPython multiplies complex numbers; numpy's complex multiply rounds
differently. Smaller products merge in a dict, because below the
crossover numpy's fixed cost per call outweighs the dict's cost per
pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Callable, Iterable

import numpy as np

from .errors import AtomBudgetError, NonEigenAtomError

VARIABLES = ("x", "y", "z", "t")
VAR_INDEX = {v: i for i, v in enumerate(VARIABLES)}

# Coefficients smaller than this (absolute) are dropped on normalization.
MERGE_TOL = 1e-14
# Hard cap on atoms per expression; nonlinear recursions fail loudly
# instead of thrashing.
MAX_ATOMS = 10_000
# Products with at least this many atom pairs run on numpy arrays;
# smaller ones merge in a dict, where numpy's fixed cost per call (about
# 0.15 ms) would dominate. Measured over the products of a cubic solve,
# the total time is flat for thresholds from 32 to 512 pairs.
_NUMPY_PAIRS = 128

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


def _normalized(terms) -> tuple[Atom, ...]:
    """Merge ``(powers, expo, coeff)`` terms that share (powers, expo),
    then finish.

    Coefficients are summed left to right in order of appearance, and a
    merged term keeps the exponent vector of its last term (equal
    vectors may still differ in the sign of a zero slope).
    """
    merged: dict = {}
    for powers, expo, coeff in terms:
        key = (powers, expo)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [coeff, expo]
        else:
            entry[0] += coeff
            entry[1] = expo
    return _finish((key[0], expo, coeff) for key, (coeff, expo) in merged.items())


_SORT_KEY = itemgetter(0, 1)


def _finish(terms) -> tuple[Atom, ...]:
    """Check, drop, cap and sort merged ``(powers, expo, coeff)`` terms.

    Every term must be finite; terms with ``|coeff| <= MERGE_TOL`` are
    dropped; more than ``MAX_ATOMS`` survivors raise AtomBudgetError
    before any Atom is built. The canonical order sorts on the powers,
    then on the real and imaginary parts of the slopes.
    """
    flat_keys: dict = {}
    kept = []
    tol = MERGE_TOL
    for powers, expo, coeff in terms:
        flat = flat_keys.get(expo)
        if flat is None and all(map(cmath.isfinite, expo)):
            x, y, z, t = expo
            flat = flat_keys[expo] = (
                x.real, x.imag, y.real, y.imag, z.real, z.imag, t.real, t.imag
            )
        if flat is None or not cmath.isfinite(coeff):
            atom = Atom(coeff, powers, expo)
            raise ValueError(f"non-finite atom in expression: {atom!r}")
        if abs(coeff) > tol:
            kept.append((powers, flat, expo, coeff))
    if len(kept) > MAX_ATOMS:
        raise AtomBudgetError(len(kept), MAX_ATOMS)
    kept.sort(key=_SORT_KEY)
    return tuple([Atom(coeff, powers, expo) for powers, _, expo, coeff in kept])


def _pair_terms(a, b):
    """``(powers, expo, coeff)`` of every atom pair, in a-major order."""
    for x in a:
        for y in b:
            yield (
                tuple(map(add, x.powers, y.powers)),
                tuple(map(add, x.expo, y.expo)),
                x.coeff * y.coeff,
            )


def _fold(inverse, values, size):
    """Per-group sums of ``values`` in index order, as a left fold.

    bincount starts every sum at +0.0, where the fold starts at the
    first term; the two differ only for a group whose terms are all
    -0.0, which the fold keeps as -0.0.
    """
    total = np.bincount(inverse, weights=values, minlength=size)
    negative_zero = np.signbit(values) & (values == 0)
    if negative_zero.any():
        other_terms = np.bincount(inverse[~negative_zero], minlength=size)
        total[other_terms == 0] = -0.0
    return total


# An exponent vector's 64 bytes as one value: equal exactly when the
# vectors are equal bit for bit.
_VECTOR_BITS = np.dtype((np.void, 64))


def _operand(atoms):
    """``(re, im, powers, cls, table)`` arrays of one factor's atoms.

    Classes are bitwise-distinct exponent vectors: ``table[cls[i]]`` is
    atom i's vector, signs of zero slopes included.
    """
    coeffs = np.array([a.coeff for a in atoms], dtype=complex)
    powers = np.array([a.powers for a in atoms], dtype=np.int64)
    expos = np.array([a.expo for a in atoms], dtype=complex)
    bits, cls = np.unique(expos.view(_VECTOR_BITS).ravel(), return_inverse=True)
    return coeffs.real, coeffs.imag, powers, cls, bits.view(complex).reshape(-1, 4)


def _numpy_product(a, b) -> tuple[Atom, ...]:
    """Normalized atoms of the product of two atom tuples, as arrays.

    The result is the per-pair product merged in a-major order, bit for
    bit: coefficient products use CPython's split formula, sums run in
    that order, and every atom keeps the exponent vector of its last
    pair.
    """
    ar, ai, pa, ca, ta = _operand(a)
    br, bi, pb, cb, tb = _operand(b)
    # Exponent sums per class pair; the merge classes treat -0.0 and
    # 0.0 alike, as the tuple keys of _normalized do.
    pair = (ta[:, None, :] + tb[None, :, :]).reshape(-1, 4)
    _, pair_class = np.unique(
        (pair + 0.0).view(_VECTOR_BITS).ravel(), return_inverse=True
    )
    n_classes = int(pair_class.max()) + 1
    # Mixed-radix codes of the powers over the observed ranges; the code
    # of a pair is the sum of its factors' codes, with no carries.
    a_lo, b_lo = pa.min(axis=0), pb.min(axis=0)
    dims = tuple(int(d) for d in pa.max(axis=0) + pb.max(axis=0) - a_lo - b_lo + 1)
    span = math.prod(dims)
    if n_classes * span >= 2**63:
        # Powers this far apart leave no int64 key.
        return _normalized(_pair_terms(a, b))
    code_a = np.ravel_multi_index(tuple((pa - a_lo).T), dims)
    code_b = np.ravel_multi_index(tuple((pb - b_lo).T), dims)
    pair_index = ca[:, None] * len(tb) + cb[None, :]
    keys = (pair_class[pair_index] * span + (code_a[:, None] + code_b[None, :])).ravel()
    # Overflow is reported by _finish as a non-finite atom.
    with np.errstate(over="ignore", invalid="ignore"):
        re = (ar[:, None] * br[None, :] - ai[:, None] * bi[None, :]).ravel()
        im = (ar[:, None] * bi[None, :] + ai[:, None] * br[None, :]).ravel()
    # Unique keys of the reversed terms give each group's last pair.
    unique_keys, first_rev, inverse_rev = np.unique(
        keys[::-1], return_index=True, return_inverse=True
    )
    inverse = inverse_rev[::-1]
    size = len(unique_keys)
    coeffs = np.empty(size, dtype=complex)
    coeffs.real = _fold(inverse, re, size)
    coeffs.imag = _fold(inverse, im, size)
    last_i, last_j = np.divmod(keys.size - 1 - first_rev, len(b))
    last_pair = pair_index[last_i, last_j]
    used, which = np.unique(last_pair, return_inverse=True)
    expo_rows = [tuple(row) for row in pair[used].tolist()]
    powers = np.stack(np.unravel_index(unique_keys % span, dims), axis=1) + a_lo + b_lo
    return _finish(zip(
        map(tuple, powers.tolist()),
        [expo_rows[k] for k in which.tolist()],
        coeffs.tolist(),
    ))


class ExpPoly:
    """A normalized sum of atoms; the universal function representation.

    Construction normalizes: atoms sharing (powers, exponent) merge,
    near-zero coefficients are dropped, atoms are sorted canonically.
    Instances are immutable; all operators return new values.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[Atom] = ()):
        object.__setattr__(
            self, "atoms", _normalized((a.powers, a.expo, a.coeff) for a in atoms)
        )

    @staticmethod
    def _of(atoms: tuple[Atom, ...]) -> "ExpPoly":
        """Wrap an already normalized atom tuple."""
        poly = object.__new__(ExpPoly)
        object.__setattr__(poly, "atoms", atoms)
        return poly

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

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly(self.atoms + other.atoms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self) -> "ExpPoly":
        return self.scale(-1.0)

    def scale(self, factor) -> "ExpPoly":
        f = complex(factor)
        return ExpPoly._of(
            _normalized((a.powers, a.expo, a.coeff * f) for a in self.atoms)
        )

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        a, b = self.atoms, other.atoms
        if len(a) * len(b) >= _NUMPY_PAIRS:
            return ExpPoly._of(_numpy_product(a, b))
        return ExpPoly._of(_normalized(_pair_terms(a, b)))

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
                    out.append((tuple(lowered), a.expo, a.coeff * p))
                if lam != 0:
                    out.append((a.powers, a.expo, a.coeff * lam))
            poly = ExpPoly._of(_normalized(out))
        return poly

    def depends_on(self, var: str) -> bool:
        idx = VAR_INDEX[var]
        return any(a.powers[idx] or a.expo[idx] != 0 for a in self.atoms)

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


def heat_semigroup(poly: ExpPoly, diffusivity: float) -> ExpPoly:
    """Apply exp(diffusivity * t * Laplacian) on eigen-atoms, with t
    symbolic: each atom's exponent gains diffusivity * eigenvalue in the
    t slot."""
    out = []
    for a in poly.atoms:
        expo = a.expo[:3] + (a.expo[3] + diffusivity * eigenvalue(a),)
        out.append(Atom(a.coeff, a.powers, expo))
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

