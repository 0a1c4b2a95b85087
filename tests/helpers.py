"""Shared strategies and comparison helpers for the test suite."""

from __future__ import annotations

import cmath
import math
import random

from hypothesis import strategies as st

import pdeseries.algebra as algebra
from pdeseries import Atom, AtomBudgetError, ExpPoly

# Small building blocks keep evaluation magnitudes moderate so the
# 1e-10 evaluation tolerances are meaningful.
_COEFFS = [1.0, -1.0, 0.5, 2.0, -0.25, 1j, -1j, 0.5 + 0.5j, -1.5j, 3.0]
_SLOPES = [0j, 1j, -1j, 1 + 0j, -1 + 0j, 0.5j, 1 + 1j, -0.5 + 0j]


@st.composite
def atoms(draw, max_power=2, n_vars=4):
    """Atoms depending on the first n_vars of x, y, z, t only."""
    coeff = draw(st.sampled_from(_COEFFS))
    powers = [draw(st.integers(0, max_power)) for _ in range(n_vars)]
    slopes = [draw(st.sampled_from(_SLOPES)) for _ in range(n_vars)]
    powers += [0] * (4 - n_vars)
    slopes += [0j] * (4 - n_vars)
    return Atom(coeff, tuple(powers), tuple(slopes))


@st.composite
def exp_polys(draw, max_atoms=3, max_power=2, n_vars=4):
    n = draw(st.integers(0, max_atoms))
    return ExpPoly(
        [draw(atoms(max_power=max_power, n_vars=n_vars)) for _ in range(n)]
    )


# Eigen-atom families with |eigenvalue| <= 3; used where the heat
# semigroup must apply exactly.
def eigen_poly_samples():
    from pdeseries import parse_expression as pe

    return [
        pe("sin(x)"),
        pe("cos(y)"),
        pe("sin(x - y)"),
        pe("cos(y)*cos(z)"),
        pe("exp(x)"),
        pe("exp(x + y)"),
        pe("exp(x - z)"),
        pe("z*sin(x)"),
        pe("y*cos(x)"),
        pe("x*sin(y)"),
        pe("2*sin(x) - cos(z)"),
        pe("sinh(x)"),
        pe("exp(x)*sin(y)"),
    ]


def random_points(n, rng=None, radius=1.0, tmax=0.2):
    rng = rng or random.Random(20240817)
    return [
        (
            rng.uniform(-radius, radius),
            rng.uniform(-radius, radius),
            rng.uniform(-radius, radius),
            rng.uniform(-tmax, tmax),
        )
        for _ in range(n)
    ]


def reference_evaluate(poly: ExpPoly, point) -> complex:
    """Pointwise sum of the atoms in plain Python; an oracle for
    ExpPoly.grid_fn that shares none of its numpy code."""
    x, y, z, t = point
    total = 0j
    for a in poly.atoms:
        term = a.coeff
        for value, power in zip((x, y, z, t), a.powers):
            if power:
                term *= value**power
        arg = a.expo[0] * x + a.expo[1] * y + a.expo[2] * z + a.expo[3] * t
        if arg != 0:
            term *= cmath.exp(arg)
        total += term
    return total


def poly_close(a: ExpPoly, b: ExpPoly, tol: float = 1e-10) -> bool:
    """Atom-wise comparison with mixed absolute/relative tolerance; the
    suite's comparison oracle.

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


def assert_poly_close(a: ExpPoly, b: ExpPoly, tol=1e-10, label=""):
    if not poly_close(a, b, tol):
        from pdeseries import to_display

        raise AssertionError(
            f"{label or 'expressions differ'}:\n  got      {to_display(a)}\n"
            f"  expected {to_display(b)}"
        )


def ball_temperature(series, r, t, order=None) -> float:
    """T = V/r of a ball series at radius r and time t."""
    return series.partial_sum(order).evaluate((r, 0.0, 0.0, t)).real / r


def brute_force_power_entry(coefficients, p, n):
    """Independent oracle for the binomial-convolution table.

    Treats the truncated series as a plain polynomial in t with ExpPoly
    coefficients c_j = (i^j / j!) w_j, multiplies it out p times by the
    Cauchy rule, and recovers w^(p)_n = n! / i^n * [t^n] of the product.
    """
    order = len(coefficients) - 1
    base = [
        coefficients[j].scale((1j**j) / math.factorial(j)) for j in range(order + 1)
    ]
    prod = [ExpPoly.constant(1.0)] + [ExpPoly.zero()] * order
    for _ in range(p):
        nxt = [ExpPoly.zero()] * (order + 1)
        for a_idx in range(order + 1):
            if prod[a_idx].is_zero():
                continue
            for b_idx in range(order + 1 - a_idx):
                nxt[a_idx + b_idx] = nxt[a_idx + b_idx] + prod[a_idx] * base[b_idx]
        prod = nxt
    return prod[n].scale(math.factorial(n) / 1j**n)


def reference_normalize(atoms) -> tuple:
    """The atom tuple of ``ExpPoly(atoms)``, by one Atom per merge.

    The original normalization: an oracle for the bit-for-bit contract of
    ExpPoly's construction and products.
    """
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
    kept = [a for a in merged.values() if abs(a.coeff) > algebra.MERGE_TOL]
    if len(kept) > algebra.MAX_ATOMS:
        raise AtomBudgetError(len(kept), algebra.MAX_ATOMS)

    def sort_key(atom):
        flat = []
        for c in atom.expo:
            flat.append(c.real)
            flat.append(c.imag)
        return (atom.powers, tuple(flat))

    kept.sort(key=sort_key)
    return tuple(kept)


def reference_mul(a: ExpPoly, b: ExpPoly) -> tuple:
    """The atom tuple of ``a * b``, by one Atom per pair of atoms."""
    out = []
    for x in a.atoms:
        for y in b.atoms:
            powers = tuple(pa + pb for pa, pb in zip(x.powers, y.powers))
            expo = tuple(ea + eb for ea, eb in zip(x.expo, y.expo))
            out.append(Atom(x.coeff * y.coeff, powers, expo))
    return reference_normalize(out)


def atom_bits(atoms) -> list:
    """Atoms with every coefficient and slope part as its exact bits, so
    that -0.0 differs from 0.0."""

    def bits(c):
        c = complex(c)
        return (c.real.hex(), c.imag.hex())

    return [(a.powers, tuple(map(bits, a.expo)), bits(a.coeff)) for a in atoms]
