"""Independent finite-difference residual checks.

This module is the oracle side of the dual-route design: it sees
candidate solutions only through point evaluation, never through their
symbolic derivatives, so agreement between a solver output and a small
residual here is genuine evidence. All stencils are 2nd-order central
differences; higher derivative orders are built by composing the first-
and second-derivative stencils, which keeps the order of accuracy easy
to reason about (halving the step shrinks residuals of smooth exact
solutions by about 4x until rounding noise takes over).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_D1 = {-1: -0.5, 1: 0.5}
_D2 = {-1: 1.0, 0: -2.0, 1: 1.0}


def stencil(order: int) -> dict[int, float]:
    """Central-difference stencil for d^order/dv^order, offsets -> weights
    (to be divided by h^order)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0:
        return {0: 1.0}
    base = _D2 if order % 2 == 0 else _D1
    rest = stencil(order - (2 if order % 2 == 0 else 1))
    out: dict[int, float] = {}
    for o1, w1 in base.items():
        for o2, w2 in rest.items():
            out[o1 + o2] = out.get(o1 + o2, 0.0) + w1 * w2
    return {o: w for o, w in out.items() if w != 0.0}


@dataclass(frozen=True)
class GridSpec:
    """Sample ranges per variable plus finite-difference steps.

    ``ranges`` maps a variable name to (lo, hi, count); unlisted
    variables are held at 0. Candidates must be evaluable on the padded
    grid (stencils step outside the stated ranges by a few h).
    """

    ranges: dict[str, tuple[float, float, int]] = field(
        default_factory=lambda: {
            "x": (-1.0, 1.0, 21),
            "t": (0.05, 0.25, 11),
        }
    )
    hx: float = 1e-3
    ht: float = 1e-3

    def __post_init__(self):
        for name, (lo, hi, count) in self.ranges.items():
            if count < 3:
                raise ValueError(f"{name}: need at least 3 points")
            if lo > hi:
                raise ValueError(f"{name}: empty range")
        if self.hx <= 0 or self.ht <= 0:
            raise ValueError("steps must be positive")

    def axes(self):
        names = []
        arrays = []
        for name in ("x", "y", "z", "t"):
            if name in self.ranges:
                lo, hi, count = self.ranges[name]
                names.append(name)
                arrays.append(np.linspace(lo, hi, count))
        return names, arrays

    def meshes(self):
        """Broadcast (X, Y, Z, T) arrays; absent variables are 0."""
        names, arrays = self.axes()
        grids = np.meshgrid(*arrays, indexing="ij")
        by_name = dict(zip(names, grids))
        shape = grids[0].shape if grids else ()
        full = []
        for name in ("x", "y", "z", "t"):
            full.append(by_name.get(name, np.zeros(shape)))
        return tuple(full)


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    rms: float
    worst_point: tuple
    order_used: int | None = None

    def __str__(self):
        head = f"max|residual| = {self.max_abs:.3e}, rms = {self.rms:.3e}"
        tail = f" at {tuple(round(v, 6) for v in self.worst_point)}"
        if self.order_used is not None:
            head += f" (series order {self.order_used})"
        return head + tail


def _report(residual: np.ndarray, meshes, order_used=None) -> ResidualReport:
    flat = np.abs(residual).ravel()
    idx = int(np.argmax(flat))
    worst = tuple(float(m.ravel()[idx]) for m in meshes)
    return ResidualReport(
        max_abs=float(flat[idx]),
        rms=float(np.sqrt(np.mean(flat**2))),
        worst_point=worst,
        order_used=order_used,
    )


def _evaluator(u, mesh, steps):
    """values(shifts): u on the mesh moved by ``(var_index, offset)``
    pairs, each a multiple of that variable's step. Every distinct shift
    is evaluated once per residual: several stencils share the unshifted
    mesh and the t-shifted meshes."""
    cache = {}

    def values(shifts=()):
        if shifts not in cache:
            moved = list(mesh)
            for var_index, offset in shifts:
                moved[var_index] = mesh[var_index] + offset * steps[var_index]
            cache[shifts] = u(*moved)
        return cache[shifts]

    return values


def _derivative(values, var_index, order, step, base=(), transform=None):
    """Apply a composed central stencil along one variable to point
    evaluations at the shifts ``base`` plus the stencil's offsets."""
    total = None
    for offset, weight in stencil(order).items():
        vals = values(base + ((var_index, offset),) if offset else base)
        if transform is not None:
            vals = transform(vals)
        term = weight * vals
        total = term if total is None else total + term
    return total / step**order


def fd_residual_evolution(u, problem, grid: GridSpec | None = None, order_used=None):
    """Residual of the evolution equation at every grid point.

    ``u`` is a point evaluator u(X, Y, Z, T) -> ndarray. The nonlinear
    term is formed by raising point values of u to k+1 before
    differencing, and the mixed term nests the x-stencil inside the
    t-stencil; no symbolic derivative of the candidate is used.
    """
    grid = grid or GridSpec()
    mesh = grid.meshes()
    values = _evaluator(u, mesh, (grid.hx, grid.hx, grid.hx, grid.ht))
    k1 = problem.nonlin_exponent + 1
    residual = _derivative(values, 3, 1, grid.ht)
    for m, a_m in problem.a.items():
        if a_m != 0:
            residual = residual - a_m * _derivative(values, 0, m, grid.hx)
    for m, b_m in problem.b.items():
        if b_m != 0:
            residual = residual - b_m * _derivative(
                values, 0, m, grid.hx, transform=lambda vals: vals**k1
            )
    if problem.c != 0:
        i_ord = problem.mixed_order
        mixed = None
        for t_off, t_w in stencil(1).items():
            inner = _derivative(values, 0, i_ord, grid.hx, base=((3, t_off),))
            term = t_w * inner
            mixed = term if mixed is None else mixed + term
        residual = residual - problem.c * mixed / grid.ht
    return _report(residual, mesh, order_used)


def fd_residual_heat(
    u, diffusivity: float, grid: GridSpec | None = None, order_used=None
):
    """Residual of u_t = a^2 * (u_xx + u_yy + u_zz).

    The radial problem needs no special case: for a candidate in x only
    the y and z second differences are exactly zero.
    """
    if grid is None:
        grid = GridSpec(
            ranges={v: (-1.0, 1.0, 21) for v in ("x", "y", "z")}
            | {"t": (0.05, 0.25, 11)}
        )
    mesh = grid.meshes()
    values = _evaluator(u, mesh, (grid.hx, grid.hx, grid.hx, grid.ht))
    residual = _derivative(values, 3, 1, grid.ht)
    for index in range(3):
        residual = residual - diffusivity * _derivative(values, index, 2, grid.hx)
    return _report(residual, mesh, order_used)

