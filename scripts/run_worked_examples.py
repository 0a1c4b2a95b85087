#!/usr/bin/env python3
"""Solve the five worked problems end to end and print a report.

Covers the three evolution equations (series table, detected closed
form, finite-difference residual), the radial ball reduction, and the
linearized flow pipeline (vorticity, curl, pressure, a few velocity
samples via quadrature).
"""

import math
import time

from pdeseries import (
    BallProblem,
    EvolutionProblem,
    FlowProblem,
    GridSpec,
    QuadratureSettings,
    RadialPotential,
    VectorField,
    ball_series,
    detect_closed_form,
    fd_residual_evolution,
    fd_residual_heat,
    parse_expression as pe,
    solve_flow,
    solve_series,
    temperature_display,
    to_display,
)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def evolution_report(title, problem, order=8, hx=1e-3):
    banner(title)
    start = time.perf_counter()
    series = solve_series(problem, order)
    for n, w in enumerate(series.coefficients):
        print(f"  w[{n}] = {to_display(w)}")
    cf = detect_closed_form(series)
    print(f"  closed form ({cf.kind}): {cf.display()}")
    grid = GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.2, 11)}, hx=hx)
    res = fd_residual_evolution(cf.grid_fn(), problem, grid)
    print(f"  FD residual: {res}")
    print(f"  elapsed: {(time.perf_counter() - start) * 1e3:.1f} ms")


def main():
    evolution_report(
        "1. RLW equation  u_t + 1/2 (u^2)_x = u_xxt,  u(x,0) = x",
        EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, nonlin_exponent=1,
                         h=pe("x")),
    )
    evolution_report(
        "2. Transport-type  u_t + u_x = 2 u_xxt,  u(x,0) = e^-x",
        EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)")),
    )
    evolution_report(
        "3. Fourth-order  u_t + 2 u_xxxx = u_xxt,  u(x,0) = sin x",
        EvolutionProblem(a={4: -2.0}, c=1.0, mixed_order=2, h=pe("sin(x)")),
        hx=5e-3,
    )

    banner("4. Radial ball  T_t = a^2 (T_rr + 2/r T_r),  V = r*T = sin r")
    cf = detect_closed_form(ball_series(BallProblem(1.0, pe("sin(x)")), 12))
    print(f"  V closed form: {cf.display()}")
    print(f"  T(r, t) = {temperature_display(cf)}")
    grid = GridSpec(ranges={"x": (0.1, 1.0, 19), "t": (0.01, 0.1, 10)})
    res = fd_residual_heat(cf.grid_fn(), 1.0, grid)
    print(f"  1-D residual on V: {res}")

    banner("5. Linearized flow, nu = 0.1")
    prob = FlowProblem(
        viscosity=0.1,
        curl_u0=VectorField(pe("cos(y)*cos(z)"), pe("sin(x-y-z)"), pe("exp(x+y+z)")),
        curl_f=VectorField(pe("t*cos(x)"), pe("exp(t)"), pe("t*z*sin(x)")),
        potential=RadialPotential(),
        reference=(2.0, 0.0, 0.0, 0.0),
        p0=5.0,
    )
    flow = solve_flow(prob)
    for name, comp in zip(("psi_x", "psi_y", "psi_z"), flow.psi.components()):
        print(f"  {name} = {to_display(comp)}")
    for name, comp in zip(("(curl psi)_x", "(curl psi)_y", "(curl psi)_z"),
                          flow.curl_psi.components()):
        print(f"  {name} = {to_display(comp)}")
    p = flow.pressure_at((1.0, 1.0, 1.0, 0.0))
    print(f"  pressure at (1,1,1): {p:.12f}   "
          f"(p0 + 1/2 - 1/sqrt(3) = {5 + 0.5 - 1/math.sqrt(3):.12f})")
    print()
    print("  note: the e^(x+y+z) vorticity component grows on the integration")
    print("  box, so velocity samples below evaluate the quadrature formula as")
    print("  written; the kernel identity only approximates the symbolic inverse")
    print("  for data that stays bounded on the box (see the next block).")
    start = time.perf_counter()
    pts = [(0.5, 0.0, 0.0), (1.0, 0.5, -0.5)]
    samples = flow.velocity_at(pts, t=0.2, settings=QuadratureSettings())
    for point, row in zip(pts, samples):
        vals = ", ".join(f"{v.real:+.4f}" for v in row)
        print(f"  u{point} at t=0.2  ~ ({vals})   [formula as written]")
    print(f"  quadrature time: {(time.perf_counter() - start) * 1e3:.1f} ms")

    banner("5b. Velocity sampling on bounded vorticity  curl(u0) = (0, 0, sin x)")
    bounded = solve_flow(FlowProblem(
        viscosity=0.1,
        curl_u0=VectorField(pe("0"), pe("0"), pe("sin(x)")),
    ))
    start = time.perf_counter()
    pts = [(0.5, 0.0, 0.0), (-0.9, 0.4, 0.2)]
    samples = bounded.velocity_at(pts, t=0.2, settings=QuadratureSettings())
    for point, row in zip(pts, samples):
        want = -math.exp(-0.1 * 0.2) * math.cos(point[0])
        vals = ", ".join(f"{v.real:+.4f}" for v in row)
        print(f"  u{point} at t=0.2 ~ ({vals})   exact u_y = {want:+.4f}")
    print(f"  quadrature time: {(time.perf_counter() - start) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
