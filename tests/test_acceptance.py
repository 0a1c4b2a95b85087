"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion report. Tolerances are pinned here, not configurable.
"""

import math
import random
import time

import pytest

from pdeseries import (
    BallProblem,
    EvolutionProblem,
    FlowProblem,
    GridSpec,
    HeatProblem,
    PowersTable,
    RadialPotential,
    ResonanceError,
    VectorField,
    ball_series,
    detect_closed_form,
    fd_residual_evolution,
    fd_residual_heat,
    heat_semigroup,
    heat_series,
    inverse_laplacian_quadrature,
    inverse_laplacian_symbolic,
    laplacian,
    parse_expression as pe,
    solve_flow,
    solve_series,
)
from helpers import ball_temperature, brute_force_power_entry, poly_close


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def closed_form_matches(cf, exact, points, tol):
    fn = cf.grid_fn()
    for x, t in points:
        got = complex(fn(x, 0.0, 0.0, t))
        want = exact(x, t)
        if abs(got - want) > tol:
            return False
    return True


def eval_points(rng, n=20, t_range=(0.02, 0.2)):
    return [
        (rng.uniform(-1.0, 1.0), rng.uniform(*t_range)) for _ in range(n)
    ]


def test_criterion_1_rlw():
    t0 = time.perf_counter()
    prob = EvolutionProblem(b={1: -0.5}, c=1.0, mixed_order=2, nonlin_exponent=1,
                            h=pe("x"))
    series = solve_series(prob, 8)
    for n, w in enumerate(series.coefficients):
        expected = pe("x").scale(math.factorial(n) * 1j**n)
        assert poly_close(w, expected, 1e-10), f"w_{n} != n! i^n x"
    cf = detect_closed_form(series)
    assert cf.kind == "geometric"
    assert abs(cf.ratio - 1j) < 1e-10
    rng = random.Random(101)
    assert closed_form_matches(
        cf, lambda x, t: x / (1 + t), eval_points(rng), 1e-8
    )
    grid = GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.2, 11)})
    res = fd_residual_evolution(cf.grid_fn(), prob, grid)
    assert res.max_abs < 1e-5, f"residual {res.max_abs:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(1, f"RLW series n! i^n x, geometric closed form x/(1+t), "
              f"residual {res.max_abs:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_2_transport():
    t0 = time.perf_counter()
    prob = EvolutionProblem(a={1: -1.0}, c=2.0, mixed_order=2, h=pe("exp(-x)"))
    series = solve_series(prob, 8)
    for n, w in enumerate(series.coefficients):
        assert poly_close(w, pe("exp(-x)").scale(1j**n), 1e-10), f"w_{n} != i^n e^-x"
    cf = detect_closed_form(series)
    assert cf.kind == "exponential"
    assert abs(cf.ratio - 1j) < 1e-10
    rng = random.Random(202)
    assert closed_form_matches(
        cf, lambda x, t: math.exp(-t - x), eval_points(rng), 1e-8
    )
    grid = GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.2, 11)})
    res = fd_residual_evolution(cf.grid_fn(), prob, grid)
    assert res.max_abs < 1e-5, f"residual {res.max_abs:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(2, f"coefficients i^n e^-x, closed form e^(-t-x), "
              f"residual {res.max_abs:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_3_fourth_order():
    t0 = time.perf_counter()
    prob = EvolutionProblem(a={4: -2.0}, c=1.0, mixed_order=2, h=pe("sin(x)"))
    series = solve_series(prob, 8)
    for n, w in enumerate(series.coefficients):
        assert poly_close(w, pe("sin(x)").scale(1j**n), 1e-10), f"w_{n} != i^n sin x"
    cf = detect_closed_form(series)
    assert cf.kind == "exponential"
    assert poly_close(cf.as_exppoly(), pe("exp(-t)*sin(x)"), 1e-10)
    # The 4th-derivative stencil divides by h^4; h = 5e-3 keeps float
    # rounding (~eps/h^4) well below the 1e-5 gate, unlike the h = 1e-3
    # used for lower-order problems.
    grid = GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.25, 11)}, hx=5e-3)
    res = fd_residual_evolution(cf.grid_fn(), prob, grid)
    assert res.max_abs < 1e-5, f"residual {res.max_abs:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(3, f"coefficients i^n sin x, closed form e^-t sin x, "
              f"4th-derivative residual {res.max_abs:.2e}, {elapsed*1e3:.0f} ms")


def _random_eigen_poly(rng):
    """Random Laplacian eigen-atoms with |eigenvalue| <= 2, so that the
    order-12 truncation error stays below 1e-8 for a^2 t <= 0.5."""
    kind = rng.choice(["trig", "exp", "linear_trig", "mix"])
    amp = round(rng.uniform(0.5, 2.0), 3)
    if kind == "trig":
        fn = rng.choice(["sin", "cos"])
        arg = rng.choice(["x", "y", "z", "x-y", "x+z", "y-z"])
        return pe(f"{fn}({arg})").scale(amp)
    if kind == "exp":
        arg = rng.choice(["x", "-y", "z", "x+y", "x-z", "-y-z"])
        return pe(f"exp({arg})").scale(amp)
    if kind == "linear_trig":
        mono = rng.choice(["z", "y"])
        return pe(f"{mono}*sin(x)").scale(amp)
    return pe("sin(x)").scale(amp) + pe("cos(y)").scale(rng.uniform(0.5, 1.5))


def test_criterion_4_heat_coefficient_identity():
    rng = random.Random(404)
    checked = 0
    for _ in range(25):
        u0 = _random_eigen_poly(rng)
        a2 = rng.uniform(0.05, 2.0)
        prob = HeatProblem(a2, u0)
        series = heat_series(prob, 12)
        for k in range(11):
            expected = laplacian(series.coefficients[k]).scale(-1j * a2)
            assert poly_close(series.coefficients[k + 1], expected, 1e-10), (
                f"w_{k+1} != -i a^2 Lap w_{k}"
            )
        closed = heat_semigroup(u0, a2)
        partial = series.partial_sum(12)
        for _ in range(4):
            point = (
                rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
                rng.uniform(0.0, 0.5) / a2,
            )
            got = partial.evaluate(point)
            want = closed.evaluate(point)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (
                f"partial sum vs semigroup at {point}: {abs(got - want):.2e}"
            )
        checked += 1
    report(4, f"{checked} random eigen data: w_k+1 = -i a^2 Lap w_k for k <= 10, "
              "order-12 sums match the semigroup to 1e-8 at a^2 t <= 0.5")


def test_criterion_5_ball():
    # kappa = 1 keeps the FD truncation of the exact solution below the
    # 1e-6 gate on the stated grid (error scales like kappa^6 h^2).
    kappa, a2 = 1.0, 1.0
    series = ball_series(BallProblem(a2, pe(f"sin({kappa}*x)")), 12)
    cf = detect_closed_form(series)
    assert cf.kind == "exponential"
    grid = GridSpec(ranges={"x": (0.1, 1.0, 19), "t": (0.01, 0.1, 10)})
    res = fd_residual_heat(cf.grid_fn(), a2, grid)
    assert res.max_abs < 1e-6, f"V residual {res.max_abs:.3e}"
    # spot-check the presentation T = e^{-a^2 kappa^2 t} sin(kappa r)/r
    for r, t in ((0.3, 0.05), (0.9, 0.02)):
        want = math.exp(-a2 * kappa**2 * t) * math.sin(kappa * r) / r
        assert ball_temperature(series, r, t) == pytest.approx(want, abs=1e-9)
    # T0 = 1: series terminates and T stays exactly 1
    const = ball_series(BallProblem.from_temperature(a2, pe("1")), 12)
    assert all(w.is_zero() for w in const.coefficients[1:])
    for r in (0.1, 0.45, 1.0):
        for t in (0.0, 0.07, 0.3):
            assert ball_temperature(const, r, t) == 1.0
    report(5, f"V = sin(r) residual {res.max_abs:.2e} on r in [0.1,1], "
              "t in [0.01,0.1]; T0 = 1 gives T == 1 exactly")


def test_criterion_6_flow_vorticity():
    t0 = time.perf_counter()
    nu = 0.1
    prob = FlowProblem(
        viscosity=nu,
        curl_u0=VectorField(pe("cos(y)*cos(z)"), pe("sin(x-y-z)"), pe("exp(x+y+z)")),
        curl_f=VectorField(pe("t*cos(x)"), pe("exp(t)"), pe("t*z*sin(x)")),
    )
    sol = solve_flow(prob)
    duhamel = "100*(-1 + 0.1*t + exp(-0.1*t))"
    expected_psi = (
        pe(f"exp(-0.2*t)*cos(y)*cos(z) + {duhamel}*cos(x)"),
        pe("exp(-0.3*t)*sin(x-y-z) + exp(t) - 1"),
        pe(f"exp(0.3*t + x + y + z) + {duhamel}*z*sin(x)"),
    )
    for got, want in zip(sol.psi.components(), expected_psi):
        assert poly_close(got, want, 1e-10), "psi component mismatch"
    expected_curl = (
        pe("exp(0.3*t + x + y + z) + exp(-0.3*t)*cos(x-y-z)"),
        pe(f"-exp(0.3*t + x + y + z) - exp(-0.2*t)*cos(y)*sin(z) - {duhamel}*z*cos(x)"),
        pe("exp(-0.2*t)*sin(y)*cos(z) + exp(-0.3*t)*cos(x-y-z)"),
    )
    for got, want in zip(sol.curl_psi.components(), expected_curl):
        assert poly_close(got, want, 1e-10), "curl psi component mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(6, f"psi and curl(psi) match the displayed formulas atom-wise "
              f"(1e-10), including all Duhamel pieces, {elapsed*1e3:.0f} ms")


def test_criterion_7_pressure():
    prob = FlowProblem(
        viscosity=0.1,
        potential=RadialPotential(),
        reference=(2.0, 0.0, 0.0, 0.0),
        p0=5.0,
    )
    got = solve_flow(prob).pressure_at((1.0, 1.0, 1.0, 0.0))
    want = 5.0 + 0.5 - 1.0 / math.sqrt(3.0)
    assert abs(got - want) < 1e-12, f"pressure {got} != {want}"
    report(7, f"pressure at (1,1,1) with ref (2,0,0), p0=5: {got:.12f} "
              "= 5 + 1/2 - 1/sqrt(3) to 1e-12")


def test_criterion_8_powers_table_oracle():
    checked = 0
    for trial in range(50):
        rng = random.Random(8000 + trial)
        coeffs = [_random_series_coeff(rng) for _ in range(7)]  # Nmax = 6
        table = PowersTable(list(coeffs))
        p = rng.choice([2, 3, 4])
        n = rng.randint(2, 6)
        got = table.entry(p, n)
        want = brute_force_power_entry(coeffs, p, n)
        assert poly_close(got, want, 1e-10), f"power table p={p}, n={n}"
        checked += 1
    report(8, f"{checked} random truncated series: binomial table equals "
              "brute-force Cauchy products (p in 2..4) to 1e-10")


def _random_series_coeff(rng):
    from pdeseries import Atom, ExpPoly

    n_atoms = rng.randint(0, 3)
    atoms = []
    for _ in range(n_atoms):
        coeff = complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
        powers = (rng.randint(0, 2), rng.randint(0, 1), 0, 0)
        slopes = (
            complex(rng.choice([0, 1, -1]), rng.choice([0, 1])),
            0j,
            complex(rng.choice([0, 1]), 0),
            0j,
        )
        atoms.append(Atom(coeff, powers, slopes))
    return ExpPoly(atoms)


def test_criterion_9_inverse_laplacian():
    t0 = time.perf_counter()
    rng = random.Random(909)
    checked = 0
    while checked < 25:
        v = _random_eigen_poly(rng)
        try:
            inv = inverse_laplacian_symbolic(v)
        except Exception:
            continue
        assert poly_close(laplacian(inv), v, 1e-12), "Lap(invLap v) != v"
        checked += 1
    probes = [
        (0.5, 0.2, -0.3), (1.0, -0.8, 0.6), (-1.2, 1.0, 0.4),
        (0.8, 0.0, 0.0), (-0.6, -0.5, 1.1), (1.4, 0.9, -1.0),
    ]
    values = inverse_laplacian_quadrature(pe("sin(x)"), probes)
    worst = 0.0
    for point, got in zip(probes, values):
        want = -math.sin(point[0])
        rel = abs(got.real - want) / abs(want)
        worst = max(worst, rel)
    assert worst < 3e-2, f"quadrature relative error {worst:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    report(9, f"Lap(invLap v) = v on {checked} eigen inputs; standard "
              f"quadrature vs symbolic worst rel {worst:.2e} (< 3e-2), "
              f"{elapsed:.1f} s")


def test_criterion_10_resonance():
    prob = EvolutionProblem(a={1: 1.0}, c=1.0, mixed_order=2, h=pe("exp(x)"))
    with pytest.raises(ResonanceError) as err:
        solve_series(prob, 8)
    assert err.value.step == 1, f"failed at step {err.value.step}, expected 1"
    assert abs(err.value.lam - 1.0) < 1e-12, f"lambda {err.value.lam} != 1"
    assert "lambda" in str(err.value) and "step 1" in str(err.value)
    report(10, f"resonance at step 1 names the class lambda = "
               f"{err.value.lam.real:g} (1 - c*lambda^i = 0)")
