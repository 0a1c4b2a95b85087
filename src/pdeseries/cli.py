"""Command-line front end.

Two subcommands::

    pdeseries solve FILE [--order N] [--verify] [--tolerance TOL]
                         [--sample SPEC --csv PATH]
    pdeseries flow  FILE [--quadrature SPEC --csv PATH] [--mode MODE]
                         [--pressure "x,y,z,t"]
                         [--horizon T] [--nspace N] [--ntau N] [--box L]

``solve`` handles evolution, heat and ball problem files: it prints the
coefficient table, the detected closed form, optionally a finite-
difference residual report (--verify) and CSV samples. ``flow`` prints
the vorticity field, its curl, the symbolic velocity when available and
the pressure closure; --quadrature samples the velocity on a grid via
the heat-kernel inverse Laplacian.

Grid SPEC syntax: comma-separated axes ``var:lo:hi:count``, e.g.
``x:-1:1:21,t:0.05:0.25:11``; unlisted variables are fixed at 0. A
malformed spec, or one given without --csv, exits with status 2 before
anything is solved. --sample writes the candidate that --verify checks.

Diagnostics go to stderr, results to stdout. Exit status is 0 only if
no solver error occurred and, with --verify, the residual beat the
tolerance.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .algebra import VARIABLES, ExpPoly
from .diffusion import ball_series, heat_series
from .errors import PdeSeriesError
from .evolution import solve_series
from .flow import QuadratureSettings, RadialPotential, solve_flow
from .problemfile import load_problem_file
from .residuals import GridSpec, fd_residual_evolution, fd_residual_heat
from .series import detect_closed_form
from .textform import to_display


class _UsageError(Exception):
    """Malformed command-line input; reported with exit status 2."""


def _grid_axes(spec: str | None, csv_path: str | None, option: str):
    """Axes of a ``var:lo:hi:count,...`` spec, or None when not requested.

    Validated before any solving: four fields per axis, a known and
    unrepeated variable, finite bounds and an integer count >= 1, and an
    output path.
    """
    if not spec:
        return None
    if not csv_path:
        raise _UsageError(f"{option} requires --csv PATH")
    axes = {}
    for chunk in spec.split(","):
        parts = chunk.split(":")
        if len(parts) != 4:
            raise _UsageError(f"bad grid axis {chunk!r}; use var:lo:hi:count")
        name, lo, hi, count = parts
        if name not in VARIABLES:
            raise _UsageError(f"unknown grid variable {name!r}")
        if name in axes:
            raise _UsageError(f"grid variable {name!r} repeated")
        try:
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise _UsageError(f"bad grid axis {chunk!r}; use var:lo:hi:count") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _UsageError(f"grid bounds of {name!r} must be finite")
        if count < 1:
            raise _UsageError(f"grid count of {name!r} must be at least 1")
        axes[name] = np.linspace(lo, hi, count)
    return axes


def _mesh_points(axes: dict[str, np.ndarray]) -> np.ndarray:
    """(N, 4) points of the tensor grid in x, y, z, t order, t varying
    fastest; unlisted variables are fixed at 0."""
    mesh = np.meshgrid(*(axes.get(v, [0.0]) for v in VARIABLES), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _write_csv(path: str, points, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "t", "value_re", "value_im"])
        for point, value in zip(points, values):
            writer.writerow(
                [f"{v:.17g}" for v in point]
                + [f"{value.real:.17g}", f"{value.imag:.17g}"]
            )
    print(f"wrote {len(values)} samples to {path}")


def _print_series(series, order):
    for n in range(min(order, series.order) + 1):
        print(f"w[{n}] = {to_display(series.coefficients[n])}")


def _solve_verify_grid(kind, problem) -> GridSpec:
    if kind == "ball":
        return GridSpec(ranges={"x": (0.1, 1.0, 19), "t": (0.01, 0.1, 10)})
    if kind == "heat":
        spatial = [v for v in ("x", "y", "z") if problem.u0.depends_on(v)] or ["x"]
        ranges = {v: (-1.0, 1.0, 9) for v in spatial}
        ranges["t"] = (0.05, 0.25, 9)
        return GridSpec(ranges=ranges)
    max_order = max(
        [m for m, v in problem.a.items() if v]
        + [m for m, v in problem.b.items() if v]
        + [problem.mixed_order if problem.c else 0]
        + [1]
    )
    # 4th-order stencils need a larger step to stay above rounding noise.
    hx = 5e-3 if max_order >= 4 else 1e-3
    return GridSpec(ranges={"x": (-1.0, 1.0, 21), "t": (0.05, 0.25, 11)}, hx=hx)


def cmd_solve(args) -> int:
    axes = _grid_axes(args.sample, args.csv, "--sample")
    pf = load_problem_file(args.file)
    if pf.kind == "flow":
        print("use the 'flow' subcommand for flow problems", file=sys.stderr)
        return 2
    ball = None
    if pf.kind == "evolution":
        series = solve_series(pf.problem, args.order)
    elif pf.kind == "heat":
        series = heat_series(pf.problem, args.order)
    else:
        ball = ball_series(pf.problem, args.order)
        series = ball.v_series
    _print_series(series, args.order)
    closed = detect_closed_form(series)
    if closed:
        label = closed.kind
        if ball is not None:
            print(f"closed form ({label}, on V = r*T): {closed.display()}")
            print(f"temperature: {ball.display_temperature()}")
        else:
            print(f"closed form ({label}): {closed.display()}")
    else:
        print("closed form: none detected")
    if ball is not None and pf.problem.radius is not None and (
        pf.problem.boundary_coeff is not None
    ):
        defect = ball.boundary_defect(t=0.05)
        print(f"boundary defect |dV/dr + (h - 1/R) V| at r=R, t=0.05: {defect:.3e}")
    candidate = closed.grid_fn() if closed else series.partial_sum(args.order).grid_fn()
    status = 0
    if args.verify:
        grid = _solve_verify_grid(pf.kind, pf.problem)
        if pf.kind == "evolution":
            report = fd_residual_evolution(candidate, pf.problem, grid, args.order)
            initial = pf.problem.h
        elif pf.kind == "heat":
            report = fd_residual_heat(
                candidate, pf.problem.diffusivity, grid, order_used=args.order
            )
            initial = pf.problem.u0
        else:
            report = fd_residual_heat(
                candidate,
                pf.problem.diffusivity,
                grid,
                spatial_vars=("x",),
                order_used=args.order,
            )
            initial = pf.problem.v0
        print(f"residual: {report}")
        init_val = series.coefficients[0] - initial
        print(f"initial-datum defect (symbolic): {init_val.max_abs_coeff():.3e}")
        if report.max_abs >= args.tolerance:
            print(
                f"verify FAILED: {report.max_abs:.3e} >= tolerance {args.tolerance:.3e}",
                file=sys.stderr,
            )
            status = 1
    if axes is not None:
        points = _mesh_points(axes)
        _write_csv(args.csv, points, candidate(*points.T))
    return status


def cmd_flow(args) -> int:
    axes = _grid_axes(args.quadrature, args.csv, "--quadrature")
    pf = load_problem_file(args.file)
    if pf.kind != "flow":
        print("the 'flow' subcommand needs a flow problem file", file=sys.stderr)
        return 2
    solution = solve_flow(pf.problem)
    names = ("psi_x", "psi_y", "psi_z")
    for name, comp in zip(names, solution.psi.components()):
        print(f"{name} = {to_display(comp)}")
    for name, comp in zip(("curl_psi_x", "curl_psi_y", "curl_psi_z"),
                          solution.curl_psi.components()):
        print(f"{name} = {to_display(comp)}")
    try:
        velocity = solution.velocity_symbolic()
        for name, comp in zip(("u_x", "u_y", "u_z"), velocity.components()):
            print(f"{name} = {to_display(comp)}")
    except (PdeSeriesError, ValueError) as err:
        print(f"symbolic velocity unavailable ({err}); use --quadrature", file=sys.stderr)
    potential = pf.problem.potential
    if isinstance(potential, RadialPotential):
        phi_text = potential.display()
    elif isinstance(potential, ExpPoly):
        phi_text = to_display(potential)
    else:
        phi_text = "0"
    ref = pf.problem.reference
    print("pressure: p = p0 + d/dt[phi](ref) - d/dt[phi](query) + force terms")
    print(f"  with phi = {phi_text}, ref = {ref}, p0 = {pf.problem.p0}")
    status = 0
    if args.pressure:
        try:
            query = tuple(float(v) for v in args.pressure.split(","))
            if len(query) != 4:
                raise ValueError("pressure query needs x,y,z,t")
            value = solution.pressure_at(query)
            print(f"pressure at {query}: {value:.12g}")
        except PdeSeriesError as err:
            print(f"pressure error: {err}", file=sys.stderr)
            status = 1
        except ValueError as err:
            print(f"pressure error: {err}", file=sys.stderr)
            status = 2
    if axes is not None:
        settings = QuadratureSettings(
            box=(-args.box, args.box),
            horizon=args.horizon,
            n_space=args.nspace,
            n_tau=args.ntau,
        )
        points = _mesh_points(axes)
        slices, samples = [], []
        # One quadrature call per time value, in order of first appearance.
        for t_val in dict.fromkeys(points[:, 3]):
            pts = points[points[:, 3] == t_val]
            slices.append(pts)
            samples.append(solution.velocity_at(
                pts[:, :3], t=t_val, settings=settings, mode=args.mode
            ))
        rows, samples = np.concatenate(slices), np.concatenate(samples)
        stem, dot, ext = args.csv.rpartition(".")
        if not dot:
            stem, ext = args.csv, "csv"
        for comp, suffix in enumerate(("ux", "uy", "uz")):
            _write_csv(f"{stem}_{suffix}.{ext}", rows, samples[:, comp])
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdeseries",
        description="Power-series solutions of evolution, heat and "
        "linearized flow equations, with independent finite-difference checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evolution / heat / ball problems")
    p_solve.add_argument("file")
    p_solve.add_argument("--order", type=int, default=12)
    p_solve.add_argument("--verify", action="store_true")
    p_solve.add_argument("--tolerance", type=float, default=1e-5)
    p_solve.add_argument("--sample", help="grid spec var:lo:hi:count,...")
    p_solve.add_argument("--csv", help="output path for --sample")
    p_solve.set_defaults(func=cmd_solve)

    p_flow = sub.add_parser("flow", help="linearized Navier-Stokes problems")
    p_flow.add_argument("file")
    p_flow.add_argument("--mode", choices=("standard", "paper_literal"),
                        default="standard")
    p_flow.add_argument("--pressure", help="query point 'x,y,z,t'")
    p_flow.add_argument("--quadrature", help="grid spec var:lo:hi:count,...")
    p_flow.add_argument("--csv", help="output base path for --quadrature")
    p_flow.add_argument("--horizon", type=float,
                        default=QuadratureSettings().horizon)
    p_flow.add_argument("--nspace", type=int, default=QuadratureSettings().n_space)
    p_flow.add_argument("--ntau", type=int, default=QuadratureSettings().n_tau)
    p_flow.add_argument("--box", type=float, default=QuadratureSettings().box[1])
    p_flow.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PdeSeriesError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
