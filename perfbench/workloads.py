"""Workload inputs, operations and correctness oracles for the benchmark.

Each workload is built from a seed into a :class:`Workload`: the problem
files it writes, the CLI argument lists of one operation, and the
checks that judge each operation's output. Operations run
``pdeseries.cli.main`` in-process; checks run outside the timed region
and share no evaluation code with the program (they use the program's
parser only to read its printed expressions back).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("problems", "cubic", "flow-quadrature")

# The bundled problem files of the `problems` workload and the closed
# form each must resolve to, as (kind label, u(x, y, z, t)).
PROBLEM_ANSWERS = {
    "example1_rlw.prob": ("geometric", lambda x, y, z, t: x / (1 + t)),
    "example2_transport.prob": ("exponential", lambda x, y, z, t: np.exp(-x - t)),
    "example3_fourth_order.prob": (
        "exponential",
        lambda x, y, z, t: np.exp(-t) * np.sin(x),
    ),
    "example4_ball.prob": (
        "exponential, on V = r*T",
        lambda x, y, z, t: np.exp(-t) * np.sin(x),
    ),
    "heat_product_modes.prob": (
        "exponential",
        lambda x, y, z, t: np.exp(-1.5 * t) * np.sin(x) * np.sin(y) * np.sin(z),
    ),
}
FLOW_FILE = "example5_flow.prob"
# p0 + phi_t(ref) - phi_t(query) with phi = t/r, ref = (2, 0, 0), query = (1, 1, 1).
FLOW_PRESSURE = 5 + 0.5 - 1 / math.sqrt(3)
SOLVE_SAMPLE = "x:-1:1:21,t:0.05:0.2:11"
VERIFY_TOLERANCE = 1e-5  # the CLI's default --tolerance

# Order 5 keeps one operation near half a second (w_5 holds 650 atoms),
# so a run holds enough operations for a steady median.
CUBIC_ORDER = 5
CUBIC_COEFFS = {"a1": -1.0, "b1": -0.5, "c": 0.5, "i": 2, "k": 2}
# Largest accepted relative residual of one recursion step. Correct
# output reaches 2.6e-5 (the FD truncation error, at a corner of the
# seeded range of alpha and beta); a 1e-3 perturbation of one w_n gives
# about 1e-3.
CUBIC_STEP_TOL = 1e-4

FLOW_QUAD_PROBLEM = """\
kind = flow
nu = 0.1
curl_u0 = (0, sin(z), sin(x))
curl_f = (0, 0, t*sin(x))
"""
# Accepted quadrature error relative to the field's largest magnitude.
# With the default QuadratureSettings the error is 1-2% between midpoint
# nodes but reaches 23% at a point on a node (the small-tau kernels are
# narrower than the grid step), so the check rejects wrong fields (a
# flipped sign gives 100% or more) and the error itself is reported.
FLOW_QUAD_TOL = 0.5


class CheckFailed(Exception):
    """An operation's output disagrees with the workload's oracle."""


@dataclass
class Outcome:
    """Result of one CLI invocation."""

    argv: list[str]
    status: int | str
    stdout: str
    stderr: str


@dataclass
class Workload:
    name: str
    seed: int
    calls: list[list[str]]
    params: dict = field(default_factory=dict)
    # Oracle error of the latest checked operation, relative to its scale.
    max_rel_err: float | None = None
    reference_stdout: str | None = None
    verified: set = field(default_factory=set)


def run_cli(main, argv) -> Outcome:
    """Run ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except Exception as exc:  # counted as a failed operation
            status = f"{type(exc).__name__}: {exc}"
    return Outcome(list(argv), status, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------
# Building inputs
# ---------------------------------------------------------------------


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the workload's input files under ``workdir`` and return it."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    inputs = workdir / "in"
    outputs = workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    if name == "problems":
        files = sorted(PROBLEM_ANSWERS) + [FLOW_FILE]
        rng.shuffle(files)
        calls = []
        for fname in files:
            path = inputs / fname
            shutil.copyfile(root / "problems" / fname, path)
            if fname == FLOW_FILE:
                calls.append(["flow", str(path), "--pressure", "1,1,1,0"])
            else:
                csv_path = outputs / (Path(fname).stem + ".csv")
                calls.append(
                    ["solve", str(path), "--verify", "--sample", SOLVE_SAMPLE,
                     "--csv", str(csv_path)]
                )
        return Workload(name, seed, calls)
    if name == "cubic":
        alpha, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        c = CUBIC_COEFFS
        path = inputs / "cubic.prob"
        path.write_text(
            "kind = evolution\n"
            f"a.1 = {c['a1']!r}\nb.1 = {c['b1']!r}\nc = {c['c']!r}\n"
            f"i = {c['i']}\nk = {c['k']}\n"
            f"h = {alpha!r}*exp(-x) + {beta!r}*x*sin(x)\n",
            encoding="utf-8",
        )
        calls = [["solve", str(path), "--order", str(CUBIC_ORDER)]]
        return Workload(name, seed, calls, {"alpha": alpha, "beta": beta})
    # A 2x2 grid in x, y at one seeded z and t: 4 points per operation.
    bounds = [(rng.uniform(-1.0, -0.25), rng.uniform(0.25, 1.0)) for _ in range(2)]
    z, t = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 0.5)
    spec = ",".join(
        f"{v}:{lo!r}:{hi!r}:2" for v, (lo, hi) in zip("xy", bounds)
    ) + f",z:{z!r}:{z!r}:1,t:{t!r}:{t!r}:1"
    path = inputs / "bounded.prob"
    path.write_text(FLOW_QUAD_PROBLEM, encoding="utf-8")
    calls = [["flow", str(path), "--quadrature", spec, "--csv", str(outputs / "q.csv")]]
    return Workload(name, seed, calls, {"bounds": bounds, "z": z, "t": t})


# ---------------------------------------------------------------------
# Oracle helpers (no program code beyond the parser)
# ---------------------------------------------------------------------


def eval_atoms(poly, x, y=0.0, z=0.0, t=0.0) -> np.ndarray:
    """Evaluate an ExpPoly's atoms at broadcast points with numpy."""
    x, y, z, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z, t)))
    total = np.zeros(x.shape, dtype=complex)
    for atom in poly.atoms:
        term = np.full(x.shape, atom.coeff, dtype=complex)
        for arr, power, slope in zip((x, y, z, t), atom.powers, atom.expo):
            if power:
                term = term * arr**power
            if slope:
                term = term * np.exp(slope * arr)
        total += term
    return total


def _read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["x", "y", "z", "t", "value_re", "value_im"]:
        raise CheckFailed(f"{path}: missing CSV header")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.ndim != 2 or data.shape[1] != 6:
        raise CheckFailed(f"{path}: malformed rows")
    return data[:, :4], data[:, 4] + 1j * data[:, 5]


def _printed(stdout: str, label: str) -> str:
    prefix = f"{label} = "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckFailed(f"no line '{label} = ...' in output")


def _rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-300) -> float:
    """max|got - want| over the larger of max|want| and ``floor``."""
    scale = max(float(np.max(np.abs(want), initial=0.0)), floor)
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


def _closed_form_value(text: str, parse, points) -> np.ndarray:
    """Evaluate a printed closed form: an expression or '(base) / (denom)'."""
    if text.startswith("(") and ") / (" in text and text.endswith(")"):
        base, denom = text[1:-1].split(") / (", 1)
        return eval_atoms(parse(base), *points) / eval_atoms(parse(denom), *points)
    return eval_atoms(parse(text), *points)


# ---------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------


def check_problems(workload: Workload, outcomes: list[Outcome], parse) -> float:
    """Exit status 0 under --verify and the known closed forms.

    Returns the largest FD residual the program printed, as a share of
    the --verify tolerance.
    """
    rng = np.random.default_rng(workload.seed)
    probe = tuple(rng.uniform(-1.0, 1.0, 8) for _ in range(3)) + (rng.uniform(0, 0.3, 8),)
    worst = 0.0
    for outcome in outcomes:
        fname = Path(outcome.argv[1]).name
        if outcome.status != 0:
            raise CheckFailed(f"{fname}: exit status {outcome.status}: {outcome.stderr}")
        if fname == FLOW_FILE:
            line = [s for s in outcome.stdout.splitlines() if s.startswith("pressure at")]
            if not line or abs(float(line[0].rsplit(":", 1)[1]) - FLOW_PRESSURE) > 1e-9:
                raise CheckFailed(f"{fname}: pressure line {line!r}")
            continue
        kind, answer = PROBLEM_ANSWERS[fname]
        head = f"closed form ({kind}): "
        lines = [s for s in outcome.stdout.splitlines() if s.startswith(head)]
        if len(lines) != 1:
            raise CheckFailed(f"{fname}: expected one '{head}...' line")
        shown = _closed_form_value(lines[0][len(head):], parse, probe)
        if _rel_err(shown, answer(*probe)) > 1e-9:
            raise CheckFailed(f"{fname}: closed form {lines[0]!r} is wrong")
        points, values = _read_csv(outcome.argv[-1])
        # Absolute below magnitude 1: the heat samples lie on y = z = 0,
        # where the exact answer is identically zero.
        if len(values) != 21 * 11 or _rel_err(values, answer(*points.T), floor=1.0) > 1e-9:
            raise CheckFailed(f"{fname}: sampled values disagree with the closed form")
        res = [s for s in outcome.stdout.splitlines() if s.startswith("residual: ")]
        if len(res) != 1:
            raise CheckFailed(f"{fname}: expected one residual line")
        max_abs = float(res[0].split("max|residual| = ", 1)[1].split(",", 1)[0])
        worst = max(worst, max_abs / VERIFY_TOLERANCE)
    return worst


def cubic_step_residuals(coeffs: list, problem: dict) -> list[float]:
    """Relative residual of each recursion step of the cubic problem.

    For every n the step reads ``i*w_{n+1} - i*c*d^i w_{n+1}/dx^i =
    a1*d(w_n)/dx + b1*d((u^{k+1})_n)/dx``; derivatives are x-only central
    differences (``residuals.stencil`` weights, step 1e-3) on 21 points of [-1, 1],
    and ``(u^{k+1})_n`` is the multinomial sum of point values. Each
    entry is max|lhs - rhs| over max(max|lhs|, max|rhs|).
    """
    from pdeseries.residuals import stencil

    i_ord, k1 = problem["i"], problem["k"] + 1
    hx = 1e-3
    xs = np.linspace(-1.0, 1.0, 21)
    offsets = sorted(set(stencil(i_ord)) | set(stencil(1)))
    vals = [
        {o: eval_atoms(w, xs + o * hx) for o in offsets} for w in coeffs
    ]

    def power_coeff(n, o):
        # (u^{k1})_n for u = sum t^n/n! w_n: sum over ordered splits of n.
        total = np.zeros_like(xs, dtype=complex)
        for split in _compositions(n, k1):
            weight = math.factorial(n)
            term = np.ones_like(xs, dtype=complex)
            for j in split:
                weight //= math.factorial(j)
                term = term * vals[j][o]
            total += weight * term
        return total

    def deriv(fn, order):
        return sum(w * fn(o) for o, w in stencil(order).items()) / hx**order

    out = []
    for n in range(len(coeffs) - 1):
        lhs = 1j * vals[n + 1][0] - 1j * problem["c"] * deriv(lambda o: vals[n + 1][o], i_ord)
        rhs = problem["a1"] * deriv(lambda o: vals[n][o], 1) + problem["b1"] * deriv(
            lambda o: power_coeff(n, o), 1
        )
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        out.append(float(np.max(np.abs(lhs - rhs)) / scale))
    return out


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for j in range(n + 1):
        for rest in _compositions(n - j, parts - 1):
            yield (j,) + rest


def parse_coefficients(stdout: str, parse) -> list:
    """Read back every printed ``w[n] = ...`` line."""
    coeffs = []
    for line in stdout.splitlines():
        if line.startswith("w["):
            index, text = line[2:].split("] = ", 1)
            if int(index) != len(coeffs):
                raise CheckFailed(f"coefficient w[{index}] out of order")
            coeffs.append(parse(text))
    return coeffs


def check_cubic_deep(workload: Workload, stdout: str, parse, order: int = CUBIC_ORDER) -> float:
    """Re-parse w[0..order] and check every recursion step; returns the
    worst relative step residual."""
    coeffs = parse_coefficients(stdout, parse)
    if len(coeffs) != order + 1:
        raise CheckFailed(f"expected {order + 1} coefficients, got {len(coeffs)}")
    xs = np.linspace(-1.0, 1.0, 21)
    alpha, beta = workload.params["alpha"], workload.params["beta"]
    h = alpha * np.exp(-xs) + beta * xs * np.sin(xs)
    if _rel_err(eval_atoms(coeffs[0], xs), h) > 1e-12:
        raise CheckFailed("w[0] is not the initial datum")
    steps = cubic_step_residuals(coeffs, CUBIC_COEFFS)
    worst = max(steps)
    if not worst <= CUBIC_STEP_TOL:
        raise CheckFailed(f"recursion step residuals {steps} exceed {CUBIC_STEP_TOL}")
    workload.params["atoms"] = [len(w.atoms) for w in coeffs]
    return worst


def check_flow_quadrature(stdout: str, csv_base: str, parse) -> float:
    """Compare every quadrature sample with the printed symbolic velocity;
    returns the error relative to the field's largest magnitude."""
    stem = csv_base.rpartition(".")[0]
    got, want = [], []
    for comp, suffix in (("u_x", "ux"), ("u_y", "uy"), ("u_z", "uz")):
        symbolic = parse(_printed(stdout, comp))
        points, values = _read_csv(f"{stem}_{suffix}.csv")
        got.append(values)
        want.append(eval_atoms(symbolic, *points.T))
    err = _rel_err(np.concatenate(got), np.concatenate(want))
    if not err <= FLOW_QUAD_TOL:
        raise CheckFailed(f"quadrature error {err:.3e} exceeds {FLOW_QUAD_TOL}")
    return err


def _csv_text(outcome: Outcome) -> str:
    path = Path(outcome.argv[-1])
    return path.read_text(encoding="utf-8") if "--csv" in outcome.argv and path.exists() else ""


def check(workload: Workload, outcomes: list[Outcome], parse) -> None:
    """Check one operation; raises CheckFailed. Sets workload.max_rel_err."""
    if workload.name == "problems":
        # Output identical to an already verified pass is verified too.
        signature = tuple((o.status, o.stdout, _csv_text(o)) for o in outcomes)
        if signature not in workload.verified:
            workload.max_rel_err = check_problems(workload, outcomes, parse)
            workload.verified.add(signature)
        return
    (outcome,) = outcomes
    if outcome.status != 0:
        raise CheckFailed(f"exit status {outcome.status}: {outcome.stderr}")
    if workload.name == "cubic":
        # The deep check re-parses ~3900 atoms; it runs once per run
        # (see check_cubic_deep), later operations must repeat its output.
        if workload.reference_stdout is None:
            workload.reference_stdout = outcome.stdout
        elif outcome.stdout != workload.reference_stdout:
            raise CheckFailed("stdout differs from the run's first operation")
        return
    workload.max_rel_err = check_flow_quadrature(outcome.stdout, outcome.argv[-1], parse)
