"""Problem-definition files: plain ``key = value`` lines.

One problem per file. ``kind`` must come first and selects the schema;
``#`` starts a comment; blank lines are ignored. Function-valued
entries use the expression grammar; vector-valued entries are three
comma-separated expressions inside parentheses.

    kind = evolution          kind = heat         kind = ball
    a.1 = -1                  a2 = 0.5            a2 = 1
    b.1 = -0.5                u0 = sin(x)         V0 = sin(x)   (or T0 = ...)
    c = 2                                         R = 1         (optional)
    i = 2                                         hbc = 2       (optional)
    k = 1
    h = exp(-x)

    kind = flow
    nu = 0.1
    curl_u0 = (cos(y)*cos(z), sin(x-y-z), exp(x+y+z))   (or u0 = ...)
    curl_f = (t*cos(x), exp(t), t*z*sin(x))
    phi = t/r                 (the built-in radial potential, or an expression)
    f = (sin(x), 0, 0)        (optional; feeds the pressure force terms)
    ref = (2, 0, 0, 0)
    p0 = 5

Unknown keys are rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import ExpPoly, VectorField
from .diffusion import BallProblem, HeatProblem
from .errors import ExpressionSyntaxError, ProblemFileError
from .evolution import EvolutionProblem
from .flow import FlowProblem, RadialPotential
from .textform import parse_expression

_KINDS = ("evolution", "heat", "ball", "flow")
# A problem constructor's ValueError starts with the name of the field it
# rejects; the key that sets that field.
_FIELD_KEYS = {
    "diffusivity": "a2",
    "viscosity": "nu",
    "mixed_order": "i",
    "nonlin_exponent": "k",
}


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    problem: object


def _split_vector(text: str, line: int) -> list[str]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ProblemFileError("vector values use (a, b, c) syntax", line)
    inner = text[1:-1]
    parts = []
    depth = 0
    current = ""
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ProblemFileError("unbalanced parentheses", line)
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    return parts


def _parse_expr(text: str, line: int) -> ExpPoly:
    try:
        return parse_expression(text)
    except ExpressionSyntaxError as err:
        raise ProblemFileError(f"bad expression {text.strip()!r}: {err}", line) from None
    except (OverflowError, ValueError):
        raise ProblemFileError(
            f"expression {text.strip()!r} has a non-finite constant", line
        ) from None


def _parse_field(text: str, line: int) -> VectorField:
    parts = _split_vector(text, line)
    if len(parts) != 3:
        raise ProblemFileError(f"expected 3 components, got {len(parts)}", line)
    cx, cy, cz = (_parse_expr(p, line) for p in parts)
    return VectorField(cx, cy, cz)


def _parse_float(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ProblemFileError(f"expected a number, got {text.strip()!r}", line) from None
    if not math.isfinite(value):
        raise ProblemFileError(f"expected a finite number, got {text.strip()!r}", line)
    return value


def _parse_int(text: str, line: int) -> int:
    value = _parse_float(text, line)
    if not value.is_integer():
        raise ProblemFileError(f"expected an integer, got {text.strip()!r}", line)
    return int(value)


def _read_pairs(text: str):
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemFileError("expected key = value", lineno)
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip(), lineno))
    return pairs


def _take(entries: dict, key: str, default=None):
    return entries.pop(key, (default, None))


def _require(entries: dict, key: str, kind: str):
    if key not in entries:
        raise ProblemFileError(f"{kind} problem requires key {key!r}")
    return entries.pop(key)


def load_problem(text: str) -> ProblemFile:
    """Parse problem text; raises ProblemFileError with line numbers."""
    pairs = _read_pairs(text)
    if not pairs:
        raise ProblemFileError("empty problem file")
    key, value, lineno = pairs[0]
    if key != "kind":
        raise ProblemFileError("first entry must be 'kind = ...'", lineno)
    if value not in _KINDS:
        raise ProblemFileError(
            f"unknown kind {value!r}; expected one of {', '.join(_KINDS)}", lineno
        )
    kind = value
    entries: dict[str, tuple[str, int]] = {}
    for key, val, lineno in pairs[1:]:
        if key in entries:
            raise ProblemFileError(f"duplicate key {key!r}", lineno)
        entries[key] = (val, lineno)
    builder = {
        "evolution": _build_evolution,
        "heat": _build_heat,
        "ball": _build_ball,
        "flow": _build_flow,
    }[kind]
    try:
        problem = builder(entries)
    except ValueError as err:
        message = str(err)
        rejected = next((k for f, k in _FIELD_KEYS.items() if message.startswith(f)), None)
        line = next((n for k, _, n in pairs if k == rejected), None)
        raise ProblemFileError(message, line) from None
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ProblemFileError(f"unknown key {key!r} for kind {kind}", lineno)
    return ProblemFile(kind, problem)


def load_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(fh.read())


def _build_evolution(entries) -> EvolutionProblem:
    a: dict[int, float] = {}
    b: dict[int, float] = {}
    for key in list(entries):
        if key.startswith("a.") or key.startswith("b."):
            value, lineno = entries.pop(key)
            try:
                order = int(key[2:])
            except ValueError:
                raise ProblemFileError(f"bad coefficient key {key!r}", lineno) from None
            target = a if key[0] == "a" else b
            target[order] = _parse_float(value, lineno)
    c_text, c_line = _take(entries, "c", "0")
    i_text, i_line = _take(entries, "i", "1")
    k_text, k_line = _take(entries, "k", "1")
    h_text, h_line = _require(entries, "h", "evolution")
    return EvolutionProblem(
        a=a,
        b=b,
        c=_parse_float(c_text, c_line),
        mixed_order=_parse_int(i_text, i_line),
        nonlin_exponent=_parse_int(k_text, k_line),
        h=_parse_expr(h_text, h_line),
    )


def _build_heat(entries) -> HeatProblem:
    a2_text, a2_line = _require(entries, "a2", "heat")
    u0_text, u0_line = _require(entries, "u0", "heat")
    return HeatProblem(
        diffusivity=_parse_float(a2_text, a2_line),
        u0=_parse_expr(u0_text, u0_line),
    )


def _build_ball(entries) -> BallProblem:
    a2_text, a2_line = _require(entries, "a2", "ball")
    radius = None
    boundary = None
    if "R" in entries:
        text, line = entries.pop("R")
        radius = _parse_float(text, line)
    if "hbc" in entries:
        text, line = entries.pop("hbc")
        boundary = _parse_float(text, line)
    has_t0 = "T0" in entries
    has_v0 = "V0" in entries
    if has_t0 == has_v0:
        raise ProblemFileError("ball problem needs exactly one of T0, V0")
    if has_v0:
        text, line = entries.pop("V0")
        return BallProblem(
            _parse_float(a2_text, a2_line), _parse_expr(text, line), radius, boundary
        )
    text, line = entries.pop("T0")
    return BallProblem.from_temperature(
        _parse_float(a2_text, a2_line), _parse_expr(text, line), radius, boundary
    )


def _build_flow(entries) -> FlowProblem:
    nu_text, nu_line = _require(entries, "nu", "flow")
    has_u0 = "u0" in entries
    has_curl = "curl_u0" in entries
    if has_u0 and has_curl:
        raise ProblemFileError("give u0 or curl_u0, not both")
    if not (has_u0 or has_curl):
        raise ProblemFileError("flow problem requires u0 or curl_u0")
    curl_f = VectorField.zero()
    if "curl_f" in entries:
        text, line = entries.pop("curl_f")
        curl_f = _parse_field(text, line)
    potential = ExpPoly.zero()
    if "phi" in entries:
        text, line = entries.pop("phi")
        if text.replace(" ", "") in ("t/r", "t/sqrt(x^2+y^2+z^2)"):
            potential = RadialPotential()
        else:
            potential = _parse_expr(text, line)
    force = VectorField.zero()
    if "f" in entries:
        text, line = entries.pop("f")
        force = _parse_field(text, line)
    reference = (0.0, 0.0, 0.0, 0.0)
    if "ref" in entries:
        text, line = entries.pop("ref")
        parts = _split_vector(text, line)
        if len(parts) != 4:
            raise ProblemFileError("ref needs 4 entries (x0, y0, z0, t0)", line)
        reference = tuple(_parse_float(p, line) for p in parts)
    p0 = 0.0
    if "p0" in entries:
        text, line = entries.pop("p0")
        p0 = _parse_float(text, line)
    nu = _parse_float(nu_text, nu_line)
    if has_u0:
        text, line = entries.pop("u0")
        return FlowProblem.from_velocity(
            nu, _parse_field(text, line), curl_f, potential, force, reference, p0
        )
    text, line = entries.pop("curl_u0")
    return FlowProblem(
        nu, _parse_field(text, line), curl_f, potential, force, reference, p0
    )
