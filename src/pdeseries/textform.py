"""Text front end: expression parser and canonical display.

Grammar accepted by :func:`parse_expression`::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := ('+' | '-') unary | power
    power   := primary ('^' INTEGER)?
    primary := NUMBER | 'i' | 'x' | 'y' | 'z' | 't'
             | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'exp' | 'sin' | 'cos' | 'sinh' | 'cosh'

Function arguments must be linear forms in x, y, z, t (a constant term
is allowed and folded into the coefficient). sin, cos, sinh, cosh are
rewritten into complex-exponential atoms on the spot, so the parser
always produces a canonical :class:`~pdeseries.algebra.ExpPoly`.

:func:`to_display` is the inverse surface: conjugate exponential pairs
are folded back into sin/cos so that real inputs print as real
formulas, and every output re-parses to the same atoms.
"""

from __future__ import annotations

import re

from .algebra import VARIABLES, Atom, ExpPoly
from .errors import ExpressionSyntaxError

_FUNCTIONS = ("exp", "sin", "cos", "sinh", "cosh")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].isspace():
            break
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            where = len(text) - len(stripped)
            raise ExpressionSyntaxError(
                f"unexpected character {text[where]!r}", where
            )
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> ExpPoly:
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {value!r}", pos)
        return poly

    def expr(self) -> ExpPoly:
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> ExpPoly:
        poly = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.unary()
            else:
                return poly

    def unary(self) -> ExpPoly:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.unary()
            return -inner if value == "-" else inner
        return self.power()

    def power(self) -> ExpPoly:
        base = self.primary()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "number" or not re.fullmatch(r"\d+", value):
                raise ExpressionSyntaxError(
                    "exponent must be a nonnegative integer literal", pos
                )
            self.advance()
            return base ** int(value)
        return base

    def primary(self) -> ExpPoly:
        kind, value, pos = self.advance()
        if kind == "number":
            return ExpPoly.constant(float(value))
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            if value == "i":
                return ExpPoly.constant(1j)
            if value in VARIABLES:
                return ExpPoly.variable(value)
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                const, slopes = _as_linear_form(arg, value, pos)
                return _apply_function(value, const, slopes)
            raise ExpressionSyntaxError(f"unknown symbol {value!r}", pos)
        raise ExpressionSyntaxError(
            f"unexpected {value!r}" if value else "unexpected end of input", pos
        )


def _as_linear_form(poly: ExpPoly, func: str, pos: int):
    """Split a parsed argument into (constant, slope 4-tuple) or reject."""
    const = 0j
    slopes = [0j, 0j, 0j, 0j]
    for atom in poly.atoms:
        if any(c != 0 for c in atom.expo) or sum(atom.powers) > 1:
            raise ExpressionSyntaxError(
                f"argument of {func} must be linear in x, y, z, t", pos
            )
        if sum(atom.powers) == 0:
            const += atom.coeff
        else:
            slopes[atom.powers.index(1)] += atom.coeff
    return const, tuple(slopes)


def _exp_atom(coeff: complex, slopes) -> Atom:
    return Atom(coeff, (0, 0, 0, 0), tuple(slopes))


def _apply_function(func: str, const: complex, slopes) -> ExpPoly:
    import cmath

    neg = tuple(-s for s in slopes)
    if func == "exp":
        return ExpPoly([_exp_atom(cmath.exp(const), slopes)])
    if func == "sin":
        up = cmath.exp(1j * const) / 2j
        dn = cmath.exp(-1j * const) / 2j
        return ExpPoly(
            [
                _exp_atom(up, tuple(1j * s for s in slopes)),
                _exp_atom(-dn, tuple(-1j * s for s in slopes)),
            ]
        )
    if func == "cos":
        up = cmath.exp(1j * const) / 2
        dn = cmath.exp(-1j * const) / 2
        return ExpPoly(
            [
                _exp_atom(up, tuple(1j * s for s in slopes)),
                _exp_atom(dn, tuple(-1j * s for s in slopes)),
            ]
        )
    if func == "sinh":
        return ExpPoly(
            [
                _exp_atom(cmath.exp(const) / 2, slopes),
                _exp_atom(-cmath.exp(-const) / 2, neg),
            ]
        )
    if func == "cosh":
        return ExpPoly(
            [
                _exp_atom(cmath.exp(const) / 2, slopes),
                _exp_atom(cmath.exp(-const) / 2, neg),
            ]
        )
    raise AssertionError(func)


def parse_expression(text: str) -> ExpPoly:
    """Parse ``text`` into a canonical ExpPoly.

    Raises ExpressionSyntaxError with a character position on bad input.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------
# Display
# ---------------------------------------------------------------------

_FOLD_TOL = 1e-12


def _fmt_real(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt_complex(value: complex) -> str:
    re_, im = value.real, value.imag
    if im == 0:
        return _fmt_real(re_)
    if re_ == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_fmt_real(im)}*i"
    sign = "+" if im > 0 else "-"
    imag = "i" if abs(im) == 1 else f"{_fmt_real(abs(im))}*i"
    return f"({_fmt_real(re_)}{sign}{imag})"


def _fmt_linear(vec) -> str:
    """Render a linear form like ``x - 2*y + 0.5*t``."""
    parts = []
    for name, c in zip(VARIABLES, vec):
        if c == 0:
            continue
        if isinstance(c, complex) and c.imag == 0:
            c = c.real
        if c == 1:
            text = name
        elif c == -1:
            text = f"-{name}"
        else:
            coeff = _fmt_real(c) if not isinstance(c, complex) else _fmt_complex(c)
            text = f"{coeff}*{name}"
        if parts and not text.startswith("-"):
            parts.append("+" + text)
        else:
            parts.append(text)
    joined = parts[0] if parts else "0"
    for p in parts[1:]:
        joined += f" {p[0]} {p[1:]}"
    return joined


def _monomial_factors(powers) -> list[str]:
    out = []
    for name, p in zip(VARIABLES, powers):
        if p == 1:
            out.append(name)
        elif p > 1:
            out.append(f"{name}^{p}")
    return out


def _imag_positive(vec) -> bool:
    for c in vec:
        if c.imag > 0:
            return True
        if c.imag < 0:
            return False
    return False


def _clean_amp(value: complex) -> complex:
    scale = max(1.0, abs(value))
    re_ = 0.0 if abs(value.real) <= _FOLD_TOL * scale else value.real
    im = 0.0 if abs(value.imag) <= _FOLD_TOL * scale else value.imag
    return complex(re_, im)


def _render_term(coeff: complex, factors: list[str]) -> str:
    if not factors:
        return _fmt_complex(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{_fmt_complex(coeff)}*{body}"


def to_display(poly: ExpPoly) -> str:
    """Human-readable canonical form; re-parses to the same atoms.

    Conjugate complex-exponential atom pairs fold back into cos/sin
    with any shared real exponent kept as an exp factor.
    """
    if poly.is_zero():
        return "0"
    by_key = {a.key(): a for a in poly.atoms}
    consumed = set()
    terms = []
    for atom in poly.atoms:
        if atom.key() in consumed:
            continue
        imag_vec = tuple(c.imag for c in atom.expo)
        real_vec = tuple(complex(c.real, 0.0) for c in atom.expo)
        if all(v == 0 for v in imag_vec):
            consumed.add(atom.key())
            factors = _monomial_factors(atom.powers)
            if any(c != 0 for c in real_vec):
                factors.append(f"exp({_fmt_linear(real_vec)})")
            terms.append(_render_term(atom.coeff, factors))
            continue
        partner_key = (atom.powers, tuple(c.conjugate() for c in atom.expo))
        partner = by_key.get(partner_key)
        if partner is not None and partner.key() not in consumed:
            # a*e^{i phase} + b*e^{-i phase} = (a+b)*cos + i*(a-b)*sin,
            # exact for any pair of coefficients.
            primary = atom if _imag_positive(atom.expo) else partner
            secondary = partner if primary is atom else atom
            consumed.add(atom.key())
            consumed.add(partner_key)
            factors = _monomial_factors(primary.powers)
            if any(c != 0 for c in real_vec):
                factors.append(f"exp({_fmt_linear(real_vec)})")
            phase = tuple(c.imag for c in primary.expo)
            cos_amp = _clean_amp(primary.coeff + secondary.coeff)
            sin_amp = _clean_amp(1j * (primary.coeff - secondary.coeff))
            if abs(cos_amp) > _FOLD_TOL:
                terms.append(
                    _render_term(cos_amp, factors + [f"cos({_fmt_linear(phase)})"])
                )
            if abs(sin_amp) > _FOLD_TOL:
                terms.append(
                    _render_term(sin_amp, factors + [f"sin({_fmt_linear(phase)})"])
                )
            continue
        # Unpaired complex exponential: raw display.
        consumed.add(atom.key())
        factors = _monomial_factors(atom.powers)
        factors.append(f"exp({_fmt_linear(atom.expo)})")
        terms.append(_render_term(atom.coeff, factors))
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out
