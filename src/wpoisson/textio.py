"""Parsing and canonical printing of polynomials and generator maps.

Grammar (ASCII, whitespace insignificant, explicit '*' required):

    expr     := term (("+"|"-") term)*
    term     := signed factor ("*" factor)*
    factor   := base ("^" uint)?
    base     := rational | "x" | "y" | "z" | "s" | "(" expr ")"
    rational := uint ("/" uint)?

"s" is accepted only when parsing over an extension field.  "xy" is a syntax
error; write "x*y".
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import (
    ExtElem,
    ExtensionField,
    MAX_EXPONENT,
    MAX_POWER_TERMS,
    Polynomial,
    QQ,
    VAR_NAMES,
    Weights,
    format_rational,
)


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.offset = offset


class BudgetError(ParseError):
    """well-formed input refused for its size: an integer past the guard, or
    a power or product that could expand past the term budget"""


class _Written:
    """the parser's coefficient ring: coefficients stay as written, an int,
    a Fraction or (where s appears) an ExtElem, so a variable carries the
    int 1 and no unit coefficient reaches ExtElem arithmetic; parse_poly
    coerces each stored term into the field once"""

    zero, one = 0, 1
    coerce = staticmethod(lambda v: v)
    is_zero = staticmethod(lambda v: not v)


def _power(c, e):
    """c^e for a written coefficient: the number's own power, square and
    multiply for an ExtElem, which has no __pow__"""
    if not isinstance(c, ExtElem):
        return c ** e
    out = 1
    while e:
        if e & 1:
            out = out * c
        e >>= 1
        if e:
            c = c * c
    return out


class _Parser:
    def __init__(self, text: str, weights: Weights, field):
        self.text = text
        self.pos = 0
        self.weights = weights
        self.field = field

    # -- token helpers -------------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError("expected %r" % ch, self.pos)

    def uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        digits = self.text[start : self.pos].lstrip("0") or "0"
        # length first: int() refuses strings of more than 4300 digits
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise BudgetError("integer exceeds the 10^6 guard", start)
        return int(digits)

    # -- grammar -------------------------------------------------------------

    def expr(self) -> Polynomial:
        acc = self.term()
        while True:
            if self.take("+"):
                acc = acc + self.term()
            elif self.take("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Polynomial:
        sign = 1
        while True:
            if self.take("-"):
                sign = -sign
            elif self.take("+"):
                pass
            else:
                break
        acc = self.factor()
        while self.take("*"):
            at = self.pos - 1
            factor = self.factor()
            # a product has at most the product of the term counts
            if len(acc.terms) * len(factor.terms) > MAX_POWER_TERMS:
                raise BudgetError("product may expand past the %d-term budget"
                                 % MAX_POWER_TERMS, at)
            if len(acc.terms) == 1 == len(factor.terms):
                # one term times one term: add exponents, multiply coefficients
                ((m1, c1),), ((m2, c2),) = acc.terms.items(), factor.terms.items()
                acc = Polynomial(self.weights, _Written,
                                 {(m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]): c1 * c2})
            else:
                acc = acc * factor
        return acc if sign == 1 else -acc

    def factor(self) -> Polynomial:
        base = self.base()
        if self.take("^"):
            at = self.pos
            e = self.uint()
            # a k-term base has at most comb(e+k-1, k-1) terms in its e-th
            # power; refuse before expanding one that could pass the budget
            k = len(base.terms)
            if k > 1 and math.comb(e + k - 1, k - 1) > MAX_POWER_TERMS:
                raise BudgetError("power may expand past the %d-term budget"
                                 % MAX_POWER_TERMS, at)
            if k == 1:
                # a one-term power: scale the exponents, power the coefficient
                ((m, c),) = base.terms.items()
                return Polynomial(self.weights, _Written,
                                  {(m[0] * e, m[1] * e, m[2] * e): _power(c, e)})
            return base ** e
        return base

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return inner
        if ch in VAR_NAMES:
            self.pos += 1
            self._reject_adjacent_name()
            return Polynomial.variable(self.weights, ch, _Written)
        if ch == "s":
            if not isinstance(self.field, ExtensionField):
                raise ParseError("'s' requires an extension coefficient field", self.pos)
            self.pos += 1
            self._reject_adjacent_name()
            return Polynomial.constant(self.weights, self.field.generator, _Written)
        if ch.isdigit():
            num = self.uint()
            if self.take("/"):
                den = self.uint()
                if den == 0:
                    raise ParseError("zero denominator", self.pos)
                return Polynomial.constant(self.weights, Fraction(num, den), _Written)
            return Polynomial.constant(self.weights, num, _Written)
        raise ParseError("unexpected character %r" % (ch or "end of input"), self.pos)

    def _reject_adjacent_name(self):
        # implicit multiplication like "xy" or "2x" after a name is an error
        if self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            raise ParseError(
                "implicit multiplication is not accepted; write '*'", self.pos
            )


def parse_poly(text: str, weights: Weights, field=QQ) -> Polynomial:
    p = _Parser(text, weights, field)
    result = p.expr()
    p._skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input", p.pos)
    return Polynomial(weights, field, result.terms)


def _format_coeff(field, coef) -> str:
    if isinstance(coef, ExtElem):
        return "(" + field.format(coef) + ")"
    return format_rational(coef)


def format_poly(f: Polynomial) -> str:
    """Canonical form: terms in descending monomial order, reduced fractions.
    parse_poly(format_poly(f)) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for m, coef in f.sorted_terms():
        factors = []
        for idx, e in enumerate(m):
            if e == 1:
                factors.append(VAR_NAMES[idx])
            elif e > 1:
                factors.append("%s^%d" % (VAR_NAMES[idx], e))
        body = "*".join(factors)
        if isinstance(coef, ExtElem):
            cs = _format_coeff(f.field, coef)
            text = cs + "*" + body if body else cs
            parts.append(("+", text))
            continue
        neg = coef < 0
        mag = -coef if neg else coef
        if body and mag == 1:
            text = body
        elif body:
            text = format_rational(mag) + "*" + body
        else:
            text = format_rational(mag)
        parts.append(("-" if neg else "+", text))
    sign, first = parts[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += sign + text
    return out


def parse_map(text: str, weights: Weights, field=QQ):
    """Parse "x->expr; y->expr; z->expr" into a triple of polynomials,
    ordered (image of x, image of y, image of z)."""
    images = {}
    chunks = [c for c in text.split(";") if c.strip()]
    for chunk in chunks:
        if "->" not in chunk:
            raise ParseError("map entries must look like 'x->expr'", 0)
        name, expr = chunk.split("->", 1)
        name = name.strip()
        if name not in VAR_NAMES:
            raise ParseError("unknown generator %r" % name, 0)
        if name in images:
            raise ParseError("duplicate generator %r" % name, 0)
        images[name] = parse_poly(expr, weights, field)
    missing = [v for v in VAR_NAMES if v not in images]
    if missing:
        raise ParseError("missing generator %r" % missing[0], 0)
    return (images["x"], images["y"], images["z"])
