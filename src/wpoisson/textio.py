"""Parsing and canonical printing of polynomials and generator maps.

Grammar (ASCII, whitespace insignificant, explicit '*' required):

    expr     := term (("+"|"-") term)*
    term     := signed factor ("*" factor)*
    factor   := base ("^" uint)?
    base     := rational | "x" | "y" | "z" | "s" | "(" expr ")"
    rational := uint ("/" uint)?

"s" is accepted only when parsing over an extension field.  "xy" is a syntax
error; write "x*y".

A string is tokenised once, and the grammar runs over the token list.  The
terms of a sum go into one {monomial: coefficient} dict, and one Polynomial
is built at the end: a one-term product or power stays on exponent
triples, and only a product or power of sums goes through Polynomial
arithmetic, after its term budget is checked.  An error finds its offset by
scanning the text again.
"""

from __future__ import annotations

import math
import re
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

# parentheses nest at most this deep: each level is four frames of the
# parser's recursion, and the default limit is 1000
MAX_NESTING = 100

# one token per match: a run of decimal digits (those int() reads), a
# generator name with the word character after it, if any, so that "xy" is
# one token, refused as implicit multiplication, or any other character
# but whitespace
_TOKEN = re.compile(r"\d+|[xyzs]\w?|[^ \t\r\n]")
_UNIT = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}
_ONE = (0, 0, 0)


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__("%s (at byte %d)" % (message, offset))
        self.message = message
        self.offset = offset


class BudgetError(ParseError):
    """well-formed input refused for its size: an integer past the guard,
    parentheses nested past MAX_NESTING, or a power or product that could
    expand past the term budget"""


class _Written:
    """the coefficient ring of the products and powers of sums: coefficients
    stay as written, an int, a Fraction or (where s appears) an ExtElem, so a
    variable carries the int 1 and no unit coefficient reaches ExtElem
    arithmetic; parse_poly coerces each stored term into the field once"""

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


class _Reader:
    """the grammar over the tokens of one string.  A value is the dict
    {monomial: written coefficient} of its nonzero terms; the token list
    ends with "" for the end of the input."""

    def __init__(self, text: str, weights: Weights, field):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]
        self.i = 0
        self.depth = 0
        self.weights = weights
        self.field = field

    def fail(self, message, i, past=0, error=ParseError):
        """raise at ``past`` characters into token i, or at the end of the
        text for the end of the input"""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        raise error(message, starts[i] + past if i < len(starts) else len(self.text))

    def uint(self, i) -> int:
        tok = self.toks[i]
        if not tok.isdecimal():
            self.fail("expected an integer", i)
        digits = tok.lstrip("0") or "0"
        # length first: int() refuses strings of more than 4300 digits
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            self.fail("integer exceeds the 10^6 guard", i, error=BudgetError)
        return int(digits)

    def _expand(self, terms):
        return Polynomial(self.weights, _Written, terms)

    def expr(self) -> dict:
        toks = self.toks
        out = {}
        while True:
            # the sign between two terms and the unary signs of the second
            negate = False
            tok = toks[self.i]
            while tok == "+" or tok == "-":
                negate ^= tok == "-"
                self.i += 1
                tok = toks[self.i]
            for m, c in self.term().items():
                if negate:
                    c = -c
                old = out.get(m)
                if old is None:
                    out[m] = c
                    continue
                s = old + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            tok = toks[self.i]
            if tok != "+" and tok != "-":
                return out

    def term(self) -> dict:
        toks = self.toks
        acc = self.factor()
        while toks[self.i] == "*":
            at = self.i
            self.i += 1
            factor = self.factor()
            # a product has at most the product of the term counts
            if len(acc) * len(factor) > MAX_POWER_TERMS:
                self.fail("product may expand past the %d-term budget" % MAX_POWER_TERMS,
                          at, error=BudgetError)
            if len(acc) == 1 == len(factor):
                # one term times one term: add exponents, multiply coefficients
                ((m1, c1),), ((m2, c2),) = acc.items(), factor.items()
                acc = {(m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2]): c1 * c2}
            else:
                acc = (self._expand(acc) * self._expand(factor)).terms
        return acc

    def factor(self) -> dict:
        base = self.base()
        if self.toks[self.i] != "^":
            return base
        at = self.i
        e = self.uint(at + 1)
        self.i = at + 2
        # a k-term base has at most comb(e+k-1, k-1) terms in its e-th
        # power; refuse before expanding one that could pass the budget
        k = len(base)
        if k > 1 and math.comb(e + k - 1, k - 1) > MAX_POWER_TERMS:
            self.fail("power may expand past the %d-term budget" % MAX_POWER_TERMS,
                      at, 1, BudgetError)
        if k == 1:
            # a one-term power: scale the exponents, power the coefficient
            ((m, c),) = base.items()
            return {(m[0] * e, m[1] * e, m[2] * e): _power(c, e)}
        return (self._expand(base) ** e).terms

    def base(self) -> dict:
        i = self.i
        tok = self.toks[i]
        self.i = i + 1
        if tok in _UNIT:
            return {_UNIT[tok]: 1}
        if tok.isdecimal():
            num = self.uint(i)
            if self.toks[self.i] != "/":
                return {_ONE: num} if num else {}
            den = self.uint(self.i + 1)
            self.i += 2
            if den == 0:
                self.fail("zero denominator", self.i - 1, len(self.toks[self.i - 1]))
            return {_ONE: Fraction(num, den)} if num else {}
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail("parentheses nest deeper than %d levels" % MAX_NESTING,
                          i, error=BudgetError)
            inner = self.expr()
            if self.toks[self.i] != ")":
                self.fail("expected ')'", self.i)
            self.i += 1
            self.depth -= 1
            return inner
        if tok[:1] == "s" and not isinstance(self.field, ExtensionField):
            self.fail("'s' requires an extension coefficient field", i)
        if len(tok) == 2:
            # a name with a letter, digit or "_" after it, as in "xy"
            self.fail("implicit multiplication is not accepted; write '*'", i, 1)
        if tok == "s":
            return {_ONE: self.field.generator}
        self.fail("unexpected character %r" % (tok or "end of input"), i)


def parse_poly(text: str, weights: Weights, field=QQ) -> Polynomial:
    reader = _Reader(text, weights, field)
    terms = reader.expr()
    if reader.toks[reader.i]:
        reader.fail("trailing input", reader.i)
    return Polynomial(weights, field, terms)


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
            cs = "(" + f.field.format(coef) + ")"
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
    ordered (image of x, image of y, image of z).  Every error carries its
    offset in the whole text."""
    images = {}
    start = 0  # the offset of the chunk
    for chunk in text.split(";"):
        name, arrow, expr = chunk.partition("->")
        at = start + len(chunk) - len(chunk.lstrip())  # its first non-blank
        offset = start + len(name) + len(arrow)  # where its image starts
        start += len(chunk) + 1
        if not chunk.strip():
            continue
        if not arrow:
            raise ParseError("map entries must look like 'x->expr'", at)
        name = name.strip()
        if name not in VAR_NAMES:
            raise ParseError("unknown generator %r" % name, at)
        if name in images:
            raise ParseError("duplicate generator %r" % name, at)
        try:
            images[name] = parse_poly(expr, weights, field)
        except ParseError as exc:
            raise type(exc)(exc.message, offset + exc.offset) from None
    missing = [v for v in VAR_NAMES if v not in images]
    if missing:
        raise ParseError("missing generator %r" % missing[0], len(text))
    return (images["x"], images["y"], images["z"])
