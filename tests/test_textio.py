"""Parser and printer round trips, plus error reporting."""

import random
import re
from fractions import Fraction

import pytest

from wpoisson import ExtensionField, Weights, format_poly, parse_map, parse_poly
from wpoisson import textio
from wpoisson.ring import QQ, Polynomial
from wpoisson.textio import BudgetError, ParseError

from reference_maps import parse_poly_by_descent


W112 = Weights(1, 1, 2)


def test_parse_format_examples():
    cases = {
        "z^2+x^3*y": "x^3*y+z^2",
        "-x + 2*y": "-x+2*y",
        "x - y": "x-y",
        "(1/2)*x^2": "1/2*x^2",
        "3": "3",
        "0": "0",
        "-z^2": "-z^2",
        "x*y - x*y": "0",
    }
    for text, printed in cases.items():
        assert format_poly(parse_poly(text, W112)) == printed


def test_format_is_idempotent_fixed_point():
    for text in ("z^2+x^3*y", "1/2*x^2-3*y^2+z", "x^4+y^4+z^2+x*y*z"):
        f = parse_poly(text, W112)
        once = format_poly(f)
        again = format_poly(parse_poly(once, W112))
        assert once == again


def test_roundtrip_preserves_value():
    f = parse_poly("7*x^3*y - 1/3*z^2 + x*y*z", Weights(1, 2, 3))
    g = parse_poly(format_poly(f), Weights(1, 2, 3))
    assert f == g


def test_whitespace_insensitive():
    a = parse_poly("x^2 +  2*x*y +y^2", W112)
    b = parse_poly("x^2+2*x*y+y^2", W112)
    assert a == b


def test_unary_minus_and_parentheses():
    f = parse_poly("-(x-y)^2", W112)
    g = parse_poly("-x^2+2*x*y-y^2", W112)
    assert f == g


def test_extension_field_coefficients():
    fld = ExtensionField([1, 1, 1])
    f = parse_poly("s*x^2 + (s+1)*y^2", Weights(1, 1, 1), field=fld)
    assert format_poly(f) == "(s)*x^2+(1+s)*y^2"
    back = parse_poly(format_poly(f), Weights(1, 1, 1), field=fld)
    assert back == f


def test_unit_coefficients_take_no_product_in_the_extension_field(monkeypatch):
    """a variable carries the int 1 until its term is stored, so no unit
    coefficient is multiplied in Q[s]/(m)"""
    fld = ExtensionField([1, 1, 1])
    products = []
    mul = ExtensionField._mul

    def counted(self, u, v):
        products.append((u, v))
        return mul(self, u, v)

    monkeypatch.setattr(ExtensionField, "_mul", counted)
    w = Weights(1, 1, 1)
    cases = {"x*y*z": "(1)*x*y*z", "x^3+y^3+z^3": "(1)*x^3+(1)*y^3+(1)*z^3",
             "x^3+y^3+z^3+(2+s)*x*y*z": "(1)*x^3+(1)*y^3+(2+s)*x*y*z+(1)*z^3"}
    for text, printed in cases.items():
        f = parse_poly(text, w, field=fld)
        assert format_poly(f) == printed
        assert f.field == fld and all(c.field == fld for c in f.terms.values())
    assert products == []
    # s^2 is a product in the field
    assert format_poly(parse_poly("s^2*x", w, field=fld)) == "(-1-s)*x"
    assert len(products) == 1


def _count_coerce(monkeypatch):
    calls = []
    coerce = ExtensionField.coerce

    def counted(self, v):
        calls.append(v)
        return coerce(self, v)

    monkeypatch.setattr(ExtensionField, "coerce", counted)
    return calls


def test_each_stored_coefficient_is_coerced_once(monkeypatch):
    """Polynomial.__init__ tests the coerced coefficient itself for zero, so
    storing a Q[s]/(m) term costs one ``coerce``"""
    fld = ExtensionField([1, 1, 1])
    calls = _count_coerce(monkeypatch)
    w = Weights(1, 1, 1)
    for text, expected in (("x*y*z", 1), ("x^3+y^3+z^3+(2+s)*x*y*z", 5)):
        calls.clear()
        parse_poly(text, w, field=fld)
        assert len(calls) == expected, text


def test_a_sum_coerces_each_shared_term_once(monkeypatch):
    """Polynomial.__add__ adds only the terms both summands hold, tests the
    sum itself for zero and stores it: one ``coerce`` in each such sum, and
    one per stored term of the result"""
    fld = ExtensionField([1, 1, 1])
    w = Weights(1, 1, 1)
    p = parse_poly("x^3-y^3+s*x*y*z+x^2*y", w, field=fld)
    q = parse_poly("x^3+y^3+z^3+(2+s)*x*y*z", w, field=fld)
    calls = _count_coerce(monkeypatch)
    total = q + p
    # three shared terms, y^3 cancelling, then four stored terms
    assert len(calls) == 7
    monkeypatch.undo()
    assert total == parse_poly("2*x^3+x^2*y+(2+2*s)*x*y*z+z^3", w, field=fld)


def test_parse_errors():
    for bad in ("x^", "q+1", "x**2", "", "x ->", "1/0", "x^2/2"):
        with pytest.raises(ParseError):
            parse_poly(bad, W112)


def test_integers_past_the_guard_are_parse_errors_at_any_length():
    # 5000 digits is past what int() converts from a string
    for text in ("x^1000001", "1000001*x", "x^" + "9" * 5000, "9" * 5000 + "*x"):
        with pytest.raises(ParseError, match="10\\^6 guard"):
            parse_poly(text, W112)
    assert parse_poly("x^" + "0" * 5000 + "7", W112) == parse_poly("x^7", W112)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2 + q", W112)
    assert "byte" in str(err.value)


def _refuse_expansion(monkeypatch):
    def no_power(self, e):
        raise AssertionError("the parser started expanding a power")

    monkeypatch.setattr(Polynomial, "__pow__", no_power)


def test_power_past_the_term_budget_is_refused_before_expanding(monkeypatch):
    _refuse_expansion(monkeypatch)
    with pytest.raises(ParseError, match="1000-term budget") as err:
        parse_poly("(x+y+z)^100000", W112)
    assert err.value.offset == 8


def test_power_term_budget_is_the_binomial_bound(monkeypatch):
    # (x+y+z)^e has comb(e+2, 2) terms: 10 for e = 3, 15 for e = 4
    monkeypatch.setattr(textio, "MAX_POWER_TERMS", 10)
    assert len(parse_poly("(x+y+z)^3", W112).terms) == 10
    assert parse_poly("(2*x*y)^50", W112) == parse_poly("2^50*x^50*y^50", W112)
    with pytest.raises(ParseError):
        parse_poly("(x+y+z)^4", W112)


def _refuse_products_past_the_budget(monkeypatch):
    mul = Polynomial.__mul__

    def small_products_only(self, other):
        if isinstance(other, Polynomial) and (
                len(self.terms) * len(other.terms) > textio.MAX_POWER_TERMS):
            raise AssertionError("the parser started multiplying out a product")
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", small_products_only)


# (1+x+y+z)^k has comb(k+3, 3) terms: 286 for k = 10, which times 4 passes 1000
LONG_PRODUCT = "*".join(["(1+x+y+z)"] * 11)


def test_product_past_the_term_budget_is_refused_before_multiplying(monkeypatch):
    _refuse_products_past_the_budget(monkeypatch)
    with pytest.raises(ParseError, match="product may expand past the 1000-term budget") as err:
        parse_poly(LONG_PRODUCT, W112)
    assert err.value.offset == LONG_PRODUCT.rindex("*")


def test_product_term_budget_is_the_product_of_term_counts(monkeypatch):
    monkeypatch.setattr(textio, "MAX_POWER_TERMS", 16)
    assert len(parse_poly("(1+x+y+z)*(1+x+y+z)", W112).terms) == 10
    monkeypatch.setattr(textio, "MAX_POWER_TERMS", 15)
    with pytest.raises(ParseError, match="15-term budget"):
        parse_poly("(1+x+y+z)*(1+x+y+z)", W112)


def test_parse_map():
    phi = parse_map("x->x; y->y-x^3-2*z; z->z+x^3", W112)
    assert [format_poly(g) for g in phi] == ["x", "-x^3-2*z+y", "x^3+z"]


def test_parse_map_requires_all_three_images():
    with pytest.raises(ParseError):
        parse_map("x->x; y->y", W112)
    with pytest.raises(ParseError):
        parse_map("x->x; y->y; y->z; z->x", W112)


def test_parse_map_extension_field():
    fld = ExtensionField([1, 0, 1])
    phi = parse_map("x->s*y; y->-s*x; z->-z-x*y", W112, field=fld)
    assert len(phi) == 3
    assert format_poly(phi[0]) == "(s)*y"


# -- the one-pass parser against the recursive-descent oracle ---------------

Q3 = ExtensionField([1, 1, 1])  # Q(s)/(s^2+s+1)
W111 = Weights(1, 1, 1)


def _ws(rng):
    return rng.choice(["", "", "", "", " ", "  ", "\t", "\n", " \r\n "])


def _integer(rng):
    value = rng.choice([0, 1, 1, 2, 3, 5, 7, 12, rng.randint(0, 10 ** 6)])
    return "0" * rng.choice([0, 0, 0, 0, 1, 3]) + str(value)


def _base(rng, depth, names):
    kind = rng.random()
    if kind < 0.45:
        return rng.choice(names)
    if kind < 0.65:
        return _integer(rng)
    if kind < 0.75:
        return "%s%s/%s%s" % (_integer(rng), _ws(rng), _ws(rng), rng.randint(1, 40))
    if depth <= 0:
        return rng.choice(names)
    return "(" + _ws(rng) + _expr(rng, depth - 1, names) + _ws(rng) + ")"


def _factor(rng, depth, names):
    base = _base(rng, depth, names)
    if rng.random() < 0.3:
        # small exponents for sums and numbers, larger ones for a name
        top = 40 if base in names else 3
        base += _ws(rng) + "^" + _ws(rng) + str(rng.randint(0, top))
    return base


def _expr(rng, depth, names):
    out = []
    for k in range(rng.randint(1, 4)):
        signs = "".join(rng.choice("+-") + _ws(rng) for _ in range(rng.choice([0, 0, 0, 1, 2, 3])))
        if k:
            signs = rng.choice("+-") + _ws(rng) + signs
        factors = [_factor(rng, depth, names) for _ in range(rng.randint(1, 3))]
        out.append(signs + (_ws(rng) + "*" + _ws(rng)).join(factors))
    return _ws(rng).join(out)


def valid_text(rng, ext=False):
    """a seeded string of the grammar: nested parentheses, powers, repeated
    unary signs, fractions, whitespace, and s over an extension field"""
    names = "xyzs" if ext else "xyz"
    return _ws(rng) + _expr(rng, 2, names) + _ws(rng)


# characters a mutation inserts: the grammar's, whitespace, a name not in
# it, a letter and a decimal digit outside ASCII
_NOISE = "xyzs0123456789+-*^/()  \tq_.,eé٣"


def malformed_text(rng, ext=False):
    """a valid string with one to three characters inserted, deleted or
    cut after"""
    text = valid_text(rng, ext)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        how = rng.random()
        if how < 0.5:
            text = text[:at] + rng.choice(_NOISE) + text[at:]
        elif how < 0.85:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


MALFORMED = ["x^", "x^ ", "x**2", "xy", "2x", "x2", "x_", "s*x", "x+", "x-", "x*", "x^2/2",
             "x^2^3", "(x+y", "x+y)", "((x)", ")", "(", "", "  ", "1/0", "1/00", "1/ 0 + x",
             "1/", "1/x", "9" * 5000, "9" * 5000 + "*x", "x^" + "9" * 5000, "x^1000001",
             "1000001*x", "(x+y+z)^100000", "(x+y)^2000", "(1+x+y+z)*" * 10 + "(1+x+y+z)",
             "x^3+q", "xé", "x+é", "x.5", "x,y", "x\u000by"]


def _outcome(parse, text, weights, field):
    try:
        return parse(text, weights, field)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


def _agree(text, weights=W112, field=QQ):
    got = _outcome(parse_poly, text, weights, field)
    want = _outcome(parse_poly_by_descent, text, weights, field)
    assert got == want, (text, got, want)
    return got


def test_the_token_parser_matches_the_descent_oracle_on_seeded_strings():
    rng = random.Random(20261019)
    outcomes = {"valid": 0, "refused": 0}
    for k in range(2400):
        field = Q3 if k % 4 == 3 else QQ
        make = valid_text if k % 3 else malformed_text
        got = _agree(make(rng, field is Q3), W112 if k % 2 else W111, field)
        outcomes["valid" if isinstance(got, Polynomial) else "refused"] += 1
    # both sides of the comparison are exercised
    assert min(outcomes.values()) > 400, outcomes


def test_the_token_parser_matches_the_descent_oracle_on_malformed_strings():
    for text in MALFORMED:
        assert not isinstance(_agree(text), Polynomial), text
    # over Q(s) "s" is a coefficient; a name after it is implicit multiplication
    for text in ("s", "s*x+s^2", "sx", "s_", "(s+1)^3*x", "s^0"):
        _agree(text, field=Q3)


def test_the_token_parser_matches_the_descent_oracle_under_a_small_budget(monkeypatch):
    """both read textio.MAX_POWER_TERMS when they check a power or product"""
    monkeypatch.setattr(textio, "MAX_POWER_TERMS", 12)
    rng = random.Random(7)
    refused = 0
    for _ in range(300):
        got = _agree(valid_text(rng))
        refused += isinstance(got, tuple) and got[0] is BudgetError
    assert refused > 10


def test_non_decimal_digits_and_deep_nesting_are_parse_errors():
    """the oracle raised a bare ValueError from int() on a digit that is not
    decimal, and RecursionError past about 240 parentheses; both are now
    refused with an offset"""
    with pytest.raises(ParseError, match=r"expected an integer \(at byte 2\)"):
        parse_poly("x^²", W112)
    with pytest.raises(ParseError, match=r"unexpected character '²' \(at byte 0\)"):
        parse_poly("²", W112)
    with pytest.raises(ValueError) as err:
        parse_poly_by_descent("x^²", W112)
    assert not isinstance(err.value, ParseError)
    assert parse_poly("(" * 100 + "x" + ")" * 100, W112) == parse_poly("x", W112)
    with pytest.raises(BudgetError, match=r"nest deeper than 100 levels \(at byte 100\)"):
        parse_poly("(" * 101 + "x" + ")" * 101, W112)
    with pytest.raises(BudgetError):
        parse_poly("(" * 100000, W112)


def _sympy_value(sympy, text, field):
    """the terms of text expanded by sympy, each coefficient an ascending
    tuple of Fractions in s reduced mod s^2+s+1 (of length 1 over Q)"""
    x, y, z, s = sympy.symbols("x y z s")
    # no leading zeros, and a fraction is one base: a/b^e is (a/b)^e
    python = re.sub(r"\d+", lambda m: str(int(m.group())), re.sub(r"\s", "", text))
    python = re.sub(r"(\d+/\d+)", r"(\1)", python).replace("^", "**")
    expr = sympy.parse_expr(python, local_dict={"x": x, "y": y, "z": z, "s": s})
    # s^3 = 1 and s^2 = -1 - s
    powers = [(1, 0), (0, 1), (-1, -1)] if field is Q3 else [(1,)]
    out = {}
    for (e0, e1, e2, es), c in sympy.Poly(expr, x, y, z, s).terms():
        old = out.get((e0, e1, e2), (0,) * len(powers[0]))
        out[(e0, e1, e2)] = tuple(a + Fraction(int(c.p), int(c.q)) * b
                                  for a, b in zip(old, powers[es % 3]))
    return {m: c for m, c in out.items() if any(c)}


def test_parsed_values_match_sympy_expansion():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(33)
    for k in range(150):
        field = Q3 if k % 3 == 0 else QQ
        text = valid_text(rng, field is Q3)
        got = _outcome(parse_poly, text, W112, field)
        if not isinstance(got, Polynomial):
            assert got[0] is BudgetError, (text, got)
            continue
        terms = {m: c.coeffs if field is Q3 else (c,) for m, c in got.terms.items()}
        assert terms == _sympy_value(sympy, text, field), text
