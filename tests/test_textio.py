"""Parser and printer round trips, plus error reporting."""

import pytest

from wpoisson import ExtensionField, Weights, format_poly, parse_map, parse_poly
from wpoisson import textio
from wpoisson.ring import Polynomial
from wpoisson.textio import ParseError


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
