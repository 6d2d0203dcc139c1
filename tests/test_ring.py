"""Unit tests for the weighted ring layer: weights, monomial bases,
polynomial arithmetic, vector calculus and the coefficient fields."""

import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest

from wpoisson import (
    ExtensionField,
    PolyVector,
    QQ,
    RingError,
    Weights,
    cross,
    curl,
    div,
    dot,
    gradient,
    monomial_basis,
    parse_poly,
)
from wpoisson.cli import _parse_field
from wpoisson.proptest import WEIGHT_POOL
from wpoisson.ring import ExtElem, Polynomial, count_monomials, mono_key


def test_weights_basic():
    w = Weights(1, 2, 3)
    assert w.tuple == (1, 2, 3)
    assert w.n_default == 6
    assert w.mono_degree((2, 1, 1)) == 7


@pytest.mark.parametrize("field", [QQ, ExtensionField([1, 1, 1])], ids=["QQ", "Q(s)"])
def test_weights_and_polynomials_survive_pickle_and_deepcopy(field):
    """a pickled or deep-copied value equals the original, hashes the same
    and computes on: Weights refuses attribute assignment, so it must not
    be restored through it"""
    w = Weights(1, 1, 2)
    p = parse_poly("x*y+z" if field is QQ else "x*y+s*z", w, field)
    for copy_of in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        for value in (w, p):
            twin = copy_of(value)
            assert twin == value and hash(twin) == hash(value)
        twin = copy_of(p)
        assert twin.weights == w and twin.homogeneous_degree() == 2
        assert twin - p == Polynomial.zero(w, field)


def test_weights_reject_nonpositive():
    with pytest.raises(RingError):
        Weights(0, 1, 1)
    with pytest.raises(RingError):
        Weights(1, -2, 1)


def test_monomial_basis_counts_and_order():
    w = Weights(1, 1, 2)
    assert monomial_basis(w, 0) == ((0, 0, 0),)
    assert monomial_basis(w, 2) == ((0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    # dimension of A_d for weights (1,1,1) is the triangle number
    w111 = Weights(1, 1, 1)
    for d in range(8):
        assert len(monomial_basis(w111, d)) == (d + 1) * (d + 2) // 2


def test_monomial_basis_sparse_weights():
    w = Weights(2, 3, 5)
    assert monomial_basis(w, 1) == ()
    assert len(monomial_basis(w, 10)) == len([
        m for m in monomial_basis(w, 10)
    ])
    degs = [len(monomial_basis(w, d)) for d in range(11)]
    assert degs == [1, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("abc", WEIGHT_POOL + [(1, 1, 7), (3, 5, 7)], ids=str)
def test_monomial_basis_lists_each_degree_in_the_fixed_order(abc):
    """the basis is listed in order, not sorted: it equals every triple of
    the degree sorted by ``mono_key``"""
    w = Weights(*abc)
    a, b, c = abc
    for d in range(41):
        every = [(i, j, (d - a * i - b * j) // c) for i in range(d // a + 1)
                 for j in range((d - a * i) // b + 1) if (d - a * i - b * j) % c == 0]
        assert monomial_basis(w, d) == tuple(sorted(every, key=lambda m: mono_key(w, m)))
        assert count_monomials(w, d) == len(every)


def test_polynomial_arithmetic():
    w = Weights(1, 1, 1)
    x = Polynomial.variable(w, "x")
    y = Polynomial.variable(w, "y")
    f = (x + y) * (x - y)
    g = x * x - y * y
    assert f == g
    assert (f - g).is_zero()
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert not (f + x).is_homogeneous()
    assert {m: c for m, c in (f + x).terms.items() if w.mono_degree(m) == 2} == f.terms
    assert {m: c for m, c in (f + x).terms.items() if w.mono_degree(m) == 1} == x.terms


def test_polynomial_scalar_and_coefficients():
    w = Weights(1, 2, 3)
    f = parse_poly("z^2+y^3-5*x^2*y^2", w)
    assert f.coefficient((0, 0, 2)) == 1
    assert f.coefficient((2, 2, 0)) == Fraction(-5)
    assert f.coefficient((1, 1, 1)) == 0
    assert (f * Fraction(1, 5)).coefficient((2, 2, 0)) == -1
    assert f.degree() == 6
    assert f.homogeneous_degree() == 6


def test_homogeneous_degree_rejects_mixed():
    w = Weights(1, 1, 1)
    f = parse_poly("x^2+x", w)
    with pytest.raises(RingError):
        f.homogeneous_degree()


def test_partial_derivatives():
    w = Weights(1, 1, 2)
    f = parse_poly("z^2+x^3*y", w)
    assert f.partial(0) == parse_poly("3*x^2*y", w)
    assert f.partial(1) == parse_poly("x^3", w)
    assert f.partial(2) == parse_poly("2*z", w)


def test_substitute_composes():
    w = Weights(1, 1, 2)
    f = parse_poly("z^2+x^3*y", w)
    x = Polynomial.variable(w, "x")
    y = Polynomial.variable(w, "y")
    z = Polynomial.variable(w, "z")
    # the shear from the quadric example fixes f
    images = (x, y - x * x * x - z - z, z + x * x * x)
    assert f.substitute(images) == f


def test_substitute_refuses_a_power_or_product_past_the_term_budget():
    """(x+y+z)^43 has comb(45, 2) = 990 terms and is built; the 44th power
    could have 1,035 and is refused, and so is the product of two powers of
    231 terms each, before it is expanded"""
    w = Weights(1, 1, 1)
    images = [parse_poly(t, w) for t in ("x+y+z", "x-y", "z")]
    assert len(parse_poly("x^43", w).substitute(images).terms) == 990
    for text, what in (("x^44", "power"), ("x^20*y^230", "product")):
        with pytest.raises(RingError, match="^substitution %s may expand past the 1000-term "
                                            "budget$" % what):
            parse_poly(text, w).substitute(images)


def test_gradient_and_curl_identities():
    w = Weights(1, 2, 3)
    f = parse_poly("z^2+y^3+x^6", w)
    g = gradient(f)
    assert curl(g).is_zero()
    assert div(curl(PolyVector(f, f, f))).is_zero()


def test_cross_and_dot():
    w = Weights(1, 1, 1)
    x = Polynomial.variable(w, "x")
    y = Polynomial.variable(w, "y")
    z = Polynomial.variable(w, "z")
    u = PolyVector(x, y, z)
    assert cross(u, u).is_zero()
    assert dot(u, cross(u, PolyVector(y, z, x))).is_zero()
    assert dot(u, u) == x * x + y * y + z * z


def test_divergence_of_euler_field():
    w = Weights(2, 3, 5)
    x = Polynomial.variable(w, "x")
    y = Polynomial.variable(w, "y")
    z = Polynomial.variable(w, "z")
    e = PolyVector(x * 2, y * 3, z * 5)
    assert div(e) == Polynomial.constant(w, 10)


def test_rationals_field():
    assert QQ.zero == 0
    assert QQ.one == 1
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.format(Fraction(-7, 2)) == "-7/2"


def test_extension_field_cube_root():
    f = ExtensionField([1, 1, 1])  # s^2 + s + 1
    s = f.generator
    assert f.format(s * s * s) == "1"
    assert s * s + s + f.one == f.zero
    inv = f.one / s
    assert s * inv == f.one


def test_extension_field_gaussian():
    f = ExtensionField([1, 0, 1])  # s^2 + 1
    s = f.generator
    assert s * s == -f.one
    assert f.coerce(2) * s + s == s * f.coerce(3)


def test_extension_field_requires_monic():
    with pytest.raises(RingError):
        ExtensionField([1, 1, 2])


@pytest.mark.parametrize("modulus, why", [
    ([-1, 0, 1], "it has the root 1"), ([-8, 0, 0, 1], "it has the root 2"),
    ([1, 0, 2, 0, 1], "it has a repeated factor"),
], ids=["s^2-1", "s^3-8", "s^4+2s^2+1"])
def test_extension_field_refuses_a_reducible_modulus(modulus, why):
    with pytest.raises(RingError, match="modulus is reducible: " + why):
        ExtensionField(modulus)


def test_a_modulus_is_checked_once_and_refused_every_time(monkeypatch):
    """the irreducibility check is made once per live field, so a second
    field over its modulus inverts nothing; a refusal is not memoised"""
    field = ExtensionField([5, 3, 1])
    inverses = []
    real = ExtensionField.inverse
    monkeypatch.setattr(ExtensionField, "inverse",
                        lambda self, v: inverses.append(v) or real(self, v))
    assert ExtensionField([5, 3, 1]) is field is ExtensionField([5, 3, 1, 0])
    assert inverses == []
    for _ in range(3):
        with pytest.raises(RingError, match="it has a repeated factor"):
            ExtensionField([1, 0, 2, 0, 1])
    assert len(inverses) == 3


def test_a_modulus_has_one_field_object():
    """fields are interned by modulus: equal parses, copies and pickles
    are one object, and a refused modulus leaves no field behind"""
    field = ExtensionField([1, 1, 1])
    assert ExtensionField((Fraction(1), 1, 1, 0)) is field
    assert _parse_field("s^2+s+1") is _parse_field("1+s+s^2") is field
    assert parse_poly("s*x", Weights(1, 1, 1), ExtensionField([1, 1, 1])).field is field
    assert pickle.loads(pickle.dumps(field)) is field and copy.deepcopy(field) is field
    assert ExtensionField([1, 0, 1]) is not field
    with pytest.raises(RingError, match="it has the root 1"):
        ExtensionField([-1, 0, 1])
    assert (Fraction(-1), Fraction(0), Fraction(1)) not in ExtensionField._interned


def test_a_field_nothing_holds_leaves_the_intern_table():
    """the table keeps a field only while something holds it, so a process
    that makes many moduli does not keep them all"""
    key = (Fraction(11), Fraction(3), Fraction(1))
    field = ExtensionField([11, 3, 1])
    assert ExtensionField._interned[key] is field
    del field
    gc.collect()
    assert key not in ExtensionField._interned


@pytest.mark.parametrize("modulus", [[Fraction(-1, 4), 0, 1], [0.5, 1]],
                         ids=["s^2-1/4", "s+0.5"])
def test_extension_field_refuses_a_non_integer_modulus(modulus):
    # s^2 - 1/4 = (s - 1/2)(s + 1/2) has no integer root to find
    with pytest.raises(RingError, match="modulus coefficients must be integers"):
        ExtensionField(modulus)


_INVERSE_MODULI = {"s^2+s+1": [1, 1, 1], "s^2+1": [1, 0, 1], "s^3-2": [-2, 0, 0, 1],
                   "s-3": [-3, 1], "s^4+s+1": [1, 1, 0, 0, 1]}


@pytest.mark.parametrize("modulus", _INVERSE_MODULI.values(), ids=_INVERSE_MODULI.keys())
def test_extension_inverse_undoes_multiplication(modulus):
    # the products go through the schoolbook _mul, not the block solve
    # inverse takes; s^4+s+1 is irreducible because it is so mod 2
    f = ExtensionField(modulus)
    rng = random.Random(4111 + len(modulus))

    def elem():
        while True:
            u = ExtElem(f, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(f.degree)])
            if u:
                return u

    for _ in range(50):
        u, v = elem(), elem()
        assert u * (1 / u) == f.one
        assert (u * v) / v == u


def test_extension_inverse_refuses_a_zero_divisor():
    # s^4+4 = (s^2+2s+2)(s^2-2s+2) passes the integer-root and
    # repeated-factor tests, so the field is built and the block is singular
    f = ExtensionField([4, 0, 0, 0, 1])
    with pytest.raises(RingError, match="modulus is not coprime with the element"):
        f.inverse(ExtElem(f, [2, 2, 1, 0]))


def test_degree_one_generator_is_the_root():
    assert ExtensionField([-3, 1]).generator == 3


def test_rationals_refuse_a_float():
    # 0.1 would become 3602879701896397/36028797018963968
    with pytest.raises(RingError, match="float"):
        QQ.coerce(0.1)
    with pytest.raises(RingError, match="float"):
        Polynomial.constant(Weights(1, 1, 1), 0.1)


def test_extension_elements_refuse_a_float_coefficient():
    # the constructor, like QQ.coerce, keeps 0.1 from becoming its binary fraction
    fld = ExtensionField([1, 1, 1])
    want = "cannot coerce the float 0.1 into QQ; use an int or a Fraction"
    for coeffs in ([0.1, 0], [1, 0.1]):
        with pytest.raises(RingError, match=want):
            ExtElem(fld, coeffs)
    assert ExtElem(fld, [1, Fraction(1, 2)]).coeffs == (Fraction(1), Fraction(1, 2))


def test_extension_field_refuses_a_modulus_coefficient_past_the_guard():
    # the integer-root search runs up to the square root of m0, so the guard
    # comes first
    with pytest.raises(RingError, match="exceeds the 10\\^6 guard"):
        ExtensionField([10**40, 0, 1])


def test_polynomials_over_extension_field():
    fld = ExtensionField([1, 1, 1])
    w = Weights(1, 1, 1)
    s = fld.generator
    x = Polynomial.variable(w, "x", field=fld)
    y = Polynomial.variable(w, "y", field=fld)
    f = x * s + y
    g = f * f
    assert g.coefficient((2, 0, 0)) == s * s
    assert g.coefficient((1, 1, 0)) == s + s


def test_mixed_field_operations_rejected():
    w = Weights(1, 1, 1)
    x = Polynomial.variable(w, "x")
    xc = Polynomial.variable(w, "x", field=ExtensionField([1, 0, 1]))
    with pytest.raises(RingError):
        _ = x + xc


def test_mixed_weight_operations_rejected():
    x1 = Polynomial.variable(Weights(1, 1, 1), "x")
    x2 = Polynomial.variable(Weights(1, 1, 2), "x")
    with pytest.raises(RingError):
        _ = x1 + x2
