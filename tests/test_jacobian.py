"""Jacobian ideal computations: Groebner bases, singular-quotient Hilbert
functions, GK-dimension, isolated singularities, and partial gcds."""

from fractions import Fraction

import pytest

from wpoisson import Matrix, Weights, monomial_basis, parse_poly, rank
from wpoisson.jacobian import (
    a_sing_hilbert,
    buchberger,
    gcd_partials,
    gkdim,
    has_isolated_singularity,
    normal_form,
    standard_monomials,
)
from wpoisson.ring import Polynomial, RingError


W112 = Weights(1, 1, 2)
W111 = Weights(1, 1, 1)
W123 = Weights(1, 2, 3)


def test_buchberger_heads_quadric_example():
    om = parse_poly("z^2+x^3*y", W112)
    gb = buchberger([om.partial(i) for i in range(3)])
    assert gb.heads() == ((0, 0, 1), (2, 1, 0), (3, 0, 0))


def test_normal_form_membership():
    om = parse_poly("z^2+x^3*y", W112)
    gb = buchberger([om.partial(i) for i in range(3)])
    f = om.partial(0) * parse_poly("x+y", W112) + om.partial(2) * parse_poly("z", W112)
    assert normal_form(f, gb).is_zero()
    assert not normal_form(parse_poly("x", W112), gb).is_zero()


def test_normal_form_is_idempotent_remainder():
    om = parse_poly("x^3+y^3+z^3+x*y*z", W111)
    gb = buchberger([om.partial(i) for i in range(3)])
    f = parse_poly("x^4+x*y*z^2+y^2", W111)
    r = normal_form(f, gb)
    assert normal_form(r, gb) == r
    assert normal_form(f - r, gb).is_zero()


def test_standard_monomials_complement_heads():
    heads = ((0, 0, 1), (2, 1, 0), (3, 0, 0))
    assert standard_monomials(W112, heads, 0) == [(0, 0, 0)]
    assert len(standard_monomials(W112, heads, 2)) == 3
    for d in range(3, 9):
        sm = standard_monomials(W112, heads, d)
        assert len(sm) == 2
        for m in sm:
            assert m[2] == 0 and m[0] <= 2


def test_a_sing_hilbert_quadric():
    om = parse_poly("z^2+x^3*y", W112)
    dims, series = a_sing_hilbert(om, 10)
    assert [dims[d] for d in range(11)] == [1, 2, 3, 2, 2, 2, 2, 2, 2, 2, 2]
    assert series.expand(0, 10) == [dims[d] for d in range(11)]


def test_a_sing_hilbert_cusp_like():
    om = parse_poly("z^2+y^3", W123)
    dims, _ = a_sing_hilbert(om, 8)
    assert [dims[d] for d in range(9)] == [1, 1, 2, 2, 2, 2, 2, 2, 2]


def test_a_sing_hilbert_product_potential():
    om = parse_poly("x*y*z+x^4+y^4", W112)
    dims, _ = a_sing_hilbert(om, 12)
    assert [dims[d] for d in range(13)] == [1, 2, 3, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_a_sing_hilbert_elliptic_is_finite():
    om = parse_poly("x^3+y^3+z^3+x*y*z", W111)
    dims, _ = a_sing_hilbert(om, 8)
    assert [dims[d] for d in range(9)] == [1, 3, 3, 1, 0, 0, 0, 0, 0]


def test_a_sing_dims_match_direct_linear_algebra():
    """Independent oracle: the degree-d piece of the Jacobian ideal is the
    span of monomial multiples of the three partials inside A_d."""
    om = parse_poly("z^2+x^3*y", W112)
    dims, _ = a_sing_hilbert(om, 12)
    parts = [om.partial(i) for i in range(3)]
    for d in range(13):
        basis = monomial_basis(W112, d)
        index = {m: i for i, m in enumerate(basis)}
        rows = [{} for _ in basis]
        ncols = 0
        for p in parts:
            pd = p.degree()
            if p.is_zero() or pd > d:
                continue
            for m in monomial_basis(W112, d - pd):
                prod = p.mul_term(m, Fraction(1))
                for mono, coef in prod.terms.items():
                    rows[index[mono]][ncols] = coef
                ncols += 1
        ideal_dim = rank(Matrix(len(basis), ncols, rows))
        assert dims[d] == len(basis) - ideal_dim


def test_gkdim_values():
    assert gkdim(parse_poly("z^2+x*y^3+5*x^2*y^2+x^3*y", W112)) == 0
    assert gkdim(parse_poly("z^2+x^3*y", W112)) == 1
    assert gkdim(parse_poly("x^4", W112)) == 2
    assert gkdim(parse_poly("x^3+y^3+z^3+x*y*z", W111)) == 0


def test_isolated_singularity_parameter_sweeps():
    # cube family: fails only when the twisting scalar hits -3
    for lam in ("1", "2", "-1", "5", "1/2"):
        om = parse_poly(f"x^3+y^3+z^3+{lam}*x*y*z".replace("+-", "-"), W111)
        assert has_isolated_singularity(om)
    assert not has_isolated_singularity(parse_poly("x^3+y^3+z^3-3*x*y*z", W111))

    # quadric families: boundary at coefficient +-2
    for lam, want in (("1", True), ("-1", True), ("3", True), ("1/2", True),
                      ("2", False), ("-2", False)):
        om = parse_poly(f"z^2+x*y^3+{lam}*x^2*y^2+x^3*y".replace("+-", "-"), W112)
        assert has_isolated_singularity(om) is want
    for lam, want in (("1", True), ("-1", True), ("5", True),
                      ("2", False), ("-2", False)):
        om = parse_poly(f"z^2+y^3+{lam}*x^2*y^2+x^4*y".replace("+-", "-"), W123)
        assert has_isolated_singularity(om) is want


def test_gcd_partials_values():
    one = Polynomial.constant(W112, 1)
    assert gcd_partials(parse_poly("z^2+x^3*y", W112)) == one
    assert gcd_partials(parse_poly("x^4", W112)) == parse_poly("x^3", W112)
    assert gcd_partials(parse_poly("x^2*y^2", W111)) == parse_poly("x*y", W111)


def test_gcd_partials_monic_normalization():
    g = gcd_partials(parse_poly("5*x^4", W112))
    assert g == parse_poly("x^3", W112)


def test_gcd_partials_rejects_constant():
    with pytest.raises(RingError):
        gcd_partials(Polynomial.constant(W112, 7))


def test_low_gkdim_implies_coprime_partials():
    from wpoisson import catalog
    one_cache = {}
    for e in catalog.entries():
        if gkdim(e.omega) <= 1:
            w = e.weights
            one = one_cache.setdefault(w.tuple, Polynomial.constant(w, 1))
            assert gcd_partials(e.omega) == one, e.entry_id
