"""Rational input over Q(s) is computed over Q.

Ranks, kernel normal forms and reduced Groebner bases of an input with
rational coefficients are the same over Q(s) as over Q, so the matrix and
Groebner engines run a potential with no s-part over Q and lift the results
that carry a field back to Q(s).  An independent route checks this: s*O has
the same tables, derivation spaces and Jacobian ideal as O, but its
coefficients have s-parts, so it keeps the restriction of scalars to Q.
Count tests show which path each input takes.
"""

import random
from fractions import Fraction

import pytest

from wpoisson import (ExtensionField, Polynomial, Weights, a_sing_hilbert, buchberger,
                      complexes, format_poly, from_potential, gcd_partials, gkdim,
                      graded_derivation_space, jacobian, linalg, ozone_vs_hamiltonian,
                      parse_map, parse_poly, sealed_k1_dims, vacancy_check,
                      verify_automorphism)
from wpoisson.proptest import WEIGHT_POOL, random_homogeneous
from wpoisson.ring import gradient, rational_copy

CUBE_ROOT = ExtensionField([1, 1, 1])  # s^2 + s + 1
GAUSS = ExtensionField([1, 0, 1])  # s^2 + 1

# the extension benchmark's two families at rational and singular members,
# and two potentials whose partials share a factor: x + y, which the Koszul
# kernel gives, and x, which their monomial content gives
MEMBERS = [
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z"),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3-3*x*y*z"),
    ((1, 1, 2), GAUSS, "x^4+y^4+z^2-2*x*y*z"),
    ((1, 1, 2), GAUSS, "x^4+2*x^2*y^2+y^4+z^2"),
    ((1, 1, 1), CUBE_ROOT, "(x+y)^2*z"),
    ((1, 1, 2), GAUSS, "x^2*z"),
]


def _nonzero_form(rng, weights, degree):
    f = Polynomial.zero(weights)
    while f.is_zero():
        f = random_homogeneous(rng, weights, degree)
    return f


def _seeded_pool(seed=24):
    """per weight triple of the property suites, potentials of degree a+b+c
    with rational coefficients: a random one, and h^2 r with h of degree a,
    so that h divides every partial; over the two fields in turn"""
    rng = random.Random(seed)
    out = []
    for k, w in enumerate(WEIGHT_POOL):
        weights = Weights(*w)
        h = _nonzero_form(rng, weights, weights.a)
        for omega in (_nonzero_form(rng, weights, weights.n_default),
                      h * h * _nonzero_form(rng, weights, weights.n_default - 2 * weights.a)):
            out.append(Polynomial(weights, (CUBE_ROOT, GAUSS)[k % 2], omega.terms))
    return out


def _members():
    return ([parse_poly(text, Weights(*w), field) for w, field, text in MEMBERS]
            + _seeded_pool())


def _tables(omega):
    """every table of the complexes layer, and the formatted derivation
    bases in degrees 0 to 2"""
    s = from_potential(omega)
    n = omega.homogeneous_degree()
    return {
        "ph": complexes.ph_dims(omega, 4).dims,
        "koszul": complexes.koszul_dims(omega, 8).dims,
        "vacancy": vacancy_check(omega, 4),
        "sealed": sealed_k1_dims(omega, n + 4),
        "ozone": ozone_vs_hamiltonian(omega, 4),
        "derivations": [[[format_poly(c) for c in v.comps]
                         for v in graded_derivation_space(s, d)] for d in range(3)],
    }


def _jacobian_data(omega, bound=8):
    gens = [g for g in gradient(omega).comps if g.terms]
    return {
        "basis": list(buchberger(gens)),
        "numerator": a_sing_hilbert(omega, bound)[1].numerator,
        "gkdim": gkdim(omega),
        "gcd": gcd_partials(omega),
    }


@pytest.mark.parametrize("omega", _members(), ids=lambda om: "%s-%s" % (
    om.weights.tuple, format_poly(rational_copy(om))))
def test_rational_potential_matches_its_irrational_multiple(omega):
    """O descends to Q and s*O keeps the restriction of scalars: every table,
    derivation basis, reduced basis, Hilbert numerator, gkdim and gcd agree"""
    scaled = omega * omega.field.generator
    assert rational_copy(omega) is not None and rational_copy(scaled) is None
    assert _tables(omega) == _tables(scaled)
    gens = [g for g in gradient(omega).comps if g.terms]
    assert list(buchberger(gens)) == list(buchberger([g * omega.field.generator for g in gens]))
    assert _jacobian_data(omega) == _jacobian_data(scaled)


def test_the_members_reach_both_gcd_routes_and_both_kinds_of_singularity():
    """the comparison is not vacuous: the members and the seeded pool alone
    each have isolated and non-isolated potentials, and gcds that are and
    are not monomials"""
    for members in (_members(), _seeded_pool()):
        gcds = [gcd_partials(om) for om in members]
        assert any(g.degree() and len(g.terms) == 1 for g in gcds)
        assert any(len(g.terms) > 1 for g in gcds)
        assert {gkdim(om) == 0 for om in members} == {True, False}


def _matrix_fields(monkeypatch, omega):
    """the field degree of every matrix that the tables, the Groebner data
    and the gcd of omega build, from empty memos"""
    complexes.potential_memo.cache_clear()
    degrees = []
    real = linalg.Matrix.restricted.__func__

    def spy(cls, rows, cols, entries, field):
        degrees.append(field.degree)
        return real(cls, rows, cols, entries, field)

    monkeypatch.setattr(linalg.Matrix, "restricted", classmethod(spy))
    _tables(omega)
    _jacobian_data(omega)
    monkeypatch.undo()
    return degrees


def _products_in_reduce(monkeypatch, omega):
    """the number of ExtensionField products made inside jacobian._reduce
    while the Groebner basis of omega's partials is built and proved"""
    complexes.potential_memo.cache_clear()
    inside = [0]
    products = [0]
    real_reduce, real_mul = jacobian._reduce, ExtensionField._mul

    def reduce_spy(*args):
        inside[0] += 1
        try:
            return real_reduce(*args)
        finally:
            inside[0] -= 1

    def mul_spy(self, u, v):
        products[0] += bool(inside[0])
        return real_mul(self, u, v)

    monkeypatch.setattr(jacobian, "_reduce", reduce_spy)
    monkeypatch.setattr(ExtensionField, "_mul", mul_spy)
    buchberger([g for g in gradient(omega).comps if g.terms])
    monkeypatch.undo()
    return products[0]


# (x+y)^2*z has a gcd that is not a monomial, so gcd_partials builds the
# Koszul kernel matrices too
COUNTED = [((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x^3+y^3+z^3+(1+2*s)*x*y*z"),
           ((1, 1, 2), GAUSS, "x^4+y^4+z^2-2*x*y*z", "x^4+y^4+z^2+(1-2*s)*x*y*z"),
           ((1, 1, 1), CUBE_ROOT, "(x+y)^2*z", "(x+s*y)^2*z")]


@pytest.mark.parametrize("w, field, rational, irrational", COUNTED,
                         ids=[c[2] for c in COUNTED])
def test_rational_potential_builds_only_matrices_over_q(monkeypatch, w, field, rational,
                                                         irrational):
    weights = Weights(*w)
    degrees = _matrix_fields(monkeypatch, parse_poly(rational, weights, field))
    assert degrees and set(degrees) == {1}
    # a non-rational member keeps the restriction of scalars
    assert max(_matrix_fields(monkeypatch, parse_poly(irrational, weights, field))) == 2


@pytest.mark.parametrize("w, field, rational, irrational", COUNTED,
                         ids=[c[2] for c in COUNTED])
def test_rational_generators_make_no_field_product_in_the_reduction(monkeypatch, w, field,
                                                                    rational, irrational):
    weights = Weights(*w)
    assert _products_in_reduce(monkeypatch, parse_poly(rational, weights, field)) == 0
    assert _products_in_reduce(monkeypatch, parse_poly(irrational, weights, field)) > 0


def test_groebner_basis_of_rational_generators_is_lifted_to_the_field():
    """the basis is computed over Q and comes back monic over Q(s), equal to
    the Q basis read over Q(s)"""
    weights = Weights(1, 1, 1)
    omega = parse_poly("x^3+y^3+z^3+3/2*x*y*z", weights, CUBE_ROOT)
    gb = buchberger(list(gradient(omega).comps))
    over_q = buchberger(list(gradient(rational_copy(omega)).comps))
    assert gb.field == CUBE_ROOT and all(p.field == CUBE_ROOT for p in gb)
    assert list(gb) == [Polynomial(weights, CUBE_ROOT, p.terms) for p in over_q]
    assert all(p.leading_coefficient() == CUBE_ROOT.one for p in gb)
    assert gcd_partials(parse_poly("(x+y)^2*z", weights, CUBE_ROOT)) == parse_poly(
        "x+y", weights, CUBE_ROOT)


def test_rational_copy_reads_the_rational_part_or_refuses():
    weights = Weights(1, 1, 2)
    assert rational_copy(parse_poly("x^4+z^2", weights)) == parse_poly("x^4+z^2", weights)
    copy = rational_copy(parse_poly("x^4-1/2*z^2", weights, GAUSS))
    assert copy.field == parse_poly("x", weights).field
    assert copy.terms == {(4, 0, 0): 1, (0, 0, 2): Fraction(-1, 2)}
    assert rational_copy(parse_poly("x^4+s*z^2", weights, GAUSS)) is None
    assert GAUSS.coerce(Fraction(-1, 2)).is_rational() and not (GAUSS.generator + 1).is_rational()


# verify_automorphism cases with a rational potential over Q(s): weights,
# field, potential, map, inverse, xi (None on A) and the verdict; the maps
# of the extension benchmark's families, the verify-aut reproducers and the
# quotient maps of AC9, rational or not
AUTOMORPHISMS = [
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x->y; y->z; z->x", None, None, True),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x->s*x; y->s^2*y; z->z", None, None,
     True),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x->y; y->x; z->-z", None, None, False),
    ((1, 1, 2), GAUSS, "x^4+y^4+z^2-2*x*y*z", "x->s*x; y->-s*y; z->z", None, None, True),
    ((1, 1, 2), GAUSS, "x^4+y^4+z^2-2*x*y*z", "x->y; y->x; z->z", None, None, False),
    ((1, 1, 1), CUBE_ROOT, "x*y*z", "x->x*y; y->y; z->z", None, None, False),
    ((1, 1, 2), GAUSS, "x*y+z", "x->x; y->y; z->z+1", "x->x; y->y; z->z-1", None, True),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3", "x->x; y->y; z->z", "x->2*x; y->y; z->z", None,
     False),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x->y; y->z; z->x", "x->z; y->x; z->y",
     1, True),
    ((1, 1, 1), CUBE_ROOT, "x^3+y^3+z^3+3/2*x*y*z", "x->y; y->x; z->-z", "x->y; y->x; z->-z",
     2, False),
    ((1, 1, 2), GAUSS, "x^4+y^4+z^2+x*y*z", "x->s*y; y->-s*x; z->-z-x*y",
     "x->s*y; y->-s*x; z->-z-x*y", 1, True),
    ((1, 2, 3), GAUSS, "x^6+y^3+z^2+x*y*z", "x->2*x; y->4*y; z->8*z",
     "x->(1/2)*x; y->(1/4)*y; z->(1/8)*z", 1, False),
]


def _automorphism_input(w, field, potential, phi, psi):
    weights = Weights(*w)
    return (parse_poly(potential, weights, field), parse_map(phi, weights, field),
            psi and parse_map(psi, weights, field))


@pytest.mark.parametrize("w, field, potential, phi, psi, xi, verdict", AUTOMORPHISMS,
                         ids=["%s-%s-%s" % (c[2], c[3], c[5]) for c in AUTOMORPHISMS])
def test_rational_potential_has_the_automorphism_verdict_of_its_irrational_multiple(
        w, field, potential, phi, psi, xi, verdict):
    """s*O has the same Poisson maps as O, and (s*O - s*xi) = (O - xi)"""
    omega, phi, psi = _automorphism_input(w, field, potential, phi, psi)
    s = field.generator
    assert verify_automorphism(omega, phi, psi, xi) == verdict
    assert verify_automorphism(omega * s, phi, psi, None if xi is None else s * xi) == verdict


def _field_products(monkeypatch, *args):
    """the number of ExtensionField products one verify_automorphism makes"""
    products = [0]
    real_mul = ExtensionField._mul

    def mul_spy(self, u, v):
        products[0] += 1
        return real_mul(self, u, v)

    monkeypatch.setattr(ExtensionField, "_mul", mul_spy)
    verify_automorphism(*args)
    monkeypatch.undo()
    return products[0]


RATIONAL_AUTOMORPHISMS = [c for c in AUTOMORPHISMS if "s" not in c[3] + (c[4] or "")]


@pytest.mark.parametrize("w, field, potential, phi, psi, xi, verdict", RATIONAL_AUTOMORPHISMS,
                         ids=["%s-%s-%s" % (c[2], c[3], c[5]) for c in RATIONAL_AUTOMORPHISMS])
def test_rational_automorphism_check_makes_no_field_product(monkeypatch, w, field, potential,
                                                            phi, psi, xi, verdict):
    omega, phi, psi = _automorphism_input(w, field, potential, phi, psi)
    assert _field_products(monkeypatch, omega, phi, psi, xi) == 0
    # s*O keeps the arithmetic of Q(s)
    s = field.generator
    assert _field_products(monkeypatch, omega * s, phi, psi, None if xi is None else s * xi) > 0
