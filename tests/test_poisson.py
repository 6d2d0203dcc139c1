"""Poisson structures from potentials: brackets, Jacobi and modular
checks, twists, graded derivation spaces, and the rigidity index."""

import random
from fractions import Fraction

import pytest

import reference_maps as ref
from wpoisson import (
    PolyVector,
    Weights,
    catalog,
    format_poly,
    from_potential,
    jacobiator,
    modular_derivation,
    parse_map,
    parse_poly,
    rgt,
    verify_automorphism,
)
from wpoisson.poisson import (
    PoissonStructure,
    bracket,
    euler_derivation,
    graded_derivation_space,
    graded_twist,
    hamiltonian,
    jacobian_determinant,
)
from wpoisson.ring import (QQ, ExtensionField, Polynomial, RingError, div, dot, gradient,
                           monomial_basis)


W111 = Weights(1, 1, 1)
W112 = Weights(1, 1, 2)
W123 = Weights(1, 2, 3)


def _vars(w):
    return (Polynomial.variable(w, "x"),
            Polynomial.variable(w, "y"),
            Polynomial.variable(w, "z"))


def test_from_potential_quadric_brackets():
    om = parse_poly("z^2+x^3*y", W112)
    s = from_potential(om)
    assert format_poly(s.pxy) == "2*z"
    assert format_poly(s.pyz) == "3*x^2*y"
    assert format_poly(s.pzx) == "x^3"


def test_from_potential_rejects_bad_input():
    with pytest.raises(RingError):
        from_potential(Polynomial.zero(W112))
    with pytest.raises(RingError):
        from_potential(parse_poly("x^2+x", W111))
    with pytest.raises(RingError):
        from_potential(Polynomial.constant(W111, 3))


def test_bracket_values_and_antisymmetry():
    om = parse_poly("z^2+x^3*y", W112)
    s = from_potential(om)
    x, y, z = _vars(W112)
    assert bracket(s, x, y) == s.pxy
    assert bracket(s, y, z) == s.pyz
    assert bracket(s, z, x) == s.pzx
    f = x * y + z
    g = x * x - y * y
    assert bracket(s, f, g) == -bracket(s, g, f)
    assert bracket(s, f, f).is_zero()


def test_bracket_leibniz():
    om = parse_poly("x^3+y^3+z^3+x*y*z", W111)
    s = from_potential(om)
    x, y, z = _vars(W111)
    f, g, h = x + y, y * z, z * z - x * y
    assert bracket(s, f, g * h) == bracket(s, f, g) * h + g * bracket(s, f, h)


def test_bracket_degree_law_balanced():
    # when the potential degree equals a+b+c the bracket of homogeneous
    # elements adds degrees
    om = parse_poly("z^2+y^3", W123)
    s = from_potential(om)
    x, y, z = _vars(W123)
    out = bracket(s, x * y, z)
    assert out.is_zero() or out.homogeneous_degree() == 6


def test_potential_is_central():
    for w, text in ((W111, "x^3+y^3+z^3+x*y*z"), (W112, "z^2+x^3*y")):
        om = parse_poly(text, w)
        s = from_potential(om)
        for f in _vars(w):
            assert bracket(s, om, f).is_zero()


def test_jacobiator_zero_for_potential_structures():
    om = parse_poly("x*y*z+x^4+y^4", W112)
    assert jacobiator(from_potential(om)).is_zero()


def test_jacobiator_detects_non_poisson():
    x, y, z = _vars(W111)
    s = PoissonStructure(x, y, z)
    assert format_poly(jacobiator(s)) == "x+y+z"


def test_modular_derivation_vanishes_for_potentials():
    om = parse_poly("z^2+y^3", W123)
    assert modular_derivation(from_potential(om)).is_zero()


def test_modular_derivation_detects_nonunimodular():
    x, y, z = _vars(W111)
    s = PoissonStructure(x, y, z)
    m = modular_derivation(s)
    assert [format_poly(c) for c in m.comps] == ["1", "1", "1"]


def test_hamiltonian_derivations():
    om = parse_poly("z^2+x^3*y", W112)
    s = from_potential(om)
    x, y, z = _vars(W112)
    h = hamiltonian(s, x)
    assert isinstance(h, PolyVector)
    assert [format_poly(c) for c in h.comps] == [
        format_poly(bracket(s, x, v)) for v in (x, y, z)]
    # divergence-free because the structure is unimodular
    assert div(h).is_zero()
    assert hamiltonian(s, om).is_zero()


def test_euler_derivation():
    e = euler_derivation(W123)
    assert [format_poly(c) for c in e.comps] == ["x", "2*y", "3*z"]
    assert div(e) == Polynomial.constant(W123, 6)
    om = parse_poly("z^2+y^3", W123)
    assert dot(gradient(om), e) == om * 6


def test_graded_twist_of_semi_poisson_derivation():
    om = parse_poly("x*y*z", W111)
    s = from_potential(om)
    x, y, z = _vars(W111)
    delta = PolyVector(x, y * 2, z * 3)
    twisted, still_poisson = graded_twist(s, delta)
    assert still_poisson
    assert jacobiator(twisted).is_zero()
    # twisting by the Euler derivation itself is a no-op
    same, flag = graded_twist(s, euler_derivation(W111))
    assert flag
    assert same.pxy == s.pxy and same.pyz == s.pyz and same.pzx == s.pzx


def test_graded_twist_rejects_wrong_degree():
    s = from_potential(parse_poly("x*y*z", W111))
    x, y, z = _vars(W111)
    zero = Polynomial.zero(W111)
    for delta in (PolyVector(x * x, zero, zero),   # degree 1
                  PolyVector(x + y * y, zero, zero),   # inhomogeneous
                  PolyVector(x, y * z, zero)):   # degrees 0 and 1
        with pytest.raises(RingError):
            graded_twist(s, delta)
    # on (1,1,2) the value on z must have degree 2, not 1
    s = from_potential(parse_poly("x^2*z+x*y^3", W112))
    x, y, z = _vars(W112)
    zero = Polynomial.zero(W112)
    with pytest.raises(RingError):
        graded_twist(s, PolyVector(zero, zero, x))
    twisted, _ = graded_twist(s, PolyVector(zero, zero, x * x))
    assert twisted.pzx == s.pzx - x * x * x


def test_graded_derivation_space_rigid_case():
    om = parse_poly("x^3+y^3+z^3+x*y*z", W111)
    sp = graded_derivation_space(from_potential(om), 0)
    assert len(sp) == 1
    assert [format_poly(c) for c in sp[0].comps] == ["x", "y", "z"]


def test_graded_derivation_space_reducible_case():
    om = parse_poly("x^2*z+x*y^3", W112)
    sp = graded_derivation_space(from_potential(om), 0)
    assert len(sp) == 2
    flat = [[format_poly(c) for c in d.comps] for d in sp]
    assert ["0", "x", "-3*y^2"] in flat


def _formatted(basis):
    return [[format_poly(c) for c in v.comps] for v in basis]


def _assert_derivations_match_d1(omega, label):
    """the derivation bases, formatted, equal those of the d1 kernel at every
    degree from -n-1 to 2n"""
    s = from_potential(omega)
    n = omega.homogeneous_degree()
    for d in range(-n - 1, 2 * n + 1):
        assert (_formatted(graded_derivation_space(s, d))
                == _formatted(ref.derivations_by_d1(s, d))), (label, d)


def test_derivations_match_the_d1_kernel_on_the_catalog():
    for e in catalog.entries():
        _assert_derivations_match_d1(e.omega, e.entry_id)


# the two extension families of the benchmark, each with a rational and a
# non-rational parameter
_EXTENSION_MEMBERS = [
    pytest.param(W111, [1, 1, 1], "x^3+y^3+z^3+(%s)*x*y*z", lam, id="cubic(%s)" % lam)
    for lam in ("-5/2", "2+s", "-3", "1-3*s")
] + [
    pytest.param(W112, [1, 0, 1], "x^4+y^4+z^2+(%s)*x*y*z", lam, id="quartic(%s)" % lam)
    for lam in ("3/2", "-1+2*s", "0", "s")
]


@pytest.mark.parametrize("weights, modulus, template, lam", _EXTENSION_MEMBERS)
def test_derivations_match_the_d1_kernel_on_the_extension_families(weights, modulus,
                                                                    template, lam):
    om = parse_poly(template % lam, weights, ExtensionField(modulus))
    _assert_derivations_match_d1(om, lam)


@pytest.mark.parametrize("weights, modulus, template, lam", _EXTENSION_MEMBERS)
def test_derivations_assemble_no_d1_matrix(monkeypatch, weights, modulus, template, lam):
    """a spy on the package's assembler: degrees 0..3 read the derivations
    off [T_d | c], whose two target slices are A_{d+n} and A_d, and assemble
    no d1 matrix, which maps three slices of X^1 to three of X^2.  The
    package ships no d1 table to build one from (``test_imports``)"""
    from wpoisson import complexes
    om = parse_poly(template % lam, weights, ExtensionField(modulus))
    shapes = []
    real = complexes.assemble

    def spy(w, src_degs, tgt_degs, table):
        shapes.append((len(src_degs), len(tgt_degs)))
        return real(w, src_degs, tgt_degs, table)

    monkeypatch.setattr(complexes, "assemble", spy)
    s = from_potential(om)
    for d in range(4):
        graded_derivation_space(s, d)
    assert shapes and (3, 3) not in shapes
    # the spy sees the d1 route
    monkeypatch.setattr(ref, "assemble", spy)
    ref.derivations_by_d1(s, 0)
    assert (3, 3) in shapes


@pytest.mark.parametrize("weights, field, text", [
    (W111, QQ, "(x^2+y*z)^2"),
    (W111, QQ, "x^3*y^3"),
    (W111, QQ, "x^2*y^2*z^2"),
    (W111, ExtensionField([1, 1, 1]), "(x^3+y^3+s*z^3)^2"),
])
def test_derivations_match_the_d1_kernel_on_proper_powers(weights, field, text):
    """Casimirs in degrees that n does not divide, and n != a+b+c"""
    _assert_derivations_match_d1(parse_poly(text, weights, field), text)


def test_derivations_match_the_d1_kernel_where_the_casimir_column_is_rational():
    """at d = -n = -2, X1_d is not zero and c = (1, 0) has no s-part, while
    the table of T is over Q(s): c must join it over Q(s), not over Q"""
    om = parse_poly("x^2+s*x*y+y^2", Weights(1, 1, 5), ExtensionField([1, 1, 1]))
    assert graded_derivation_space(from_potential(om), -2)
    _assert_derivations_match_d1(om, "x^2+s*x*y+y^2")


def test_rgt_values():
    assert rgt(parse_poly("x^3+y^3+z^3+x*y*z", W111)) == 0
    assert rgt(parse_poly("x^2*z+x*y^3", W112)) == -1
    assert rgt(parse_poly("z^2+x^3*y", W112)) == 0


def test_rgt_scaling_invariance():
    for w, text in ((W111, "x^3+y^3+z^3+x*y*z"), (W112, "x^2*z+x*y^3")):
        om = parse_poly(text, w)
        assert rgt(om * 5) == rgt(om)
        assert rgt(om * -1) == rgt(om)


def test_negative_degree_pd_dims():
    assert ref.negative_degree_pd_dims(parse_poly("z^2+y^3", W123)) == {
        -3: 0, -2: 0, -1: 1}
    assert ref.negative_degree_pd_dims(parse_poly("x^3+y^3+z^3+x*y*z", W111)) == {
        -1: 0}


def test_negative_degree_pd_dims_count_the_derivation_bases():
    """dim X1_d - rank d1_d is the size of the kernel basis that
    graded_derivation_space builds, on every negative degree of the catalog"""
    degrees = 0
    for e in catalog.entries():
        s = from_potential(e.omega)
        for d, dim in ref.negative_degree_pd_dims(e.omega).items():
            assert dim == len(graded_derivation_space(s, d)), (e.entry_id, d)
            degrees += 1
    assert degrees == 401


def test_potential_tag_must_match_the_bracket():
    x, y, z = _vars(W111)
    om = x * y * z
    assert PoissonStructure(x * y, y * z, z * x, potential=om) == from_potential(om)
    # P = (y, z, x) is not grad(x*y*z) = (y*z, z*x, x*y)
    with pytest.raises(RingError):
        PoissonStructure(x, y, z, potential=om)
    with pytest.raises(RingError):
        PoissonStructure(x * y, y * z, z * x, potential=om * 2)
    fld = ExtensionField([1, 1, 1])
    with pytest.raises(RingError):
        PoissonStructure(x * y, y * z, z * x, potential=parse_poly("x*y*z", W111, field=fld))


FIELDS = {"Q": QQ, "Q(s)": ExtensionField([1, 1, 1])}


def _random_coef(rng, field):
    c = field.coerce(rng.randint(-3, 3))
    return c if field == QQ else c + field.generator * rng.randint(-3, 3)


def _random_poly(rng, w, field, degrees, terms=3):
    f = Polynomial.zero(w, field)
    for _ in range(terms):
        basis = monomial_basis(w, rng.choice(degrees))
        if basis:
            f = f + Polynomial.monomial(w, rng.choice(basis), _random_coef(rng, field), field)
    return f


def _random_structures(rng, field):
    """random triples, mostly neither Poisson nor unimodular, and the
    structures of random potentials"""
    for w in (W111, W112, W123):
        for _ in range(6):
            yield PoissonStructure(*(_random_poly(rng, w, field, range(4)) for _ in range(3)))
        om = _random_poly(rng, w, field, [w.n_default])
        if not om.is_zero():
            yield from_potential(om)


@pytest.mark.parametrize("field", list(FIELDS.values()), ids=list(FIELDS))
def test_vector_identities_match_the_definitions(field):
    """each function read off P = ({y,z}, {z,x}, {x,y}) equals its
    definition-level form in reference_maps, exactly"""
    rng = random.Random(21)
    nonzero = dict.fromkeys(("bracket", "jacobiator", "modular", "twist", "det"), 0)
    for s in _random_structures(rng, field):
        w = s.weights
        f, g = (_random_poly(rng, w, field, range(5)) for _ in range(2))
        br = bracket(s, f, g)
        assert br == ref.bracket_by_components(s, f, g)
        assert hamiltonian(s, f) == ref.hamiltonian_by_brackets(s, f)
        j = jacobiator(s)
        assert j == ref.jacobiator_by_brackets(s)
        m = modular_derivation(s)
        assert m == ref.modular_by_divergences(s)
        delta = PolyVector(*(_random_poly(rng, w, field, [t]) for t in w.tuple))
        twisted, flag = graded_twist(s, delta)
        expected = ref.twist_by_components(s, delta)
        assert twisted == expected
        assert flag == ref.jacobiator_by_brackets(expected).is_zero()
        images = tuple(_random_poly(rng, w, field, range(4)) for _ in range(3))
        det = jacobian_determinant(images)
        assert det == ref.determinant_by_cofactors(images)
        unchanged = twisted.bivector == s.bivector
        for key, zero in (("bracket", br.is_zero()), ("jacobiator", j.is_zero()),
                          ("modular", m.is_zero()), ("twist", unchanged), ("det", det.is_zero())):
            nonzero[key] += not zero
    assert all(count >= 5 for count in nonzero.values()), nonzero


def test_jacobian_determinant():
    x, y, z = _vars(W111)
    assert format_poly(jacobian_determinant((x, y, z))) == "1"
    assert format_poly(jacobian_determinant((y, x, z))) == "-1"
    assert format_poly(jacobian_determinant((x * 2, y * 4, z * 8))) == "64"


def test_verify_automorphism_identity_and_failure():
    om = parse_poly("z^2+x^3*y", W112)
    ident = parse_map("x->x; y->y; z->z", W112)
    assert verify_automorphism(om, ident)
    wrong = parse_map("x->y; y->x; z->z", W112)
    assert not verify_automorphism(om, wrong)



# the oracle suite: on A, verify_automorphism must give the verdict of
# ref.is_automorphism_by_gradient, J(phi) in k* and grad(O o phi) = J grad(O),
# on seeded maps of five families, over the catalog potentials and the
# potentials of the verify-aut reproducers in test_cli
ORACLE_POTENTIALS = [(e.weights, e.omega_text) for e in catalog.entries()] + [
    (W111, "x*y*z"), (W112, "x*y+z"), (W111, "x^3+y^3+z^3"), (W112, "z^2+x^3*y")]


def _unit(rng, field):
    """a nonzero scalar: +-1, +-2 or +-1/2, times 1, s or s^2 over Q(s)"""
    c = field.coerce(rng.choice([1, -1]) * rng.choice([1, 2, Fraction(1, 2)]))
    if field != QQ:
        c = c * rng.choice([field.one, field.generator, field.generator * field.generator])
    return c


def _signed_permutation(rng, xs, field):
    return tuple(xs[i] * rng.choice([1, -1]) for i in rng.sample(range(3), 3))


def _diagonal(rng, xs, field):
    return tuple(v * _unit(rng, field) for v in xs)


def _triangular(rng, xs, field):
    """x -> u x, y -> u' y + p(x), z -> u'' z + q(x, y), p and q of a few
    terms of exponent at most 2 in each variable"""
    x, y, z = xs
    p = sum((x ** rng.randint(0, 2) * _unit(rng, field) for _ in range(rng.randint(0, 2))),
            x * 0)
    q = sum((x ** rng.randint(0, 2) * y ** rng.randint(0, 2) * _unit(rng, field)
             for _ in range(rng.randint(0, 2))), x * 0)
    return x * _unit(rng, field), y * _unit(rng, field) + p, z * _unit(rng, field) + q


def _multiplier(rng, xs, field):
    """x_i -> x_i x_j: its Jacobian is x_j or 2 x_i, never a unit"""
    i, j = rng.randrange(3), rng.randrange(3)
    return tuple(v * xs[j] if k == i else v for k, v in enumerate(xs))


def _translation(rng, xs, field):
    i = rng.randrange(3)
    return tuple(v + _unit(rng, field) if k == i else v for k, v in enumerate(xs))


# each family with the verdicts its draws must reach
MAP_FAMILIES = [(_signed_permutation, {True, False}), (_diagonal, {True, False}),
                (_triangular, {True, False}), (_multiplier, {False}),
                (_translation, {True, False})]


@pytest.mark.parametrize("field", list(FIELDS.values()), ids=list(FIELDS))
def test_verify_automorphism_agrees_with_the_gradient_oracle(field):
    rng = random.Random("oracle:%s" % field)
    for family, reached in MAP_FAMILIES:
        verdicts = set()
        for w, text in ORACLE_POTENTIALS:
            omega = parse_poly(text, w, field=field)
            xs = tuple(Polynomial.variable(w, v, field) for v in "xyz")
            for _ in range(2):
                phi = family(rng, xs, field)
                expected = ref.is_automorphism_by_gradient(omega, phi)
                assert verify_automorphism(omega, phi) == expected, (family.__name__, text, phi)
                verdicts.add(expected)
        assert verdicts == reached, family.__name__
