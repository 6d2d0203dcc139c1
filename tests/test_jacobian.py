"""Jacobian ideal computations: Groebner bases, singular-quotient Hilbert
functions, GK-dimension, isolated singularities, and partial gcds."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from wpoisson import Matrix, Weights, catalog, format_poly, monomial_basis, parse_poly, rank
from wpoisson import complexes, jacobian
from wpoisson.complexes import koszul_dims
from wpoisson.jacobian import (
    GroebnerBasis,
    _certified,
    _critical_pairs,
    _divisor,
    _entry,
    _hilbert_numerator,
    _reduce,
    _run,
    _s_pairs_reduce_to_zero,
    _s_terms,
    a_sing_hilbert,
    buchberger,
    gcd_partials,
    gkdim,
    has_isolated_singularity,
    jacobian_basis,
    normal_form,
)
from wpoisson.proptest import WEIGHT_POOL, random_homogeneous
from wpoisson.ring import (
    QQ,
    ExtensionField,
    Polynomial,
    RingError,
    gradient,
    rational_copy,
)

from reference_maps import (bigatti_numerator, critical_pairs_by_lcm_table, eager_reduced_basis,
                            gcd_by_fold, gkdim_by_subsets, mono_divides, mono_lcm,
                            standard_monomials)
from work_counts import groebner_counts, load_perfbench, pool, spy


def _mul_term(p, m, coef):
    """p times the single term coef * monomial(m)"""
    return p * Polynomial.monomial(p.weights, m, coef, p.field)


def _mono_div(m1, m2):
    return (m1[0] - m2[0], m1[1] - m2[1], m1[2] - m2[2])


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
                prod = _mul_term(p, m, Fraction(1))
                for mono, coef in prod.terms.items():
                    rows[index[mono]][ncols] = coef
                ncols += 1
        ideal_dim = rank(Matrix(len(basis), ncols, rows))
        assert dims[d] == len(basis) - ideal_dim


def test_a_sing_hilbert_dims_match_standard_monomial_counts():
    """a_sing_hilbert expands the cached numerator; counting the standard
    monomials of the Groebner heads degree by degree is the second route"""
    f = ExtensionField([1, 1, 1])
    potentials = [e.omega for e in catalog.entries()]
    potentials.append(parse_poly("x^3+y^3+z^3+(s+2)*x*y*z", W111, f))
    for om in potentials:
        bound = om.homogeneous_degree() + 6
        dims, _ = a_sing_hilbert(om, bound)
        heads = jacobian_basis(om).heads()
        want = {d: len(standard_monomials(om.weights, heads, d)) for d in range(bound + 1)}
        assert dims == want, format_poly(om)


def test_gkdim_values():
    assert gkdim(parse_poly("z^2+x*y^3+5*x^2*y^2+x^3*y", W112)) == 0
    assert gkdim(parse_poly("z^2+x^3*y", W112)) == 1
    assert gkdim(parse_poly("x^4", W112)) == 2
    assert gkdim(parse_poly("x^3+y^3+z^3+x*y*z", W111)) == 0


def _pole_order_at_one(series):
    """order of the pole at t=1 of a Hilbert series: its number of (1 - t^e)
    denominator factors minus the multiplicity of the root t=1 of its
    numerator; 0 for the zero series"""
    num = dict(series.numerator)
    if not num:
        return 0
    mult = 0
    while sum(num.values()) == 0:
        # p = (1-t) q  means  q_d = sum of p_e over e <= d
        acc, q = 0, {}
        for d in range(min(num), max(num) + 1):
            acc += num.get(d, 0)
            if acc:
                q[d] = acc
        num, mult = q, mult + 1
    return len(series.denominator) - mult


def _random_potentials(seed, per_weight=8):
    rng = random.Random(seed)
    for w in WEIGHT_POOL:
        weights = Weights(*w)
        made = 0
        while made < per_weight:
            n = rng.randint(sum(w) - 1, 2 * sum(w) + 2)
            om = random_homogeneous(rng, weights, n) + random_homogeneous(rng, weights, n)
            if om.is_zero():
                continue
            made += 1
            yield om


def test_gkdim_is_the_pole_order_of_the_hilbert_series():
    potentials = [e.omega for e in catalog.entries()] + list(_random_potentials(29))
    seen = set()
    for om in potentials:
        g = gkdim(om)
        assert g == _pole_order_at_one(a_sing_hilbert(om, 0)[1]), format_poly(om)
        seen.add(g)
    assert seen == {0, 1, 2}


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


def test_gcd_partials_rejects_non_homogeneous():
    with pytest.raises(RingError):
        gcd_partials(parse_poly("x^3+y^2", W111))


def test_gcd_partials_over_extension_field():
    fld = ExtensionField([1, 1, 1])  # s^2 + s + 1
    for text, want in (("(x+s*y)^2*z", "x+s*y"), ("x^2*(y+s*z)^2", "x*y+s*x*z")):
        assert gcd_partials(parse_poly(text, W111, fld)) == parse_poly(want, W111, fld)


def _planted_factor_potentials(seed, per_weight=5):
    """Omega = h^2 r on every property-suite weight triple, so that h divides
    every partial derivative"""
    rng = random.Random(seed)
    for w in WEIGHT_POOL:
        weights = Weights(*w)
        made = 0
        while made < per_weight:
            h = random_homogeneous(rng, weights, rng.randint(1, 4))
            r = random_homogeneous(rng, weights, rng.randint(0, 4))
            if h.is_zero() or r.is_zero():
                continue
            made += 1
            yield h, h * h * r


QS_FIELDS = [ExtensionField([1, 1, 1]), ExtensionField([1, 0, 1])]  # s^2+s+1, s^2+1
_SMALL = [1, 2, 3, 5, -1, -2, Fraction(1, 2), Fraction(-3, 2)]


def _random_form(rng, weights, field, degree, terms):
    """a form of this degree on up to ``terms`` random monomials, with small
    coefficients, and over Q(s) a random s-part too"""
    basis = monomial_basis(weights, degree)
    coef = (lambda: rng.choice(_SMALL)) if field == QQ else (
        lambda: field.coerce(rng.choice(_SMALL)) + field.generator * rng.choice([0] + _SMALL))
    return Polynomial(weights, field, {m: coef() for m in rng.sample(basis, min(len(basis), terms))})


def _gcd_suite(seed, field):
    """potentials on every property-suite weight triple: 1-5-term supports of
    degree n..2n (n = a+b+c, the benchmark pool's shape), planted h r and
    h^2 r with h of degree 1..3, and c x_v^k, whose one nonzero partial is
    its own gcd"""
    rng = random.Random(seed)
    for w in WEIGHT_POOL:
        weights = Weights(*w)
        n = weights.n_default
        for terms in range(1, 6):
            yield _random_form(rng, weights, field, rng.randint(n, 2 * n), terms)
        for power in (1, 2, 1, 2):
            h = _random_form(rng, weights, field, rng.randint(1, 3), rng.randint(1, 3))
            r = _random_form(rng, weights, field, rng.randint(0, 3), rng.randint(1, 3))
            if not (h.is_zero() or r.is_zero()):
                yield h ** power * r
        m = [0, 0, 0]
        m[rng.randrange(3)] = rng.randint(1, 5)
        yield Polynomial.monomial(weights, m, rng.choice(_SMALL), field)


@pytest.mark.parametrize("field", [QQ] + QS_FIELDS, ids=["Q", "s2+s+1", "s2+1"])
def test_gcd_partials_matches_the_pairwise_fold(field):
    """deg gcd from the Hilbert numerator and one K2 kernel, against the
    pairwise fold that sweeps degrees and never builds a Groebner basis"""
    suite = list(_gcd_suite(18, field))
    assert len(suite) > 50
    nonconstant = 0
    for omega in suite:
        got, want = gcd_partials(omega), gcd_by_fold(omega)
        assert (got, format_poly(got)) == (want, format_poly(want)), omega
        nonconstant += got.homogeneous_degree() > 0
    assert nonconstant > len(suite) // 4


def _to_sympy(sympy, p):
    """a polynomial over Q as a sympy Poly in x, y, z over QQ"""
    return sympy.Poly.from_dict(
        {m: sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()},
        *sympy.symbols("x y z"), domain=sympy.QQ)


def _matches_sympy(omega):
    """gcd_partials against the monic gcd of the nonzero partials by sympy"""
    sympy = pytest.importorskip("sympy")
    parts = [_to_sympy(sympy, g) for g in gradient(omega).comps if g.terms]
    want = parts[0]
    for p in parts[1:]:
        want = want.gcd(p)
    got = gcd_partials(omega)
    assert _to_sympy(sympy, got).monic() == want.monic(), omega
    return got


def test_gcd_partials_matches_sympy_over_q():
    for e in catalog.entries():
        _matches_sympy(e.omega)
    for h, omega in _planted_factor_potentials(7):
        assert normal_form(_matches_sympy(omega), [h]).is_zero(), omega
    for omega in _gcd_suite(18, QQ):
        _matches_sympy(omega)


# the coefficients the benchmark's groebner pool draws from
POOL_COEFFS = [1, 2, 3, 5, -1, -2, Fraction(1, 2), Fraction(-3, 2)]
W4 = "x^9+y^9+z^9+x^4*y^4*z+x^3*y^2*z^4+x*y^5*z^3"


def _pool_potentials(seed, weights, count):
    """groebner-pool style potentials: supports of 2 to 5 monomials of one
    degree in n..2n, n = a+b+c, with the pool's coefficients"""
    rng = random.Random(seed)
    n = weights.n_default
    for k in range(count):
        mons = monomial_basis(weights, rng.randint(n, 2 * n))
        support = rng.sample(mons, min(len(mons), 2 + k % 4))
        yield Polynomial(weights, QQ, {m: rng.choice(POOL_COEFFS) for m in support})


def _matches_sympy_grevlex(sympy, omega, basis):
    """on (1,1,1) the order is grevlex with x > y > z: the basis as a set of
    sympy Polys against sympy's reduced Groebner basis of the partials"""
    parts = [_to_sympy(sympy, g) for g in gradient(omega).comps if g.terms]
    want = sympy.groebner(parts, *sympy.symbols("x y z"), order="grevlex", domain=sympy.QQ)
    # Poly.monic divides by the lex leading coefficient
    return ({_to_sympy(sympy, g) for g in basis}
            == {p.quo_ground(p.LC(order="grevlex")) for p in want.polys})


def test_reduced_bases_on_111_match_sympy_grevlex():
    """jacobian_basis must be sympy's reduced Groebner basis, made monic"""
    sympy = pytest.importorskip("sympy")
    pool = list(_pool_potentials(31, W111, 48)) + [parse_poly(W4, W111)]
    for omega in pool:
        assert _matches_sympy_grevlex(sympy, omega, jacobian_basis(omega)), omega


def test_hilbert_gkdim_and_gcd_build_no_basis_polynomial():
    """a cold a_sing_hilbert + gkdim + gcd_partials reads heads and the
    numerator only, so the basis builds no polynomial; iterating it then
    builds the elements the sympy comparison above pins"""
    sympy = pytest.importorskip("sympy")
    pool = list(_pool_potentials(31, W111, 48))
    routes = set()
    for omega in pool[:12]:
        complexes.potential_memo.cache_clear()
        a_sing_hilbert(omega, omega.homogeneous_degree() + 4)
        gkdim(omega)
        routes.add(gcd_partials(omega).homogeneous_degree() > 0)
        gb = jacobian_basis(omega)
        assert gb._polys is None, omega
        assert len(gb) == len(gb.heads()) and gb._polys is None, omega
        assert _matches_sympy_grevlex(sympy, omega, gb), omega
    assert routes == {False, True}


def _numerator_gcd_degree(omega):
    """-N'(1) for the Hilbert numerator N of A/J"""
    return -sum(d * c for d, c in a_sing_hilbert(omega, 0)[1].numerator.items())


def test_gcd_degree_from_groebner_heads_matches_the_koszul_ranks():
    """two routes to deg gcd: -N'(1) from the Groebner heads, and 3n -
    (a+b+c) - d0 with d0 the first degree where K2 falls short of its
    columns, from matrix ranks alone"""
    suite = [e.omega for e in catalog.entries()]
    suite += [om for field in [QQ] + QS_FIELDS for om in _gcd_suite(18, field)]
    for omega in suite:
        n = omega.homogeneous_degree()
        assert (_numerator_gcd_degree(omega) == 3 * n - omega.weights.n_default
                - complexes.potential_memo(omega).k2_kernel_degree), omega
        assert _numerator_gcd_degree(omega) == gcd_partials(omega).homogeneous_degree()


def _content(omega):
    """the monomial content of the nonzero partials, as a monic polynomial"""
    exps = [m for g in gradient(omega).comps for m in g.terms]
    return Polynomial.monomial(omega.weights, [min(m[v] for m in exps) for v in range(3)],
                               omega.field.one, omega.field)


_GUARDED = [(W111, QQ, "x^3+y^3+z^3"), (W112, QQ, "x^4"), (W111, QQ, "x^2*y^2"),
            (W123, QQ, "(x^2+y)^2*z"), (W111, QS_FIELDS[0], "(x+s*y)^2*z"),
            (W112, QS_FIELDS[1], "x^2*(y^2+s*z)^2"),
            # the content route on weights other than 1
            (Weights(2, 3, 5), QQ, "x^5*y^5*z^5"),
            # content y^4, a proper factor of the gcd x*y^4 - y^5
            (Weights(1, 1, 3), QQ, "x^2*y^5-2*x*y^6+y^7")]


@pytest.mark.parametrize("weights, field, text", _GUARDED, ids=[t for _, _, t in _GUARDED])
def test_gcd_partials_takes_one_kernel_per_map_and_no_basis(weights, field, text):
    """after the Hilbert numerator is cached, the gcd builds no Groebner
    basis (``_basis``, the core of every basis build), takes no kernel when
    it is the monomial content of the partials (deg gcd 0 included) and two
    otherwise: a degree sweep would show as more"""
    omega = parse_poly(text, weights, field)
    a_sing_hilbert(omega, 0)
    want = gcd_by_fold(omega)
    calls = {"_basis": 0, "kernel_basis": 0}

    def counted(name):
        def wrap(real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call
        return wrap

    with spy(jacobian, "_basis", counted("_basis")), \
            spy(jacobian, "kernel_basis", counted("kernel_basis")):
        assert gcd_partials(omega) == want
    assert calls == {"_basis": 0, "kernel_basis": 0 if want == _content(omega) else 2}


def _routes(monkeypatch, suite):
    """(content, koszul) counts of the route gcd_partials takes on the
    potentials of the suite with a nonconstant gcd; each content-route gcd
    must equal _gcd_from_koszul's, as a polynomial and as text"""
    koszul = jacobian._gcd_from_koszul
    taken = []

    def counted(memo, delta):
        taken.append(memo.omega)
        return koszul(memo, delta)

    monkeypatch.setattr(jacobian, "_gcd_from_koszul", counted)
    content = 0
    for omega in suite:
        before = len(taken)
        got = gcd_partials(omega)
        delta = got.homogeneous_degree()
        if not delta or len(taken) > before:
            continue
        content += 1
        want = koszul(complexes.potential_memo(omega), delta)
        assert (got, format_poly(got)) == (want, format_poly(want)), omega
        assert got == _content(omega), omega
    return content, len(taken)


@pytest.mark.parametrize("field, want", [(QQ, (28, 7)), (QS_FIELDS[0], (27, 6)),
                                         (QS_FIELDS[1], (27, 6))], ids=["Q", "s2+s+1", "s2+1"])
def test_the_content_route_matches_the_koszul_route_on_the_gcd_suite(monkeypatch, field, want):
    """both routes are taken, and where the content applies the Koszul
    kernels give the same gcd"""
    assert _routes(monkeypatch, _gcd_suite(18, field)) == want


def test_the_groebner_pool_takes_the_content_route_only(monkeypatch):
    suite = [om for w in WEIGHT_POOL for om in _pool_potentials(31, Weights(*w), 48)]
    assert _routes(monkeypatch, suite) == (79, 0)


@pytest.mark.parametrize("weights, field, text", _GUARDED, ids=[t for _, _, t in _GUARDED])
def test_gcd_partials_refuses_a_numerator_one_degree_off(monkeypatch, weights, field, text):
    """a corrupted numerator whose -N'(1) is one too large puts d0 a degree
    below the Koszul kernel: RingError, not a wrong gcd"""
    numerator_of = jacobian._jacobian_numerator

    def corrupted(memo):
        num = dict(numerator_of(memo))
        for d, c in ((0, 1), (1, -1)):  # adds 1 - t: N(1) stays, -N'(1) grows by 1
            num[d] = num.get(d, 0) + c
        return tuple((d, c) for d, c in num.items() if c)

    omega = parse_poly(text, weights, field)
    delta = _numerator_gcd_degree(omega)
    monkeypatch.setattr(jacobian, "_jacobian_numerator", corrupted)
    assert _numerator_gcd_degree(omega) == delta + 1
    with pytest.raises(RingError, match="disagrees with the Koszul kernel"):
        gcd_partials(omega)


def test_low_gkdim_implies_coprime_partials():
    from wpoisson import catalog
    one_cache = {}
    for e in catalog.entries():
        if gkdim(e.omega) <= 1:
            w = e.weights
            one = one_cache.setdefault(w.tuple, Polynomial.constant(w, 1))
            assert gcd_partials(e.omega) == one, e.entry_id


def _inclusion_exclusion_numerator(weights, heads):
    """Hilbert numerator of A modulo a monomial ideal as the alternating sum
    over all subsets of the generators of t^deg(lcm)"""
    num = {}
    for r in range(len(heads) + 1):
        for sub in combinations(heads, r):
            m = (0, 0, 0)
            for h in sub:
                m = mono_lcm(m, h)
            d = weights.mono_degree(m)
            num[d] = num.get(d, 0) + (-1) ** r
    return {d: c for d, c in num.items() if c}


def test_hilbert_numerator_matches_inclusion_exclusion_on_catalog():
    for e in catalog.entries():
        heads = jacobian_basis(e.omega).heads()
        _, series = a_sing_hilbert(e.omega, 0)
        assert series.numerator == _inclusion_exclusion_numerator(e.weights, heads), e.entry_id
        assert series.denominator == tuple(sorted(e.weights.tuple))


def test_hilbert_numerator_matches_inclusion_exclusion_on_random_ideals():
    rng = random.Random(11)
    for w in (W111, W123, Weights(2, 3, 5)):
        for _ in range(60):
            k = rng.randint(0, 9)
            gens = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(k)]
            minimal = [m for m in set(gens)
                       if not any(p != m and mono_divides(p, m) for p in gens)]
            want = _inclusion_exclusion_numerator(w, minimal)
            # redundant and repeated generators (the unit monomial included)
            # give the numerator of the minimal ones
            assert _hilbert_numerator(w, gens) == want, gens


def _random_monomial_ideal(rng, size, top):
    """size exponent triples up to top, some repeated, some multiples of
    others, the unit monomial now and then"""
    gens = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(size)]
    for _ in range(rng.randint(0, 3) if gens else 0):
        m = rng.choice(gens)
        gens.append(m if rng.random() < 0.5 else tuple(e + rng.randint(0, 2) for e in m))
    if rng.random() < 0.1:
        gens.append((0, 0, 0))
    rng.shuffle(gens)
    return gens


def test_hilbert_numerator_matches_the_bigatti_recursion():
    """the z-slice numerator against Bigatti's pivot recursion where
    inclusion-exclusion over 2^k subsets is out of reach: W4's 50 heads and
    seeded random ideals of 13 to 60 generators"""
    heads = jacobian_basis(parse_poly(W4, W111)).heads()
    assert len(heads) == 50
    assert _hilbert_numerator(W111, heads) == bigatti_numerator(W111, heads)
    rng = random.Random(2024)
    for w in (W111, W112, W123, Weights(2, 3, 5)):
        for _ in range(25):
            gens = _random_monomial_ideal(rng, rng.randint(13, 60), rng.choice((4, 7, 12)))
            assert _hilbert_numerator(w, gens) == bigatti_numerator(w, gens), (w, gens)


def _hilbert_function_matches_koszul_h0(omega, bound):
    dims, _ = a_sing_hilbert(omega, bound)
    h0 = koszul_dims(omega, bound)
    return [dims[d] for d in range(bound + 1)] == [h0.dim(0, d) for d in range(bound + 1)]


def test_groebner_hilbert_function_matches_koszul_h0_on_catalog():
    """two routes to dim (A/J)_d: standard monomials of the Groebner basis,
    and the cokernel of the first Koszul differential (linear algebra)"""
    for e in catalog.entries():
        n = e.omega.homogeneous_degree()
        assert _hilbert_function_matches_koszul_h0(e.omega, n + 6), e.entry_id


@pytest.mark.parametrize("w, text, heads, gk", [
    ((2, 3, 5), "x^2*y^3*z+y^6+x^6*y^2+x^4*z^2+x*y^2*z^2", 21, 1),
    ((1, 1, 1), "x^7+y^7+z^7+x^3*y^3*z+x^2*y^2*z^3", 30, 0),
])
def test_wide_initial_ideals_get_an_answer(w, text, heads, gk):
    om = parse_poly(text, Weights(*w))
    assert len(jacobian_basis(om).heads()) == heads
    assert gkdim(om) == gk
    assert has_isolated_singularity(om) is (gk == 0)
    assert _hilbert_function_matches_koszul_h0(om, 2 * om.homogeneous_degree())


def _restarting_normal_form(f, basis):
    """full division that restarts from the leading term after every single
    reduction step, each term reduced by the first divisor in list order"""
    polys = [g for g in basis if g.terms]
    heads = [g.leading_monomial() for g in polys]
    out = f
    changed = True
    while changed:
        changed = False
        for m, coef in out.sorted_terms():
            for g, h in zip(polys, heads):
                if mono_divides(h, m):
                    out = out - _mul_term(g, _mono_div(m, h), coef / g.terms[h])
                    changed = True
                    break
            if changed:
                break
    return out


@pytest.mark.parametrize("w, text, field", [
    (W111, "x^3+y^3+z^3+x*y*z", QQ),
    (W112, "x*y*z+x^4+y^4+3*x^2*y^2", QQ),
    (W111, "x^3+y^3+z^3+s*x*y*z", ExtensionField([1, 1, 1])),
    # the 1/2 and -3/2 coefficients of the benchmark's groebner pool
    (W112, "1/2*x*y*z-3/2*x^4+y^4-3/2*x^2*y^2", QQ),
    # every partial has a negative, non-unit head coefficient
    (W111, "-3/2*x^3-3*y^3-2*z^3-5*x*y*z", QQ),
    # non-unit head coefficients over Q(s)
    (W123, "(1+2*s)*x^6+(2-s)*y^3-3*z^2+s*x*y*z", ExtensionField([1, 0, 1])),
])
def test_normal_form_matches_restarting_division_by_partial_lists(w, text, field):
    """fraction-free division against the Fraction reference: f and the
    divisors enter with denominators and signs, so this covers the entry
    scale, the positive-head rule and the exit division"""
    om = parse_poly(text, w, field=field)
    parts = [om.partial(i) for i in range(3)]
    # the three partials are not a Groebner basis of the Jacobian ideal, so
    # remainders by them depend on the order of the reduction steps
    gb_heads = set(buchberger(parts).heads())
    assert gb_heads != {p.leading_monomial() for p in parts}
    # a divisor is primitive with a positive head over Q, monic over Q(s)
    for p in parts:
        p = p * Fraction(-7, 3)
        _, lc, tail = _divisor(field, p.leading_monomial(), _entry(field, p.terms)[1])
        if field == QQ:
            assert lc > 0 and math.gcd(lc, *(c for _, c in tail)) == 1
        else:
            assert lc == 1
    rng = random.Random(text)
    n = om.homogeneous_degree()
    for _ in range(15):
        d = n + rng.randint(0, 5)
        mons = monomial_basis(w, d)
        terms = {m: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))
                 for m in rng.sample(mons, min(8, len(mons)))}
        f = Polynomial(w, field, terms)
        for divisors in (parts[:1], parts[:2], parts, [p * Fraction(-7, 3) for p in parts]):
            assert normal_form(f, divisors) == _restarting_normal_form(f, divisors)


def _s_polynomial(f, g):
    h1, h2 = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(h1, h2)
    one = f.field.one
    return (_mul_term(f, _mono_div(lcm, h1), one / f.terms[h1])
            - _mul_term(g, _mono_div(lcm, h2), one / g.terms[h2]))


def _all_pairs_reduce_to_zero(polys):
    """the sanity pass as it was: the S-polynomial of every pair, reduced by
    the whole list"""
    return all(normal_form(_s_polynomial(f, g), polys).is_zero()
               for f, g in combinations(polys, 2))


def _proves_groebner(polys):
    polys = [p for p in polys if p.terms]
    return _s_pairs_reduce_to_zero(polys[0].weights,
                                   [_divisor(p.field, p.leading_monomial(),
                                             _entry(p.field, p.terms)[1]) for p in polys])


F3 = ExtensionField([1, 1, 1])  # s^2 + s + 1
CUBE = "x^3+y^3+z^3+x*y*z"


def test_s_pair_proof_accepts_every_catalog_basis_and_one_over_q_s():
    for e in catalog.entries():
        gb = jacobian_basis(e.omega)
        assert _s_pairs_reduce_to_zero(gb.weights, gb._divisors), e.entry_id
    om = parse_poly("x^3+y^3+z^3+s*x*y*z", W111, F3)
    gb = buchberger(gradient(om).comps)
    assert _s_pairs_reduce_to_zero(gb.weights, gb._divisors)
    assert _all_pairs_reduce_to_zero(list(gb))


def test_s_pair_proof_rejects_raw_partials_and_a_basis_missing_an_element():
    parts = list(gradient(parse_poly(CUBE, W111)).comps)
    # the partials are not a Groebner basis: the reduced basis has other heads
    assert set(buchberger(parts).heads()) != {p.leading_monomial() for p in parts}
    assert not _proves_groebner(parts)
    assert not _all_pairs_reduce_to_zero(parts)
    gb = list(buchberger(parts))
    dropped = gb[:-1]
    assert not _all_pairs_reduce_to_zero(dropped)
    assert not _proves_groebner(dropped)


def _random_generators(rng, field):
    w = Weights(*rng.choice(WEIGHT_POOL))
    gens = []
    for _ in range(rng.randint(2, 4)):
        f = random_homogeneous(rng, w, rng.randint(1, 6))
        if field is not QQ:
            f = Polynomial(w, field, {m: c + rng.randint(-2, 2) * field.generator
                                      for m, c in f.terms.items()})
        gens.append(f)
    return gens


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "Q(s)"])
def test_s_pair_proof_agrees_with_all_pairs_on_random_generators(field):
    rng = random.Random(808)
    verdicts = set()
    for _ in range(40):
        gens = [g for g in _random_generators(rng, field) if g.terms]
        if not gens:
            continue
        gb = list(buchberger(gens))
        for polys in (gens, gb, gb[1:]):
            if polys:
                want = _all_pairs_reduce_to_zero(polys)
                assert _proves_groebner(polys) is want, polys
                verdicts.add(want)
    assert verdicts == {True, False}


def test_w4_checks_129_of_1225_pairs():
    om = parse_poly(W4, W111)
    gb = jacobian_basis(om)
    assert len(gb) == 50 and len(list(combinations(gb, 2))) == 1225
    assert len(_critical_pairs(gb.heads())) == 129
    assert gkdim(om) == 0


def _count_numerator_calls(monkeypatch):
    """the heads of every call of the numerator routine from now on, with
    every potential's memo emptied"""
    calls = []
    numerator_of = jacobian._hilbert_numerator

    def counted(weights, heads):
        calls.append(heads)
        return numerator_of(weights, heads)

    monkeypatch.setattr(jacobian, "_hilbert_numerator", counted)
    complexes.potential_memo.cache_clear()
    return calls


def test_hilbert_numerator_is_computed_once_per_potential(monkeypatch):
    om = parse_poly("x^5+y^5+z^5+x^2*y^2*z", W111)
    calls = _count_numerator_calls(monkeypatch)
    _, first = a_sing_hilbert(om, 6)
    assert gkdim(om) == 0 and has_isolated_singularity(om)
    _, again = a_sing_hilbert(om, 6)
    assert len(calls) == 1
    assert (again.numerator, again.denominator) == (first.numerator, first.denominator)
    # the cache holds an immutable copy: mutating a returned numerator does
    # not reach the next call
    want = dict(first.numerator)
    first.numerator[999] = 7
    first.numerator.pop(0)
    assert a_sing_hilbert(om, 6)[1].numerator == want


def test_critical_pairs_apply_the_product_and_strict_chain_criteria():
    x2y, yz2 = (2, 1, 0), (0, 1, 2)
    assert _critical_pairs([(2, 0, 0), (0, 2, 0)]) == []  # coprime heads
    # xyz divides lcm(x^2 y, y z^2) = x^2 y z^2, and its lcms with both are
    # strictly smaller, so the pair is dropped
    assert _critical_pairs([x2y, yz2, (1, 1, 1)]) == [(0, 2), (1, 2)]
    # lcm(x^2 y z, y z^2) is the whole lcm: not a strict chain, the pair stays
    assert _critical_pairs([x2y, yz2, (2, 1, 1)]) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("text", [W4, "x^3*y+y^3*z+z^3*x+x^2*y^2", "x^2*y*z+x*y^2*z"])
def test_a_numerator_is_one_call_of_the_numerator_routine(monkeypatch, text):
    """a recursion through the module name would count every level here"""
    om = parse_poly(text, W111)
    jacobian_basis(om)
    calls = _count_numerator_calls(monkeypatch)
    a_sing_hilbert(om, 4)
    gcd_partials(om)
    assert calls == [jacobian_basis(om).heads()]


def _isolated_potentials(field, seed, multiples, per_weight):
    """seeded full-support potentials of degree k(a+b+c), k in multiples, on
    the property-suite weights, kept where the singularity is isolated"""
    rng = random.Random(seed)
    for w in map(lambda t: Weights(*t), WEIGHT_POOL):
        for n in (k * w.n_default for k in multiples):
            for _ in range(per_weight):
                terms = {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2]))
                         for m in monomial_basis(w, n)}
                if field is not QQ:
                    terms = {m: c + rng.randint(-2, 2) * field.generator
                             for m, c in terms.items()}
                om = Polynomial(w, field, terms)
                if om.terms and has_isolated_singularity(om):
                    yield om


def _assert_milnor_orlik(om):
    """A/J of an isolated weighted-homogeneous potential is a complete
    intersection of the three partials: its numerator is
    prod (1 - t^(n - w_i)), it vanishes at t = 1, and dim A/J is
    prod (n - w_i)/w_i (Milnor-Orlik), all of it in degrees up to
    3n - 2(a+b+c)"""
    n = om.homogeneous_degree()
    w = om.weights.tuple
    dims, series = a_sing_hilbert(om, 3 * n)
    assert sum(series.numerator.values()) == 0, om
    assert sum(dims.values()) == math.prod(Fraction(n - wi, wi) for wi in w), om
    assert not any(dims[d] for d in range(3 * n - 2 * sum(w) + 1, 3 * n + 1)), om
    want = {0: 1}
    for e in (n - wi for wi in w):
        want = {d: want.get(d, 0) - want.get(d - e, 0) for d in set(want) | {d + e for d in want}}
    assert series.numerator == {d: c for d, c in want.items() if c}, om


def test_isolated_catalog_numerators_satisfy_milnor_orlik():
    isolated = [e for e in catalog.entries() if has_isolated_singularity(e.omega)]
    assert len(isolated) == 9
    for e in isolated:
        _assert_milnor_orlik(e.omega)


# over Q(s) a full support of degree 2(a+b+c) takes about a second per basis
@pytest.mark.parametrize("field, multiples, per_weight, least", [
    (QQ, (1, 2), 2, 16), (F3, (1,), 3, 9)], ids=["Q", "Q(s)"])
def test_isolated_random_numerators_satisfy_milnor_orlik(field, multiples, per_weight, least):
    seen = 0
    for om in _isolated_potentials(field, 41, multiples, per_weight):
        _assert_milnor_orlik(om)
        seen += 1
    assert seen >= least


def test_critical_pairs_match_the_lcm_table_scan():
    """the coordinate-wise scan returns the reference list, in order, on
    seeded head lists with repeated, dividing and unit heads, and on every
    catalog basis"""
    rng = random.Random(77)
    for _ in range(400):
        heads = _random_monomial_ideal(rng, rng.randint(0, 24), rng.choice((2, 4, 6)))
        assert _critical_pairs(heads) == critical_pairs_by_lcm_table(heads), heads
    for e in catalog.entries():
        heads = list(jacobian_basis(e.omega).heads())
        assert _critical_pairs(heads) == critical_pairs_by_lcm_table(heads), e.entry_id


# the extension families of the benchmark, each with a rational and a
# non-rational coefficient: the first basis comes from the run over Q
EXTENSION_FAMILIES = [
    (W111, "x^3+y^3+z^3+(%s)*x*y*z", ExtensionField([1, 1, 1]), ("-2", "1+2*s")),
    (W112, "x^4+y^4+z^2+(%s)*x*y*z", ExtensionField([1, 0, 1]), ("3/2", "-1-s")),
]


def _lazy_basis_cases():
    """(label, potential) over the catalog, seeded pool potentials on every
    weight triple of the property suites, and the extension families"""
    for e in catalog.entries():
        yield e.entry_id, e.omega
    for w in map(lambda t: Weights(*t), WEIGHT_POOL):
        for om in _pool_potentials(53, w, 12):
            yield str(w), om
    for w, template, field, lams in EXTENSION_FAMILIES:
        for lam in lams:
            yield lam, parse_poly(template % lam, w, field)


def _minimal_polys(gb):
    """the monic elements of the minimal basis a GroebnerBasis holds"""
    return tuple(Polynomial(gb.weights, gb.field, {h: lc, **dict(tail)}).monic()
                 for h, lc, tail in gb._divisors)


def test_reduced_basis_on_first_read_matches_the_eager_inter_reduction():
    """buchberger returns the minimal basis; .polys inter-reduces it on first
    read, over its own field, lifted from Q or not.  It must equal the eager
    inter-reduction of the minimal basis"""
    seen, unreduced = 0, 0
    for label, om in _lazy_basis_cases():
        gb = buchberger(list(gradient(om).comps))
        assert gb._polys is None, label
        want = eager_reduced_basis(gb)
        unreduced += want != _minimal_polys(gb)
        assert gb.polys == want and tuple(gb) == want, label
        assert tuple(p.leading_monomial() for p in want) == gb.heads() and len(gb) == len(want)
        seen += 1
    assert seen == 125 + 6 * 12 + 4
    # 38 minimal bases have a tail to reduce
    assert unreduced == 38


def test_normal_forms_by_the_minimal_and_the_reduced_basis_agree():
    """the remainder modulo any Groebner basis of I is the one element of
    f + I with no term in in(I)"""
    rng = random.Random(59)
    checked, unreduced = 0, 0
    for label, om in _lazy_basis_cases():
        gb = jacobian_basis(om)
        reduced = list(gb)
        unreduced += tuple(reduced) != _minimal_polys(gb)
        n = om.homogeneous_degree()
        for d in (n - 1, n + 1, 2 * n):
            f = Polynomial(om.weights, om.field,
                           {m: rng.randint(-3, 3) for m in monomial_basis(om.weights, d)})
            assert normal_form(f, gb) == normal_form(f, reduced), (label, d)
            checked += 1
    assert checked == 3 * (125 + 6 * 12 + 4) and unreduced == 38


def test_a_corrupted_tail_is_refused_when_the_reduced_basis_is_first_read():
    """the minimal basis of x^5+y^5+z^5+x^2*y^2*z with one tail coefficient
    moved no longer spans a Groebner basis: its inter-reduction must fail
    the S-pair proof on the first read of .polys, and on every read after"""
    gb = jacobian_basis(parse_poly("x^5+y^5+z^5+x^2*y^2*z", W111))
    corrupted = 0
    for pos, (h, lc, tail) in enumerate(gb._divisors):
        if not tail:
            continue
        divisors = list(gb._divisors)
        (m, c), rest = tail[0], tail[1:]
        divisors[pos] = (h, lc, [(m, c + 1)] + rest)
        bad = GroebnerBasis(divisors, gb.weights, gb.field)
        assert bad.heads() == gb.heads() and len(bad) == len(gb)
        for read in (lambda b: b.polys, list, repr):
            with pytest.raises(RingError, match="failed the S-pair criterion"):
                read(bad)
        corrupted += 1
    assert corrupted == 10
    assert len(GroebnerBasis(gb._divisors, gb.weights, gb.field).polys) == len(gb)


# (potentials, main-loop calls, final-proof calls) of jacobian._reduce over
# the seed-1 groebner pool, pinned below and quoted in the README
REDUCE_PHASES = (288, 3803, 907)


def test_reduce_calls_over_the_seed_1_groebner_pool():
    """a deterministic work count: proving the minimal basis and reducing
    tails only on first read cut it from 10,141 calls, when every basis was
    inter-reduced and the reduced basis proved, to 8,024; re-reducing in the
    final proof only the pairs and generators that the main loop's own zero
    reductions do not certify cut it to 4,710.  The main loop makes 3,803 of
    them, the same as before; the final proof made 4,221 and makes 907"""
    count, _, main, proof, _ = groebner_counts(1)
    assert (count, main + proof) == (288, 4710)
    assert (count, main, proof) == REDUCE_PHASES


def test_parsing_the_seed_1_groebner_pool_builds_one_polynomial_per_string():
    """a deterministic work count: the one-pass parser builds each
    potential's Polynomial once; the recursive-descent parser built 7,459
    for these 288 strings"""
    count, parsed, _, _, _ = groebner_counts(1)
    assert (count, parsed) == (288, 288)


# (potentials, Polynomial objects built while building their Jacobian bases)
# over the seed-1 groebner pool, pinned below and quoted in the README
BASIS_POLYNOMIALS = (288, 0)


def test_building_the_seed_1_jacobian_bases_builds_no_polynomial():
    """a deterministic work count: the memo's bases start from the partials
    of the potential's own terms; the Fraction gradient they started from
    built 864, three per potential, each turned straight back into integer
    terms"""
    count, _, _, _, built = groebner_counts(1)
    assert (count, built) == BASIS_POLYNOMIALS


def _route_cases():
    """the catalog, the seed-1 groebner pool, two unit ideals, and both
    extension families of the benchmark, each with rational lambdas and
    lambdas outside Q"""
    yield from _gkdim_cases()
    inputs = load_perfbench("inputs")
    for fam, lams in ((inputs.CUBIC, ["-3", "3/2", "-1/3", "1+s", "-2-3*s", "3+3*s"]),
                      (inputs.QUARTIC, ["2", "-5/2", "1/3", "s", "-1+2*s", "3-s"])):
        field = ExtensionField(list(fam["modulus"]))
        for lam in lams:
            yield parse_poly(fam["template"] % lam, Weights(*fam["weights"]), field)


def test_the_memo_basis_is_the_basis_of_the_nonzero_partials(monkeypatch):
    """jacobian_basis starts from the potential's terms, not from its
    gradient, yet must hand Buchberger's loop the entries, term for term and
    in the same order, that buchberger makes of the nonzero partials, and so
    give the same divisors and reduced basis"""
    runs = []
    run = jacobian._run

    def spy(weights, field, entries):
        runs.append((field, [list(terms.items()) for terms in entries]))
        return run(weights, field, entries)

    monkeypatch.setattr(jacobian, "_run", spy)
    fields = {}
    for omega in _route_cases():
        complexes.potential_memo.cache_clear()
        got = jacobian_basis(omega)
        want = buchberger([g for g in gradient(omega).comps if g.terms])
        assert len(runs) == 2 and runs[0] == runs[1], omega
        assert got._divisors == want._divisors, omega
        assert got.polys == want.polys, omega
        key = (omega.field, runs[0][0] == QQ)
        fields[key] = fields.get(key, 0) + 1
        runs.clear()
    assert sum(fields.values()) == 125 + 288 + 2 + 12
    assert len(fields) == 5 and min(fields.values()) == 3, fields


def test_the_refusals_of_an_empty_ideal_are_unchanged():
    """a nonzero constant has no nonzero partial, over Q and over Q(s),
    with and without an s-part; buchberger needs a nonzero generator"""
    field = ExtensionField([1, 1, 1])
    for omega in (parse_poly("5/2", W111), parse_poly("3", W111, field),
                  parse_poly("1+s", W111, field)):
        with pytest.raises(RingError, match="^all partial derivatives vanish$"):
            jacobian_basis(omega)
    for gens in ([], [Polynomial.zero(W111)]):
        with pytest.raises(RingError, match="^ideal needs at least one nonzero generator$"):
            buchberger(gens)


def _gkdim_cases():
    yield from (e.omega for e in catalog.entries())
    for job in pool(1):
        yield from job
    # unit ideals: a partial is a nonzero constant
    yield parse_poly("x", Weights(3, 1, 1))
    yield parse_poly("x+y^2", Weights(2, 1, 1))


def test_gkdim_by_head_supports_matches_the_subset_scan():
    """the largest set of variables containing no head's support, read off
    support bitmasks, against the scan of every subset by its variables"""
    seen = {}
    for omega in _gkdim_cases():
        want = gkdim_by_subsets(jacobian_basis(omega).heads())
        assert gkdim(omega) == want, omega
        seen[want] = seen.get(want, 0) + 1
    assert set(seen) == {0, 1, 2}, seen
    assert gkdim(parse_poly("x", Weights(3, 1, 1))) == 0
    assert jacobian_basis(parse_poly("x+y^2", Weights(2, 1, 1))).heads() == ((0, 0, 0),)


def _certified_run(gens):
    """buchberger's run on these generators, over Q when they are rational,
    as (weights, minimal divisors, generator entries, certified pairs,
    certified generators, record) with record = (order, pair_used)"""
    gens = [g for g in gens if g.terms]
    rational = [rational_copy(g) for g in gens]
    if all(g is not None for g in rational):
        gens = rational
    weights, field = gens[0].weights, gens[0].field
    entries = [_entry(field, g.terms)[1] for g in gens]
    divisors, order, pair_used, gen_used = _run(weights, field, entries)
    pairs, proved = _certified(order, pair_used, gen_used)
    return (weights, [divisors[t] for t in order], entries, pairs, proved,
            (order, pair_used))


def _certificate_cases():
    """the lazy-basis cases (catalog, seeded pool potentials on every
    property-suite weight triple, the extension families lifted from Q and
    not) and the seed-1 groebner pool"""
    yield from _lazy_basis_cases()
    for job in pool(1):
        for omega in job:
            yield "pool", omega


def test_every_pair_and_generator_the_run_certifies_reduces_to_zero():
    """each pair and generator whose main-loop reduction the final proof
    trusts reduces to zero modulo the minimal basis by the full route, which
    also proves that basis with no certificate; over Q(s) the certificate of
    a non-rational run is read over Q(s)"""
    trusted, reduced, lifted = 0, 0, set()
    for label, om in _certificate_cases():
        weights, minimal, entries, pairs, proved, _ = _certified_run(gradient(om).comps)
        assert tuple(h for h, _, _ in minimal) == jacobian_basis(om).heads(), label
        if om.field != QQ:
            lifted.add(rational_copy(om) is not None)
        for p, q in pairs:
            assert p < q < len(minimal)
            assert not _reduce(weights, _s_terms(minimal[p], minimal[q]), minimal)[0], label
        for k in proved:
            assert not _reduce(weights, entries[k], minimal)[0], label
        assert _s_pairs_reduce_to_zero(weights, minimal), label
        heads = [h for h, _, _ in minimal]
        trusted += len(pairs) + len(proved)
        reduced += len(_critical_pairs(heads, pairs)) + len(entries) - len(proved)
    assert lifted == {True, False}
    assert trusted > 0 and reduced > 0


def test_the_certificate_trusts_only_reductions_by_divisors_of_the_minimal_basis():
    """a record naming a divisor outside the minimal basis, the remainder's
    own divisor included, certifies nothing"""
    order = [0, 2, 3]
    pair_used = {(0, 2): (0, 2), (2, 3): (0, 1, 2, 3), (0, 3): (0, 2, 3, 4), (3, 5): (2, 3)}
    gen_used = [range(1), range(2), range(3)]
    assert _certified(order, pair_used, gen_used) == ({(0, 1)}, {0})
    assert _certified([3, 2, 0], pair_used, gen_used) == ({(1, 2)}, {0})


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "Q(s)"])
def test_a_pair_reduced_by_a_divisor_that_left_the_active_set_is_reduced_again(field):
    """a pair of the minimal basis whose main-loop reduction ran against a
    divisor that a later head removed is not trusted: when it is critical,
    the final proof reduces it again.  The Jacobian cases above meet no
    such pair, so the generators are the seeded mixed-degree ones"""
    rng = random.Random(808)
    stale, again = 0, 0
    for _ in range(240):
        gens = [g for g in _random_generators(rng, field) if g.terms]
        if not gens:
            continue
        weights, minimal, _, pairs, _, (order, pair_used) = _certified_run(gens)
        pos = {t: p for p, t in enumerate(order)}
        heads = [h for h, _, _ in minimal]
        critical = set(_critical_pairs(heads))
        reduced = set(_critical_pairs(heads, pairs))
        for (i, j), used in pair_used.items():
            if i in pos and j in pos and not set(used) <= pos.keys():
                pair = tuple(sorted((pos[i], pos[j])))
                assert pair not in pairs
                assert not _reduce(weights, _s_terms(*(minimal[p] for p in pair)), minimal)[0]
                stale += 1
                if pair in critical:
                    assert pair in reduced
                    again += 1
    assert stale > 0 and again > 0


def test_the_pool_proof_still_reduces_pairs_the_run_left_unproved():
    """the final proof of the seed-1 pool reduces 604 of the 3,387 critical
    pairs it reduced before the certificate, so its check is never vacuous"""
    critical, reduced = 0, 0
    for job in pool(1):
        for om in job:
            _, minimal, _, pairs, _, _ = _certified_run(gradient(om).comps)
            heads = [h for h, _, _ in minimal]
            critical += len(_critical_pairs(heads))
            reduced += len(_critical_pairs(heads, pairs))
    assert (critical, reduced) == (3387, 604)


def test_a_run_that_loses_a_basis_element_is_refused(monkeypatch):
    """the final proof stays a proof: drop the last divisor of the minimal
    basis after the main loop, and the records that name it certify nothing,
    so buchberger raises RingError"""
    run = jacobian._run

    def lossy(*args):
        divisors, order, pair_used, gen_used = run(*args)
        return divisors, order[:-1], pair_used, gen_used

    monkeypatch.setattr(jacobian, "_run", lossy)
    for text in (CUBE, W4, "x^5+y^5+z^5+x^2*y^2*z"):
        parts = list(gradient(parse_poly(text, W111)).comps)
        with pytest.raises(RingError, match="Groebner construction"):
            buchberger(parts)
