"""Degree-truncated homology of the cochain, Koszul and de Rham
complexes, with the bivector-space and ozone diagnostics.

The dimension tables asserted here were computed once with independent
scripts (kernel/rank counts assembled degree by degree) and frozen; the
tests guard against regressions in the matrix assembly."""

import copy
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from wpoisson import (QQ, ExtensionField, Weights, catalog, gradient, has_isolated_singularity,
                      parse_poly, rank)
from wpoisson import complexes, poisson
from wpoisson.jacobian import gcd_partials
from wpoisson.linalg import assemble, kernel_basis, op_table
from wpoisson.poisson import euler_derivation, from_potential
from wpoisson.ring import Polynomial, RingError, count_monomials, monomial_basis, rational_copy

import reference_maps as ref
from closed_forms import closed_form_lph2, isolated_ph
from matrix_count import KINDS, clear_memos, matrix_counts, requester
from reference_maps import (cochain_apply, cochain_matrices, cochain_matrix, cochain_rank,
                            d1_rank_and_ozone_kernel, derham_exactness_check,
                            euler_characteristic_check, field_powers, koszul3_rank, m2_dims,
                            m2_rank, reference_assemble, reference_cochain, reference_maps,
                            sealed_dims)


W111 = Weights(1, 1, 1)
W112 = Weights(1, 1, 2)
W123 = Weights(1, 2, 3)

ELLIPTIC = "x^3+y^3+z^3+x*y*z"
QUADRIC_BW = "z^2+x^3*y"
QUADRIC_Q = "z^2+x^2*y^2+x^3*y"
CUSP = "z^2+y^3"


def test_cochain_shifts_balanced():
    shifts = complexes.cochain_shifts(W123)
    assert shifts == ((0,), (1, 2, 3), (5, 4, 3), (6,))


def _compose(outer, inner):
    """sparse product outer * inner as dict rows"""
    assert outer.cols == inner.rows
    out = []
    for row in outer.entries:
        acc = {}
        for k, a in row.items():
            for j, b in inner.entries[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


def test_cochain_compositions_vanish():
    om = parse_poly(ELLIPTIC, W111)
    for d in range(-3, 15):
        d0, d1, d2 = cochain_matrices(om, d)
        assert all(v == 0 for row in _compose(d1, d0) for v in row.values())
        assert all(v == 0 for row in _compose(d2, d1) for v in row.values())


def test_cochain_apply_gradient_cross():
    om = parse_poly(QUADRIC_BW, W112)
    out = cochain_apply(om, 0, (om,))
    assert all(c.is_zero() for c in out)
    x = parse_poly("x", W112)
    dx = cochain_apply(om, 0, (x,))
    # grad(x) x grad(O) = (0, -O_z, O_y)
    assert dx[0].is_zero()
    assert dx[1] == parse_poly("-2*z", W112)
    assert dx[2] == parse_poly("x^3", W112)


def test_euler_derivation_is_a_one_cocycle():
    for w, text in ((W111, ELLIPTIC), (W112, QUADRIC_BW), (W123, CUSP)):
        om = parse_poly(text, w)
        e = euler_derivation(w)
        out = cochain_apply(om, 1, tuple(e.comps))
        assert all(c.is_zero() for c in out)


def _ph_rows(om, bound):
    tbl = complexes.ph_dims(om, bound)
    n = om.weights.n_default
    return {d: tuple(tbl.dim(i, d) for i in range(4))
            for d in range(-n, bound + 1)}


def test_ph_dims_elliptic_table():
    om = parse_poly(ELLIPTIC, W111)
    rows = _ph_rows(om, 10)
    assert rows[-3] == (0, 0, 0, 1)
    assert rows[-2] == (0, 0, 3, 3)
    assert rows[-1] == (0, 0, 3, 3)
    for d in range(0, 11):
        expect = (1, 1, 2, 2) if d % 3 == 0 else (0, 0, 3, 3)
        assert rows[d] == expect, d


def test_ph_dims_quadric_bw_table():
    om = parse_poly(QUADRIC_BW, W112)
    rows = _ph_rows(om, 10)
    assert rows[-4] == (0, 0, 0, 1)
    assert rows[-3] == (0, 0, 2, 2)
    assert rows[-2] == (0, 0, 3, 3)
    assert rows[-1] == (0, 0, 2, 2)
    for d in range(0, 11):
        if d % 2 == 1:
            expect = (0, 0, 2, 2)
        elif d % 4 == 0:
            expect = (1, 1, 2, 2)
        else:
            expect = (0, 0, 3, 3)
        assert rows[d] == expect, d


def test_ph_dims_cusp_table_has_excess():
    om = parse_poly(CUSP, W123)
    rows = _ph_rows(om, 14)
    assert rows[-6] == (0, 0, 0, 1)
    assert rows[-5] == (0, 0, 1, 1)
    for d in range(-4, -1):
        assert rows[d] == (0, 0, 2, 2)
    for d in range(-1, 15):
        r = d % 6
        if r in (1, 5):
            expect = (0, 1, 3, 2)
        elif r == 0:
            expect = (1, 1, 2, 2)
        else:
            expect = (0, 0, 2, 2)
        assert rows[d] == expect, d


def test_ph0_is_potential_polynomials_for_balanced_irreducible():
    om = parse_poly("x*y*z+x^4+y^4", W112)
    tbl = complexes.ph_dims(om, 12)
    for d in range(0, 13):
        assert tbl.dim(0, d) == (1 if d % 4 == 0 else 0)


def test_m2_dims_quadric_bw():
    om = parse_poly(QUADRIC_BW, W112)
    m2 = m2_dims(om, 4)
    assert m2[0] == 9 and m2[1] == 14 and m2[2] == 20 and m2[4] == 33
    # below every component shift the space is empty
    assert m2[-4] == 0


def test_m2_between_image_and_kernel():
    for w, text in ((W112, QUADRIC_BW), (W123, CUSP)):
        om = parse_poly(text, w)
        m2 = m2_dims(om, 8)
        for d in range(-w.n_default, 9):
            _, d1, d2 = cochain_matrices(om, d)
            im = rank(d1)
            ker = d2.cols - rank(d2)
            assert im <= m2[d] <= ker, (text, d)


def test_lph2_matches_closed_form():
    om = parse_poly(QUADRIC_BW, W112)
    m2 = m2_dims(om, 10)
    closed = closed_form_lph2(W112, 4).expand(-4, 10)
    for idx, d in enumerate(range(-4, 11)):
        _, d1, _ = cochain_matrices(om, d)
        assert m2[d] - rank(d1) == closed[idx], d


def test_vacancy_quadric_bw():
    om = parse_poly(QUADRIC_BW, W112)
    vac = complexes.vacancy_check(om, 14)
    assert set(vac) == set(range(-4, 15))
    assert not any(vac.values())


def test_vacancy_quadric_q_to_30():
    om = parse_poly(QUADRIC_Q, W112)
    vac = complexes.vacancy_check(om, 30)
    assert not any(vac.values())


def test_vacancy_elliptic_to_30():
    om = parse_poly(ELLIPTIC, W111)
    vac = complexes.vacancy_check(om, 30)
    assert not any(vac.values())


def test_vacancy_cusp_fails():
    om = parse_poly(CUSP, W123)
    vac = complexes.vacancy_check(om, 8)
    assert {d: v for d, v in vac.items() if v} == {-1: 1, 1: 1, 5: 1, 7: 1}


def test_vacancy_requires_balanced_degree():
    om = parse_poly("x^4+y^4+z^4", W111)
    with pytest.raises(RingError):
        complexes.vacancy_check(om, 6)


def test_ozone_quadric_bw_agrees():
    om = parse_poly(QUADRIC_BW, W112)
    oz = complexes.ozone_vs_hamiltonian(om, 14)
    expected = {1: 2, 2: 4, 3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 24,
                9: 30, 10: 36, 11: 42, 12: 48, 13: 56, 14: 64}
    for d, (ozone, ham) in oz.items():
        assert ozone == ham, d
        if d >= 1:
            assert ozone == expected[d], d
        else:
            assert ozone == 0


def test_ozone_cusp_discrepancies():
    om = parse_poly(CUSP, W123)
    oz = complexes.ozone_vs_hamiltonian(om, 13)
    expected_unequal = {-1: (1, 0), 1: (2, 1), 5: (6, 5), 7: (9, 8),
                        11: (17, 16), 13: (22, 21)}
    for d, pair in oz.items():
        if d in expected_unequal:
            assert pair == expected_unequal[d], d
        else:
            assert pair[0] == pair[1], d


def _ph1_minimality_check(omega, bound):
    """per-degree booleans: does PH^1 look like a free rank-one module over
    the subalgebra generated by the potential"""
    n = omega.homogeneous_degree()
    table = complexes.ph_dims(omega, bound)
    return {d: table.dim(1, d) == (1 if d >= 0 and d % n == 0 else 0)
            for d in range(-max(omega.weights.tuple), bound + 1)}


def test_ph1_minimality():
    om = parse_poly(ELLIPTIC, W111)
    res = _ph1_minimality_check(om, 9)
    assert all(res.values())

    cusp = _ph1_minimality_check(parse_poly(CUSP, W123), 6)
    assert {d for d, ok in cusp.items() if not ok} == {-1, 1, 5}

    red = _ph1_minimality_check(parse_poly("x^2*z+x*y^3", W112), 3)
    assert red[0] is False


def test_koszul_dims_quadric_bw():
    om = parse_poly(QUADRIC_BW, W112)
    tbl = complexes.koszul_dims(om, 16)
    h0 = [tbl.dim(0, d) for d in range(17)]
    assert h0 == [1, 2, 3, 2] + [2] * 13
    h1 = [tbl.dim(1, d) for d in range(17)]
    assert h1 == [0, 0, 0, 0, 1] + [2] * 12
    for d in range(17):
        assert tbl.dim(2, d) == 0
        assert tbl.dim(3, d) == 0


def test_koszul_h1_vanishes_for_isolated_singularities():
    om = parse_poly(ELLIPTIC, W111)
    tbl = complexes.koszul_dims(om, 12)
    for d in range(13):
        assert tbl.dim(1, d) == 0
        assert tbl.dim(2, d) == 0
        assert tbl.dim(3, d) == 0


def test_sealed_k1():
    om = parse_poly(QUADRIC_BW, W112)
    dims, all_zero = complexes.sealed_k1_dims(om, 16)
    assert all_zero and not any(dims.values())

    cusp_dims, cusp_zero = complexes.sealed_k1_dims(parse_poly(CUSP, W123), 8)
    assert not cusp_zero
    assert cusp_dims[5] == 1


def test_derham_exactness():
    assert derham_exactness_check(W111, 15)
    assert derham_exactness_check(W123, 20)


def test_euler_characteristic_check():
    assert euler_characteristic_check(parse_poly(ELLIPTIC, W111), 25)
    assert euler_characteristic_check(parse_poly("x*y*z", W111), 12)
    assert euler_characteristic_check(parse_poly(CUSP, W123), 0)


# each per-degree table, its window's name and lowest degree for a cubic on
# (1,1,1); the de Rham check takes the weights alone
_WINDOWS = [
    (complexes.ph_dims, "cohomology", -3),
    (complexes.ph_closed_form_rows, "cohomology", -3),
    (m2_dims, "M2", -3),
    (complexes.vacancy_check, "vacancy", -3),
    (complexes.ozone_vs_hamiltonian, "ozone", -1),
    (complexes.koszul_dims, "koszul", 0),
    (complexes.sealed_k1_dims, "sealed", 0),
    (derham_exactness_check, "de Rham", 0),
    (euler_characteristic_check, "Euler characteristic", -3),
]


@pytest.mark.parametrize("table, name, lo",
                         [pytest.param(*w, id=w[0].__name__) for w in _WINDOWS])
def test_per_degree_tables_refuse_an_empty_window(table, name, lo):
    """a window with no degree would read as all zero, or as a passed
    check: every per-degree table refuses it, and opens at its lowest
    degree"""
    om = parse_poly(ELLIPTIC, W111)
    arg = W111 if table is derham_exactness_check else om
    table(arg, lo)
    for bound in (lo - 1, -50):
        with pytest.raises(RingError) as err:
            table(arg, bound)
        assert str(err.value) == "empty %s window: truncation bound %d is below %d" % (
            name, bound, lo)


def test_window_budget_admits_every_catalog_default_window():
    largest = 0
    for e in catalog.entries():
        D = complexes.default_bound(e.degree)
        complexes._window(e.omega, "catalog", 0, D)
        top = ref.window_top(e.omega, D)
        largest = max(largest, sum(count_monomials(e.weights, d) for d in range(top + 1)))
    assert 50 * largest <= complexes.WINDOW_BUDGET


@pytest.mark.parametrize("budget", [1, 10, 102, 500, 2925])
def test_window_budget_counts_monomials_exactly(monkeypatch, budget):
    """at n = a+b+c and D >= n the maps reach degrees 0..D+n, so the
    boundary falls where those monomials pass the budget; below n the
    Casimir search still reaches 2n, and at budgets under the monomials of
    degrees 0..2n every window is refused"""
    monkeypatch.setattr(complexes, "WINDOW_BUDGET", budget)
    for w in (W111, Weights(2, 3, 5), W123, Weights(3, 3, 4)):
        om = parse_poly("x*y*z", w)
        n = w.n_default
        # top: the first degree at which the window passes the budget
        total, top = 0, 0
        while total + count_monomials(w, top) <= budget:
            total += count_monomials(w, top)
            top += 1
        if top - 1 - n < n:
            with pytest.raises(RingError, match="^truncation bound 0 is over budget"):
                complexes._window(om, "koszul", 0, 0)
            continue
        complexes._window(om, "koszul", 0, top - 1 - n)
        with pytest.raises(RingError):
            complexes._window(om, "koszul", 0, top - n)


_SWEEPS = [complexes.ph_dims, complexes.ph_closed_form_rows, complexes.koszul_dims,
           complexes.sealed_k1_dims, complexes.vacancy_check, complexes.ozone_vs_hamiltonian]

# three with n < s, one with n > s, and the catalog entries 111-i-a and
# 123-i-a, with n = s
_REACH_POTENTIALS = [((1, 1, 5), "x*y"), ((1, 1, 7), "x^2*y^3"), ((1, 2, 3), "x^4+y^2"),
                     ((1, 1, 1), "x^5+y^5+z^5"), ((1, 1, 1), "x^3+y^2*z"),
                     ((1, 2, 3), "z^2+y^3")]


@pytest.mark.parametrize("weights, text", _REACH_POTENTIALS,
                         ids=["%s:%s" % p for p in _REACH_POTENTIALS])
def test_every_sweep_lists_no_degree_past_its_window_top(monkeypatch, weights, text):
    """the budget counts degrees 0..T (``complexes._window``): a spy on the
    monomial listing, from empty memos, sees no degree past T"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    listed = []

    def spy(w, d):
        listed.append(d)
        return monomial_basis(w, d)

    for name, mod in list(sys.modules.items()):
        if name == "wpoisson" or name.startswith("wpoisson."):
            for attr, value in list(vars(mod).items()):
                if value is monomial_basis:
                    monkeypatch.setattr(mod, attr, spy)
    # vacancy and ozone refuse n != a+b+c
    sweeps = _SWEEPS if n == om.weights.n_default else _SWEEPS[:4]
    for bound in (0, 2, n, 2 * n + 3):
        for sweep in sweeps:
            clear_memos()
            del listed[:]
            sweep(om, bound)
            assert listed
            assert max(listed) <= ref.window_top(om, bound), (sweep.__name__, bound)


def _slices(om, d, derivations):
    """the slice degrees that the single-degree map lists: T_d, and for the
    derivations also the targets of d1 and, for d > 0, the slices of d0 at
    every divisor of n, where the Casimir search runs"""
    n = om.homogeneous_degree()
    weights = om.weights.tuple
    out = [d + w for w in weights] + [d + n, d]
    if derivations:
        out += [d + n - w for w in weights]
        out += [e + n - w for e in range(1, n + 1) if n % e == 0 and d > 0 for w in weights]
        out += [e for e in range(1, n + 1) if n % e == 0 and d > 0]
    return out


# unsorted weights, two of them sharing a factor, beside the window's
_BUDGET_POTENTIALS = _REACH_POTENTIALS + [((15, 6, 10), "x^2+y^5+z^3"),
                                          ((3, 3, 4), "x^4+y^4+z^3")]


@pytest.mark.parametrize("weights, text", _BUDGET_POTENTIALS,
                         ids=["%s:%s" % p for p in _BUDGET_POTENTIALS])
def test_single_degree_budget_counts_the_slices_exactly(monkeypatch, weights, text):
    """ozone_dim and derivation_kernel admit a degree whose slices hold
    exactly the budget, and refuse it one monomial below"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    for name, fn, derivations in (("ozone", complexes.ozone_dim, False),
                                  ("derivation", complexes.derivation_kernel, True)):
        for d in range(-n - 1, 2 * n + 1):
            count = sum(count_monomials(om.weights, t) for t in _slices(om, d, derivations))
            monkeypatch.setattr(complexes, "WINDOW_BUDGET", count)
            fn(om, d)
            if count:
                monkeypatch.setattr(complexes, "WINDOW_BUDGET", count - 1)
                with pytest.raises(RingError) as err:
                    fn(om, d)
                assert str(err.value) == (
                    "degree %d is over budget: the slices of its %s map hold more than %d "
                    "monomials" % (d, name, count - 1))


def test_dims_table_row_and_bounds():
    om = parse_poly(QUADRIC_BW, W112)
    tbl = complexes.ph_dims(om, 5)
    assert tbl.bound == 5
    row3 = tbl.row(3)
    assert min(row3) == -4 and max(row3) == 5
    assert tbl.dim(2, -99) == 0
    assert tbl.dim(0, -1) == 0


# ---------------------------------------------------------------------------
# operator tables against the per-column Polynomial evaluation they replace

# assembled matrices told apart by call site, looked up through
# ``complexes._t_block`` to its caller, and numbers of source and target
# components (``matrix_count``), with the test-side de Rham maps
_KINDS = {
    **KINDS,
    ("derham_exactness_check", 1, 3): "grad",
    ("derham_exactness_check", 3, 3): "curl",
    ("derham_exactness_check", 3, 1): "div",
}


def _capture(monkeypatch, run):
    """(kind, src_degs, tgt_degs, matrix) of every assemble call made by
    run() in complexes or in the test-side de Rham check, from empty memos,
    its kind from ``_KINDS``"""
    clear_memos()
    calls = []
    real = complexes.assemble

    def spy(weights, src_degs, tgt_degs, table):
        m = real(weights, src_degs, tgt_degs, table)
        kind = _KINDS[requester(sys._getframe(1)), len(src_degs), len(tgt_degs)]
        calls.append((kind, list(src_degs), list(tgt_degs), m))
        return m

    monkeypatch.setattr(complexes, "assemble", spy)
    monkeypatch.setattr(ref, "assemble", spy)
    run()
    monkeypatch.undo()
    return calls


def _same_matrix(new, ref):
    return (new.rows, new.cols, new.field, new.entries) == (ref.rows, ref.cols, ref.field,
                                                          ref.entries)


def _table_potentials():
    """one catalog entry from each of ten weight groups, one rational
    potential with non-integer coefficients, one over Q(s)/(s^2+s+1)"""
    picked = {}
    for e in catalog.entries():
        if len(picked) < 10 and e.weights not in picked:
            picked[e.weights] = pytest.param(e.weights, QQ, e.omega_text, id=e.entry_id)
    cube = ExtensionField([1, 1, 1])
    return list(picked.values()) + [
        pytest.param(W111, QQ, "1/2*x^3+y^3+z^3-3/2*x*y*z", id="qq-fractions"),
        pytest.param(W111, cube, "x^3+y^3+z^3+s*x*y*z", id="cube-root-field"),
    ]


def _seeded_operator(rng, field, rational=False):
    """a random first-order operator over field: weights, source and target
    degrees, (target, source, var, coef) terms whose coefficients have the
    degree each term needs (some of them constants), with no s-part when
    ``rational``, and the same operator as a function on component
    Polynomials"""
    weights = Weights(*rng.choice([(1, 1, 1), (1, 1, 2), (1, 2, 3)]))
    src = [rng.randint(0, 5) for _ in range(rng.randint(1, 3))]
    tgt = [rng.randint(0, 7) for _ in range(rng.randint(1, 3))]
    powers = field_powers(field)[:1] if rational else field_powers(field)

    def coef():
        return sum((Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * p
                    for p in powers), field.zero)

    terms = []
    for t, td in enumerate(tgt):
        for s, sd in enumerate(src):
            for v in (None, 0, 1, 2):
                basis = monomial_basis(weights, td - sd + (0 if v is None else weights.tuple[v]))
                if not basis or rng.random() < 0.6:
                    continue
                if basis == ((0, 0, 0),) and rng.random() < 0.5:
                    terms.append((t, s, v, coef()))
                else:
                    terms.append((t, s, v, Polynomial(weights, field, {
                        m: coef() for m in rng.sample(basis, min(len(basis), 3))})))

    def fn(comps):
        out = [Polynomial.zero(weights, field)] * len(tgt)
        for t, s, v, p in terms:
            p = p if isinstance(p, Polynomial) else Polynomial.constant(weights, p, field)
            out[t] = out[t] + p * (comps[s] if v is None else comps[s].partial(v))
        return out

    return weights, src, tgt, terms, fn


@pytest.mark.parametrize("modulus, rational", [
    ([1, 0, 1], False), ([1, 1, 1], False), ([-2, 0, 0, 1], False), ([1, 1, 1], True)],
    ids=["s^2+1", "s^2+s+1", "s^3-2", "s^2+s+1-rational"])
def test_seeded_tables_assemble_the_restricted_evaluation_without_field_products(
        monkeypatch, modulus, rational):
    """over Q(s), assemble writes the restriction of scalars of the
    per-column ExtElem evaluation, and multiplies no two field elements
    once op_table has restricted the table.  A table whose coefficients
    have no s-part is made over Q, and its matrix has the rank and kernel
    of the evaluation over Q(s)."""
    field = ExtensionField(modulus)
    rng = random.Random(1968 + sum(modulus))
    products = []
    real = ExtensionField._mul

    def counting_mul(self, u, v):
        products.append((u, v))
        return real(self, u, v)

    nonzero = 0
    for _ in range(30):
        weights, src, tgt, terms, fn = _seeded_operator(rng, field, rational)
        table = op_table(field, terms)
        monkeypatch.setattr(ExtensionField, "_mul", counting_mul)
        new = assemble(weights, src, tgt, table)
        monkeypatch.undo()
        assert products == []
        ref = reference_assemble(weights, field, src, tgt, fn)
        # made over Q exactly when no coefficient has an s-part, as always
        # when rational
        polys = [p if isinstance(p, Polynomial) else Polynomial.constant(weights, p, field)
                 for _, _, _, p in terms]
        assert (new.field == QQ) == all(rational_copy(p) is not None for p in polys)
        if new.field == QQ:
            assert rank(new) == rank(ref)
            assert [[field.coerce(c) for c in v] for v in kernel_basis(new)] == kernel_basis(ref)
        else:
            assert _same_matrix(new, ref)
        nonzero += sum(map(len, new.entries))
    assert nonzero > 0


def _first_order_fn(weights, field, terms):
    """the one-component operator of (0, 0, var, coef) terms as a function
    on component Polynomials"""
    def fn(comps):
        out = Polynomial.zero(weights, field)
        for _, _, v, p in terms:
            out = out + p * (comps[0] if v is None else comps[0].partial(v))
        return [out]
    return fn


@pytest.mark.parametrize("field", [QQ, ExtensionField([1, 1, 1])], ids=["QQ", "s^2+s+1"])
def test_terms_that_cancel_in_a_cell_leave_no_stored_zero(field):
    """x d/dx - y d/dy on A_2 of (1,1,1) kills x*y: its two terms meet in
    one cell and cancel, and the cell is left empty; a third term y d/dy
    writes it again.  Over Q(s) every term carries the factor s."""
    c = field.generator if field != QQ else 1
    x, y = (Polynomial.variable(W111, v, field) * c for v in "xy")
    basis = monomial_basis(W111, 2)
    xy = basis.index((1, 1, 0))
    k = field.degree
    for terms, written in (([(0, 0, 0, x), (0, 0, 1, -y)], False),
                           ([(0, 0, 0, x), (0, 0, 1, -y), (0, 0, 1, y)], True)):
        new = assemble(W111, [2], [2], op_table(field, terms))
        assert all(v for row in new.entries for v in row.values())
        assert _same_matrix(new, reference_assemble(W111, field, [2], [2],
                                                     _first_order_fn(W111, field, terms)))
        cells = {(i // k, j // k) for i, row in enumerate(new.entries) for j in row}
        assert ((xy, xy) in cells) == written


def test_assemble_refuses_an_output_that_escapes_its_degree_slot():
    """multiplication by x raises the degree by one: into A_1 it escapes,
    into A_2 it lands"""
    table = op_table(QQ, [(0, 0, None, Polynomial.variable(W111, "x"))])
    with pytest.raises(RingError, match="graded map output escapes its degree slot"):
        assemble(W111, [1], [1], table)
    assert sum(map(len, assemble(W111, [1], [2], table).entries)) == 3


@pytest.mark.parametrize("weights, field, text", _table_potentials())
def test_operator_tables_match_per_column_evaluation(monkeypatch, weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    w = n - weights.n_default
    ref = reference_maps(om)
    sh = complexes.cochain_shifts(weights)
    degrees = range(-weights.n_default, n + 3)

    def check(name, new, src, tgt, over=field):
        expected = reference_assemble(weights, over, src, tgt, ref[name])
        assert _same_matrix(new, expected), (name, src, tgt)

    for d in degrees:
        for i in range(3):
            check("cochain%d" % i, cochain_matrix(om, i, d),
                  [d + s for s in sh[i]], [d + w + s for s in sh[i + 1]])
        degs = complexes.koszul_component_degs(om, d)
        for i in (1, 2):
            check("koszul%d" % i, complexes.koszul_matrix(om, i, d), degs[i], degs[i - 1])

    # the stacked maps among the cochain and Koszul matrices that the same
    # runs assemble; T_d is the sealed block with its u source at degree -1
    reference = {"T": "sealed_block", "B": "sealed_block", "K1": "koszul1", "K2": "koszul2",
                 "d0": "cochain0"}
    runs = [
        ("T", lambda: complexes.ph_dims(om, n + 2)),
        ("T", lambda: complexes.ozone_vs_hamiltonian(om, n + 2)),
        # to 2n, where K1 meets a nonzero source and image
        ("B", lambda: complexes.sealed_k1_dims(om, 2 * n)),
        ("T", lambda: poisson.rgt(om)),
    ]
    for name, run in runs:
        calls = _capture(monkeypatch, run)
        seen = {kind for kind, _, _, _ in calls}
        assert name in seen, name
        if name == "B":
            assert "K1" in seen
        for kind, src, tgt, m in calls:
            check(reference[kind], m, src, tgt)

    # the de Rham maps are integer, so they are assembled over Q
    calls = _capture(monkeypatch, lambda: derham_exactness_check(weights, n + 2))
    assert len(calls) == 3 * (n + 3)
    for kind, src, tgt, m in calls:
        check(kind, m, src, tgt, QQ)


@pytest.mark.parametrize("weights, field, text", _table_potentials()[-2:])
def test_cochain_apply_matches_polynomial_formulas(weights, field, text):
    om = parse_poly(text, weights, field)
    g = gradient(om)
    polys = [parse_poly(t, weights, field)
             for t in ("x^2*y+3*z^3", "1/3*y^2-x*z", "z+x^4*y^2", "7")]
    cases = [(0, (p,)) for p in polys] + [
        (1, (polys[0], polys[1], polys[2])),
        (1, (polys[3], polys[0], polys[0])),
        (2, (polys[2], polys[3], polys[1])),
        (2, (polys[1], polys[1], polys[0])),
    ]
    for i, comps in cases:
        assert cochain_apply(om, i, comps) == reference_cochain(g, i, comps), i


# ---------------------------------------------------------------------------
# the ranks derived from identities against the matrices they replace


def _off_catalog_potentials():
    """potentials off the catalog, of other degrees and over Q(s)/(s^2+s+1),
    each to a bound of its own.  Those of degree n != a+b+c assemble
    [T_d | c] at every multiple of n, since O is a Casimir there, and at
    d = -n where X1_d is not zero, as for x^2+s*x*y+y^2 on (1,1,5): there
    c = (1, 0) is rational while T's table is over Q(s)."""
    cube = ExtensionField([1, 1, 1])
    return [
        pytest.param(w, field, text, top, id=text)
        for w, field, text, top in (
            (W111, QQ, "x^4+y^4+z^4", 12),
            (W111, QQ, "x^5+y^5+z^5+x^2*y^2*z", 12),
            (W111, QQ, "x^2*y^2+x^2*z^2+y^3*z", 12),
            (W111, QQ, "x*y*z", 12),
            (W111, QQ, "x^2*y", 12),
            (W112, QQ, "z^3+x^6+y^6", 14),
            (W111, QQ, "x^2*y^2+z^4+x^3*z", 12),
            (Weights(1, 1, 3), QQ, "x^3*y^3+z^2", 14),
            (W111, QQ, "x^3*y+y^3*z", 12),
            (W112, QQ, "x^3*z", 14),
            # x-free, so the sealed block's partial is d/dy, not d/dx
            (W111, QQ, "y^3*z+z^4", 12),
            (W111, cube, "x^3+y^3+z^3+s*x*y*z", 9),
            (W111, cube, "x^4+y^4+z^4+s*x^2*y*z", 8),
            (Weights(1, 1, 5), cube, "x^2+s*x*y+y^2", 12),
        )]


def _identity_potentials():
    """every catalog entry to n+6, then the off-catalog potentials"""
    return [pytest.param(e.weights, QQ, e.omega_text, e.degree + 6, id=e.entry_id)
            for e in catalog.entries()] + _off_catalog_potentials()


@pytest.mark.parametrize("weights, field, text, top", _identity_potentials())
def test_rank_identities_match_reference_matrices(weights, field, text, top):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    maps = reference_maps(om)
    # d1 and d2: the ranks derived from T_d = (v . g ; div v) against the
    # cochain matrices, from the lowest degree with a nonzero cochain space;
    # d1 comes with its stack over v . g, whose kernel is the ozone space
    slots = range(-max(n, weights.n_default), top + 1)
    # d0 from the Casimir degree against the cochain matrices
    assert ({d: complexes._cochain_rank(om, 0, d) for d in slots}
            == {d: cochain_rank(om, 0, d, maps) for d in slots})
    d1_ozone = {d: d1_rank_and_ozone_kernel(om, d, maps) for d in slots}
    assert ({d: complexes._cochain_rank(om, 1, d) for d in slots}
            == {d: pair[0] for d, pair in d1_ozone.items()})
    assert ({d: complexes._cochain_rank(om, 2, d) for d in slots}
            == {d: cochain_rank(om, 2, d, maps) for d in slots})
    if n != weights.n_default and n <= top:
        assert count_monomials(weights, n) > cochain_rank(om, 0, n, maps)
    degrees = range(-weights.n_default, top + 1)
    # M2: the Casimir count against the rank of the M2 map
    assert m2_dims(om, top) == {d: m2_rank(om, d, maps) for d in degrees}
    # ozone: the (v . g ; div v) kernel against d1 stacked over v . g
    ozone = {d: d1_ozone[d][1] for d in degrees}
    assert {d: complexes.ozone_dim(om, d) for d in degrees} == ozone
    if om.homogeneous_degree() == weights.n_default:
        table = complexes.ozone_vs_hamiltonian(om, top)
        assert {d: pair[0] for d, pair in table.items()} == {d: ozone[d] for d in table}
        assert poisson.rgt(om) == -ozone[0]
    # Koszul: K3 -> K2 is injective; K3 starts at total degree 3n - (a+b+c)
    top_k = top + om.homogeneous_degree()
    table = complexes.koszul_dims(om, top_k)
    for d in range(top_k + 1):
        degs = complexes.koszul_component_degs(om, d)
        dim_k2, dim_k3 = (sum(count_monomials(weights, e) for e in degs[i]) for i in (2, 3))
        rank_k3 = koszul3_rank(om, degs, maps)
        assert rank_k3 == dim_k3, d
        rank_k2 = rank(complexes.koszul_matrix(om, 2, d)) if dim_k2 else 0
        assert (table.dim(2, d), table.dim(3, d)) == (dim_k2 - rank_k2 - rank_k3, 0), d


@pytest.mark.parametrize("weights, field, text", [
    pytest.param(W111, QQ, "(x^2+y*z)^2", id="(x^2+y*z)^2"),
    pytest.param(W111, QQ, "x^3*y^3", id="x^3*y^3"),
    pytest.param(W111, QQ, "x^2*y^2*z^2", id="x^2*y^2*z^2"),
    pytest.param(W111, ExtensionField([1, 1, 1]), "(x^3+y^3+s*z^3)^2", id="(x^3+y^3+s*z^3)^2"),
])
def test_d0_and_k2_ranks_of_proper_powers_match_their_matrices(weights, field, text):
    """a proper power O = c R^r, r > 1, has Casimirs below n and partials
    with a gcd h of positive degree: ranks d0 and K2 against their matrices,
    to 3n+12, where the kernel of K2 starts at 3n - (a+b+c) - deg h"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    top = 3 * n + 12
    assert complexes._casimir_degree(om) < n
    assert ([complexes._cochain_rank(om, 0, d) for d in range(-n, top + 1)]
            == [rank(cochain_matrix(om, 0, d)) for d in range(-n, top + 1)])
    assert ([complexes._koszul_rank(om, 2, d) for d in range(top + 1)]
            == [rank(complexes.koszul_matrix(om, 2, d)) for d in range(top + 1)])
    h = gcd_partials(om).homogeneous_degree()
    assert h > 0
    assert complexes._koszul_kernel_degree(om) == 3 * n - weights.n_default - h


@pytest.mark.parametrize("weights, field, text, top", _off_catalog_potentials())
def test_sealed_dims_match_the_normal_form_reference(weights, field, text, top):
    """sealedness from the block rank against the divergence reduced modulo
    the Jacobian ideal by Groebner normal forms, column by column"""
    om = parse_poly(text, weights, field)
    dims, all_zero = complexes.sealed_k1_dims(om, top)
    assert dims == sealed_dims(om, top)
    assert all_zero == (not any(dims.values()))


def test_rank_d1_falls_below_rank_t_where_a_casimir_meets_its_image():
    """off a+b+c, the image of T_d may meet ker L, and then rank d1_d is
    below rank T_d: [T_d | c], assembled in degrees with a Casimir, sees
    it"""
    om = parse_poly("x^3*y+y^3*z", W111)
    for d in (0, 4):
        assert complexes._cochain_rank(om, 1, d) == complexes._ozone_rank(om, d) - 1
        assert complexes._cochain_rank(om, 1, d) == cochain_rank(om, 1, d)


_ISOLATED = [
    (W111, "x^4+y^4+z^4"),
    (W111, "x^5+y^5+z^5"),
    (W111, "x^4+y^4+z^4+x^2*y*z"),
    (W112, "x^6+y^6+z^3"),
    (W123, "x^12+y^6+z^4"),
    (Weights(21, 14, 6), "x^2+y^3+z^7"),
]


@pytest.mark.parametrize("weights, text", _ISOLATED, ids=[t for _, t in _ISOLATED])
def test_ph_dims_match_the_isolated_closed_form(weights, text):
    """rank d1 in the degrees with a Casimir, read off [T_d | c] only when
    n != a+b+c, against the closed forms of an isolated potential: a check
    of it that is not a second matrix"""
    om = parse_poly(text, weights)
    n = om.homogeneous_degree()
    assert n != weights.n_default and has_isolated_singularity(om)
    lo, top = -max(n, weights.n_default), 3 * n + 6
    table = complexes.ph_dims(om, top)
    for i, series in enumerate(isolated_ph(weights, n)):
        assert [table.dim(i, d) for d in range(lo, top + 1)] == series.expand(lo, top), i


# ---------------------------------------------------------------------------
# rank T_e read off the elimination of the sealed block B_e


def _sealed_degrees(om, bound):
    """the degrees e = d - n of the sealed blocks to the bound, where X1_e
    is nonzero"""
    n = om.homogeneous_degree()
    return [d - n for d in range(bound + 1) if complexes._koszul_dim(om, 1, d)]


def _shared_ranks(om, bound):
    """the ranks of T_e that sealed_k1_dims leaves in the memo, from empty
    memos"""
    clear_memos()
    complexes.sealed_k1_dims(om, bound)
    shared = dict(complexes._t_ranks(om))
    assert sorted(shared) == _sealed_degrees(om, bound)
    return shared


@pytest.mark.parametrize("weights, field, text", [
    pytest.param(w, QQ, t, id=t) for w, t in _ISOLATED] + [
    pytest.param(W111, ExtensionField([1, 1, 1]), "x^4+y^4+z^4+s*x^2*y*z", id="cube-root-field"),
])
def test_ranks_read_off_the_sealed_block_give_the_isolated_closed_form(
        monkeypatch, weights, field, text):
    """ph_dims reads rank T_d from the memo the sealed blocks filled, and
    the closed forms of an isolated potential check it: the alternating sum
    of AC8 cannot, as the ranks telescope away there"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    assert n != weights.n_default and has_isolated_singularity(om)
    lo, top = -max(n, weights.n_default), 3 * n + 6
    shared = _shared_ranks(om, top)
    assembled = []
    real = complexes.assemble

    def spy(w, src_degs, tgt_degs, table):
        if requester(sys._getframe(1)) == "_ozone_rank":
            assembled.append(src_degs[1] - w.a)
        return real(w, src_degs, tgt_degs, table)

    monkeypatch.setattr(complexes, "assemble", spy)
    table = complexes.ph_dims(om, top)
    monkeypatch.undo()
    assert assembled and not set(assembled) & set(shared)
    for i, series in enumerate(isolated_ph(weights, n)):
        assert [table.dim(i, d) for d in range(lo, top + 1)] == series.expand(lo, top), i


@pytest.mark.parametrize("weights, field, text, top", [
    pytest.param(e.weights, QQ, e.omega_text, e.degree + 6, id=e.entry_id)
    for e in catalog.entries()] + [
    pytest.param(W111, ExtensionField([1, 1, 1]), "x^4+y^4+z^4+s*x^2*y*z", 10,
                 id="cube-root-field"),
])
def test_rank_t_read_off_the_sealed_block_equals_its_own_matrix(weights, field, text, top):
    """the pivots of B_e past its u columns against the elimination of T_e
    alone, at every sealed degree to n+6"""
    om = parse_poly(text, weights, field)
    shared = _shared_ranks(om, top)
    clear_memos()
    assert shared == {e: complexes._ozone_rank(om, e) for e in shared}
    assert complexes._t_ranks(om) == shared


def test_a_catalog_pass_eliminates_no_t_at_a_sealed_degree(monkeypatch):
    """a cold verify_entry of every catalog entry at n+6 reads rank T_e off
    B_e wherever it eliminates B_e, and eliminates every other kind of
    matrix as often as before"""
    counts = Counter()
    for e in catalog.entries():
        calls = _capture(monkeypatch, lambda: catalog.verify_entry(e, e.degree + 6))
        a = e.weights.a
        t_degs = {src[1] - a for kind, src, _, _ in calls if kind == "T"}
        b_degs = {src[1] - a for kind, src, _, _ in calls if kind == "B"}
        assert b_degs and not t_degs & b_degs, e.entry_id
        counts.update(kind for kind, _, _, _ in calls)
    # 2,310 T matrices when each T_e was eliminated on its own; a T_d with
    # no columns (X1_d = 0) is not assembled
    assert counts == {"T": 794, "B": 1264, "K1": 470, "K2": 412, "d0": 295}


def test_a_default_catalog_pass_assembles_the_counted_matrices():
    """``tests/matrix_count.py`` at the default bound 3n+12: no catalog
    potential reaches [T_d | c], as every one has n = a+b+c"""
    assert matrix_counts() == {"B": 3602, "T": 794, "K1": 2808, "K2": 555, "d0": 295}


# ---------------------------------------------------------------------------
# operator tables are built once per potential and shared by every degree

_CACHE_POTENTIALS = [
    pytest.param(W111, QQ, "x^3+y^3+z^3-11/13*x*y*z", id="qq"),
    pytest.param(W112, QQ, "z^2+x^3*y+17*x^2*y^2", id="qq-112"),
    pytest.param(W111, ExtensionField([1, 1, 1]), "x^3+y^3+z^3+(s-5)*x*y*z", id="cube-root-field"),
]


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_operator_tables_are_built_once_per_potential(monkeypatch, weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    calls = []
    real = complexes.gradient

    def counting_gradient(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(complexes, "gradient", counting_gradient)
    structure = from_potential(om)
    for bound in (n + 1, n + 4):
        complexes.ph_dims(om, bound)
        complexes.koszul_dims(om, bound + n)
        complexes.vacancy_check(om, bound)
        complexes.ozone_vs_hamiltonian(om, bound)
        complexes.sealed_k1_dims(om, bound)
        for d in range(-3, bound + 1):
            poisson.graded_derivation_space(structure, d)
            complexes.ozone_dim(om, d)
    # the d0 table, Koszul tables 1, 2 and the ozone table, which also
    # serves d1 and the derivation spaces: the package has no d1 table
    assert len(calls) == 4 and all(f == om for f in calls)
    again = parse_poly(text, weights, field)
    assert complexes._d0_table(again) is complexes._d0_table(om)
    assert all(complexes._koszul_table(again, i) is complexes._koszul_table(om, i)
               for i in (1, 2))
    assert complexes._ozone_table(again) is complexes._ozone_table(om)
    assert len(calls) == 4


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_cached_tables_are_immutable_and_unchanged_by_use(weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    tables = ([complexes._d0_table(om)]
              + [complexes._koszul_table(om, i) for i in (1, 2)]
              + [complexes._ozone_table(om)])
    snapshot = copy.deepcopy(tables)
    # only a table of tuples and immutable values hashes: no dict inside
    for table in tables:
        hash(table)
    cochain_apply(om, 0, (parse_poly("x^2*y+3*z^3", weights, field),))
    for d in range(-weights.n_default, n + 3):
        rank(complexes._d0_matrix(om, d))
        for i in (1, 2):
            rank(complexes.koszul_matrix(om, i, d + n))
        complexes.ozone_dim(om, d)
        # [T_d | c] joins a column to the ozone table's terms
        complexes.derivation_kernel(om, d)
    complexes.sealed_k1_dims(om, n + 2)
    assert tables == snapshot
