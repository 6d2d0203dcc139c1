"""Degree-truncated homology of the cochain, Koszul and de Rham
complexes, with the bivector-space and ozone diagnostics.

The dimension tables asserted here were computed once with independent
scripts (kernel/rank counts assembled degree by degree) and frozen; the
tests guard against regressions in the matrix assembly."""

import copy
import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from wpoisson import (QQ, ExtensionField, Weights, catalog, gradient, has_isolated_singularity,
                      parse_poly, rank)
from wpoisson import complexes, jacobian, linalg, poisson, ring
from wpoisson.jacobian import a_sing_hilbert, gcd_partials, gkdim, jacobian_basis
from wpoisson.linalg import assemble, kernel_basis, op_table, vector_to_polys
from wpoisson.proptest import WEIGHT_POOL
from wpoisson.cli import main
from wpoisson.poisson import euler_derivation, from_potential
from wpoisson.ring import Polynomial, RingError, count_monomials, monomial_basis, rational_copy

import reference_maps as ref
from closed_forms import closed_form_lph2, isolated_ph
from work_counts import KINDS, exact_route, memo_lookups, pass_counts, requester, spy
from reference_maps import (cochain_apply, cochain_matrices, cochain_matrix, cochain_rank,
                            d1_rank_and_ozone_kernel, derham_exactness_check, divergence_block,
                            divergence_ranks,
                            euler_characteristic_check, field_powers, koszul3_rank, m2_dims,
                            m2_rank, reference_assemble, reference_cochain, reference_maps,
                            reference_residues, sealed_dims)


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


def test_ph_closed_form_rows_counts_its_window_once():
    """the closed-form rows read PH^i_d off the memo record, so each call
    counts its cohomology window once, and gives the rows of ph_dims"""
    names = []
    with spy(complexes, "_window", lambda real: lambda *args: names.append(args[1]) or real(*args)):
        for weights, text in ((W111, ELLIPTIC), (Weights(1, 2, 3), CUSP)):
            om = parse_poly(text, weights)
            for bound in (0, 6):
                del names[:]
                rows, _ = complexes.ph_closed_form_rows(om, bound)
                assert names == ["cohomology"]
                tab = complexes.ph_dims(om, bound)
                assert [[r["ph%d" % i] for i in range(4)] for r in rows] == [
                    [tab.dim(i, d) for i in range(4)] for d in range(rows[0]["degree"], bound + 1)]


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
@pytest.fixture
def listed():
    """the degrees of every monomial_basis call made through a package
    module during the test"""
    degrees = []
    with spy(ring, "monomial_basis", lambda real: lambda w, d: degrees.append(d) or real(w, d)):
        yield degrees


_REACH_POTENTIALS = [((1, 1, 5), "x*y"), ((1, 1, 7), "x^2*y^3"), ((1, 2, 3), "x^4+y^2"),
                     ((1, 1, 1), "x^5+y^5+z^5"), ((1, 1, 1), "x^3+y^2*z"),
                     ((1, 2, 3), "z^2+y^3")]


@pytest.mark.parametrize("weights, text", _REACH_POTENTIALS,
                         ids=["%s:%s" % p for p in _REACH_POTENTIALS])
def test_every_sweep_lists_no_degree_past_its_window_top(listed, weights, text):
    """the budget counts degrees 0..T (``complexes._window``): a spy on the
    monomial listing, from empty memos, sees no degree past T"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    # vacancy and ozone refuse n != a+b+c
    sweeps = _SWEEPS if n == om.weights.n_default else _SWEEPS[:4]
    for bound in (0, 2, n, 2 * n + 3):
        for sweep in sweeps:
            complexes.potential_memo.cache_clear()
            del listed[:]
            sweep(om, bound)
            assert listed
            assert max(listed) <= ref.window_top(om, bound), (sweep.__name__, bound)


def _slices(om, d, derivations):
    """the slice degrees that the single-degree map may list: T_d; for the
    ozone space also the sources d+a+c, d+b+c of [H | H'], which it ranks;
    for the derivations, which take the kernel of [T_d | c], the column's
    monomial 1 where d = -n or d >= 0.  The column's f, a power of the
    primitive root of O, lies in A_d"""
    n = om.homogeneous_degree()
    a, b, c = om.weights.tuple
    out = [d + a, d + b, d + c, d + n, d]
    if not derivations:
        out += [d + a + c, d + b + c]
    if derivations:
        out += [0] * (d == -n or d >= 0)
    return out


def _basis_entries(om, d):
    """(dim X1_d + 1 - #A_d) dim X1_d: the bound on the entries of the
    derivation basis, as div maps X1_d onto A_d"""
    dim = sum(count_monomials(om.weights, d + w) for w in om.weights.tuple)
    return (dim + 1 - count_monomials(om.weights, d)) * dim


# unsorted weights, two of them sharing a factor, and a proper power, with
# Casimir degrees that n does not divide, beside the window's
_BUDGET_POTENTIALS = _REACH_POTENTIALS + [((15, 6, 10), "x^2+y^5+z^3"),
                                          ((3, 3, 4), "x^4+y^4+z^3"),
                                          ((1, 1, 1), "(x^2+y*z)^2")]


@pytest.mark.parametrize("weights, text", _BUDGET_POTENTIALS,
                         ids=["%s:%s" % p for p in _BUDGET_POTENTIALS])
def test_single_degree_budget_counts_the_slices_exactly(monkeypatch, weights, text):
    """ozone_dim and derivation_kernel admit a degree whose slices, and for
    the derivations the entries of their basis, hold exactly the budget, and
    refuse it one monomial below"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    for name, fn, derivations in (("ozone", complexes.ozone_dim, False),
                                  ("derivation", complexes.derivation_kernel, True)):
        for d in range(-n - 1, 2 * n + 1):
            count = sum(count_monomials(om.weights, t) for t in _slices(om, d, derivations))
            count += _basis_entries(om, d) if derivations else 0
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


@pytest.mark.parametrize("weights, text", _BUDGET_POTENTIALS,
                         ids=["%s:%s" % p for p in _BUDGET_POTENTIALS])
def test_koszul_matrix_budget_counts_its_slices_exactly(monkeypatch, weights, text):
    """koszul_matrix admits a degree whose source and target slices hold
    exactly the budget, and refuses it one monomial below"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    for i in (1, 2):
        for d in range(3 * n + 1):
            degs = complexes.koszul_component_degs(om, d)
            count = sum(count_monomials(om.weights, t) for t in degs[i] + degs[i - 1])
            monkeypatch.setattr(complexes, "WINDOW_BUDGET", count)
            complexes.koszul_matrix(om, i, d)
            if count:
                monkeypatch.setattr(complexes, "WINDOW_BUDGET", count - 1)
                with pytest.raises(RingError) as err:
                    complexes.koszul_matrix(om, i, d)
                assert str(err.value) == (
                    "degree %d is over budget: the slices of its koszul map hold more than %d "
                    "monomials" % (d, count - 1))


def test_derivation_kernel_counts_the_basis_it_would_return(listed):
    """on x^3+y^3+z^3 the count refuses d = 250, whose dense basis a run
    could not hold, and d = 18, whose slices hold 1,074 monomials but whose
    basis may hold (dim X1_d + 1 - #A_d) dim X1_d = 277,830 entries, with
    no monomial listed; it admits d = 17, the largest degree it admits"""
    om = parse_poly("x^3+y^3+z^3", W111)
    for d in (250, 18):
        with pytest.raises(RingError, match="^degree %d is over budget: the slices of its "
                                            "derivation map hold more than 250000" % d):
            complexes.derivation_kernel(om, d)
    assert listed == []
    assert sum(count_monomials(W111, t) for t in _slices(om, 18, True)) == 1074
    assert _basis_entries(om, 18) == 277_830
    basis = complexes.derivation_kernel(om, 17)
    assert len(basis) == complexes._space_dim(W111, W111.tuple, 17) - cochain_rank(om, 1, 17)


@pytest.mark.parametrize("weights, text", _BUDGET_POTENTIALS,
                         ids=["%s:%s" % p for p in _BUDGET_POTENTIALS])
def test_derivation_kernel_lists_only_the_slices_it_counts(listed, weights, text):
    """from empty memos, derivation_kernel lists no slice but those of
    [T_d | c] and the column's monomial 1: the Casimir column is a power of
    the primitive root of O, found with no matrix and no listing"""
    om = parse_poly(text, Weights(*weights))
    n = om.homogeneous_degree()
    for d in range(-n - 1, 2 * n + 1):
        complexes.potential_memo.cache_clear()
        del listed[:]
        complexes.derivation_kernel(om, d)
        assert set(listed) <= set(_slices(om, d, True)), d


@pytest.mark.parametrize("weights, text", [((1, 1, 1), "x^3+y^3+z^3"),
                                           ((2, 3, 5), "x^5+z^2+x^2*y^2")])
def test_koszul_matrix_refuses_a_huge_degree_before_it_lists_a_monomial(
        listed, weights, text):
    """a library caller's huge degree is refused by the slice count, with no
    monomial listed: a spy on the listing counts none"""
    om = parse_poly(text, Weights(*weights))
    for i in (1, 2):
        with pytest.raises(RingError, match="^degree 1000000000 is over budget: the slices of "
                                            "its koszul map"):
            complexes.koszul_matrix(om, i, 10 ** 9)
    assert listed == []


def test_koszul_matrix_refuses_an_index_outside_one_and_two_first(monkeypatch, listed):
    """K3 -> K2 is injective and never assembled, and no other index has a
    map: any i outside {1, 2} is refused before the slice count, which a
    budget of 0 would refuse, with no monomial listed"""
    om = parse_poly(ELLIPTIC, W111)
    monkeypatch.setattr(complexes, "WINDOW_BUDGET", 0)
    for i in (0, 3, 4, -5):
        with pytest.raises(RingError, match="^koszul index out of range$"):
            complexes.koszul_matrix(om, i, 6)
    assert listed == []


# ---------------------------------------------------------------------------
# operator tables against the per-column Polynomial evaluation they replace

# assembled matrices told apart by call site and numbers of source and
# target components (``work_counts``), with the test-side de Rham maps
_KINDS = {
    **KINDS,
    ("derham_exactness_check", 1, 3): "grad",
    ("derham_exactness_check", 3, 3): "curl",
    ("derham_exactness_check", 3, 1): "div",
}


def _capture(run):
    """(kind, src_degs, tgt_degs, matrix) of every assemble call made by
    run() in the package or in the test-side de Rham check, from empty
    memos, its kind from ``_KINDS``"""
    complexes.potential_memo.cache_clear()
    calls = []

    def capture(real):
        def call(weights, src_degs, tgt_degs, table):
            m = real(weights, src_degs, tgt_degs, table)
            kind = _KINDS[requester(), len(src_degs), len(tgt_degs)]
            calls.append((kind, list(src_degs), list(tgt_degs), m))
            return m
        return call

    with spy(linalg, "assemble", capture):
        run()
    return calls


def test_a_spy_sees_the_matrices_asked_for_through_every_name_of_the_assembler():
    """a spy on ``linalg.assemble`` rebinds each module's name for it, so it
    sees both matrices of a cold gcd on the Koszul route: K2 through
    complexes' name and the second kernel's map through jacobian's.  On
    exit every name is the assembler again"""
    owners = (linalg, complexes, jacobian, ref)
    om = parse_poly("y^7+x^2*y^5-2*x*y^6", Weights(1, 1, 3))
    asked = []
    complexes.potential_memo.cache_clear()
    with spy(linalg, "assemble", lambda real: lambda *args: (
            asked.append(sys._getframe(1).f_code.co_name) or real(*args))):
        spied = {m.assemble for m in owners}
        assert len(spied) == 1 and assemble not in spied
        gcd_partials(om)
    assert {m.assemble for m in owners} == {assemble}
    assert asked == ["koszul_matrix", "_gcd_from_koszul"]


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
def test_operator_tables_match_per_column_evaluation(weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    w = n - weights.n_default
    ref = reference_maps(om)
    sh = complexes.cochain_shifts(weights)
    degrees = range(-weights.n_default, n + 3)

    def check(name, new, src, tgt, over=field):
        if isinstance(new.field, linalg.Reduction):
            # the K-matrix mod p of a rank read (``complexes``)
            p, r = new.field.p, new.field.r
            rows, cols = reference_residues(weights, over, p, r, src, tgt, ref[name])
            assert new.field.field is over
            assert sum(int(c) * r ** i for i, c in enumerate(over.modulus)) % p == 0
            assert (new.rows, new.cols, [{j: v % p for j, v in row.items() if v % p}
                                         for row in new.entries]) == (len(rows), cols, rows)
            residues.add(name)
            return
        expected = reference_assemble(weights, over, src, tgt, ref[name])
        assert _same_matrix(new, expected), (name, src, tgt)
        exact.add(name)

    residues, exact = set(), set()

    for d in degrees:
        for i in range(3):
            check("cochain%d" % i, cochain_matrix(om, i, d),
                  [d + s for s in sh[i]], [d + w + s for s in sh[i + 1]])
        degs = complexes.koszul_component_degs(om, d)
        for i in (1, 2):
            check("koszul%d" % i, complexes.koszul_matrix(om, i, d), degs[i], degs[i - 1])

    # the divergence route's blocks, the oracle of the Hamiltonian ranks
    for d in degrees:
        u_deg = d - n + weights.tuple[complexes.potential_memo(om).first_partial]
        check("sealed_block", divergence_block(om, d, u_deg), [u_deg] + [d + s for s in sh[1]],
              [d + n, d])

    # the maps among the Hamiltonian blocks, T_d and the cochain and Koszul
    # matrices that the same runs assemble, by kind and number of sources;
    # the sealed block gives rank K1, so no run assembles K1
    reference = {("H", 2): "hamiltonian", ("H", 4): "sealed_hamiltonian", ("T", 3): "ozone",
                 ("K2", 3): "koszul2"}
    runs = [
        ("H", 2, lambda: complexes.ph_dims(om, n + 2)),
        ("H", 2, lambda: complexes.ozone_vs_hamiltonian(om, n + 2)),
        # to 2n, where K1 meets a nonzero source and image
        ("H", 4, lambda: complexes.sealed_k1_dims(om, 2 * n)),
        ("H", 2, lambda: poisson.rgt(om)),
        # T_d alone in the degrees with no Casimir column
        ("T", 3, lambda: [complexes.derivation_kernel(om, d) for d in range(-1, n + 2)
                          if complexes.potential_memo(om).casimir_column(d) is None]),
    ]

    def check_runs():
        exact.clear()
        for name, sources, run in runs:
            calls = _capture(run)
            seen = {(kind, len(src)) for kind, src, _, _ in calls}
            assert (name, sources) in seen, name
            assert "K1" not in {kind for kind, _ in seen}
            for kind, src, tgt, m in calls:
                check(reference[kind, len(src)], m, src, tgt)

    check_runs()
    # over Q(s) every rank read assembled its K-matrix mod p, and each was
    # checked above against the evaluation mapped by s -> r; T, whose kernel
    # basis derivation_kernel returns, stays exact
    kinds = {"hamiltonian", "sealed_hamiltonian", "koszul2"}
    assert residues == (kinds if field != QQ else set())
    assert exact == ({"ozone"} if field != QQ else kinds | {"ozone"})
    if field != QQ:
        # on the exact route the same runs assemble the exact K-matrices,
        # each checked against the evaluation itself
        with exact_route():
            check_runs()
        assert exact == kinds | {"ozone"}

    # the de Rham maps are integer, so they are assembled over Q
    calls = _capture(lambda: derham_exactness_check(weights, n + 2))
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


def _assert_vacancy_identity(om, top, d2, m2):
    """at every degree of the vacancy window, vacancy_check = PH1 - PH0 =
    ozone - hamiltonian = dim X2 - rank d2 - dim M2, its definition, with
    the ranks of d2 and M2 by degree from their assembled matrices"""
    weights = om.weights
    vacancy = complexes.vacancy_check(om, top)
    assert list(vacancy) == list(range(-om.homogeneous_degree(), top + 1))
    ph = complexes.ph_dims(om, top)
    assert vacancy == {d: ph.dim(1, d) - ph.dim(0, d) for d in vacancy}
    ozone = complexes.ozone_vs_hamiltonian(om, top)
    assert vacancy == {d: ozone[d][0] - ozone[d][1] if d in ozone else 0 for d in vacancy}
    x2 = complexes.cochain_shifts(weights)[2]
    assert vacancy == {d: complexes._space_dim(weights, x2, d) - d2[d] - m2[d]
                       for d in vacancy}


def _vacancy_potentials():
    """seeded potentials of degree a+b+c on every weight triple of the
    property suites, over Q and over Q(s)/(s^2+s+1), of three terms: on a
    denser one over Q(s) the eliminations at 3n+12 take tens of seconds
    (ROADMAP item 18)"""
    cube = ExtensionField([1, 1, 1])
    rng = random.Random("vacancy")
    out = []
    for weights in map(lambda t: Weights(*t), WEIGHT_POOL):
        basis = monomial_basis(weights, weights.n_default)
        for field in (QQ, cube):
            terms = {m: sum((rng.randint(-4, 4) * p for p in field_powers(field)), field.zero)
                     for m in rng.sample(basis, min(len(basis), 3))}
            om = Polynomial(weights, field, {m: c for m, c in terms.items() if c}
                            or {basis[0]: field.one})
            out.append(pytest.param(om, id="%d,%d,%d:%s" % (*weights.tuple, om)))
    return out


@pytest.mark.parametrize("om", _vacancy_potentials())
def test_vacancy_is_ozone_less_hamiltonians_and_ph1_less_ph0(om):
    """the vacancy identity of the module docstring at 3n+12, against d2 and
    M2 assembled column by column"""
    n, maps = om.homogeneous_degree(), reference_maps(om)
    top = complexes.default_bound(n)
    degrees = range(-n, top + 1)
    _assert_vacancy_identity(om, top, {d: cochain_rank(om, 2, d, maps) for d in degrees},
                             {d: m2_rank(om, d, maps) for d in degrees})


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
    memo = complexes.potential_memo(om)
    # d0 from the Casimir degree against the cochain matrices
    assert ({d: memo.cochain_rank(0, d) for d in slots}
            == {d: cochain_rank(om, 0, d, maps) for d in slots})
    d1_ozone = {d: d1_rank_and_ozone_kernel(om, d, maps) for d in slots}
    assert ({d: memo.cochain_rank(1, d) for d in slots}
            == {d: pair[0] for d, pair in d1_ozone.items()})
    d2 = {d: cochain_rank(om, 2, d, maps) for d in slots}
    assert {d: memo.cochain_rank(2, d) for d in slots} == d2
    if n != weights.n_default and n <= top:
        assert count_monomials(weights, n) > cochain_rank(om, 0, n, maps)
    degrees = range(-weights.n_default, top + 1)
    # M2: the Casimir count against the rank of the M2 map
    m2 = {d: m2_rank(om, d, maps) for d in degrees}
    assert m2_dims(om, top) == m2
    if n == weights.n_default:
        _assert_vacancy_identity(om, top, d2, m2)
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


_PROPER_POWERS = [
    pytest.param(W111, QQ, "(x^2+y*z)^2", id="(x^2+y*z)^2"),
    pytest.param(W111, QQ, "x^3*y^3", id="x^3*y^3"),
    pytest.param(W111, QQ, "x^2*y^2*z^2", id="x^2*y^2*z^2"),
    pytest.param(W111, ExtensionField([1, 1, 1]), "(x^3+y^3+s*z^3)^2", id="(x^3+y^3+s*z^3)^2"),
]


@pytest.mark.parametrize("weights, field, text", _PROPER_POWERS)
def test_d0_and_k2_ranks_of_proper_powers_match_their_matrices(weights, field, text):
    """a proper power O = c R^r, r > 1, has Casimirs below n and partials
    with a gcd h of positive degree: ranks d0 and K2 against their matrices,
    d0's from the tests' own table, to 3n+12, where the kernel of K2 starts
    at 3n - (a+b+c) - deg h"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    top = 3 * n + 12
    assert complexes.potential_memo(om).casimir_degree < n
    assert ([complexes.potential_memo(om).cochain_rank(0, d) for d in range(-n, top + 1)]
            == [rank(cochain_matrix(om, 0, d)) for d in range(-n, top + 1)])
    assert ([complexes.potential_memo(om).koszul_rank(2, d) for d in range(top + 1)]
            == [rank(complexes.koszul_matrix(om, 2, d)) for d in range(top + 1)])
    h = gcd_partials(om).homogeneous_degree()
    assert h > 0
    assert complexes.potential_memo(om).k2_kernel_degree == 3 * n - weights.n_default - h


def _root_potentials():
    """every catalog entry, the proper powers above, and seeded c R^r, r in
    {2, 3}, with R of degree a+b+c, over Q and over Q(s)/(s^2+s+1), on every
    weight triple of the property suite"""
    cube = ExtensionField([1, 1, 1])
    rng = random.Random(2023)
    out = [pytest.param(e.weights, e.omega, id=e.entry_id) for e in catalog.entries()]
    out += [pytest.param(w, parse_poly(text, w, field), id=p.id)
            for p in _PROPER_POWERS for w, field, text in [p.values]]

    def coefficient(field):
        """nonzero: a nonzero rational part, and for Q(s) an s-part"""
        s_part = sum(rng.randint(-2, 2) * p for p in field_powers(field)[1:])
        return rng.choice((-3, -2, -1, 1, 2, 3)) + s_part

    for weights in map(lambda t: Weights(*t), WEIGHT_POOL):
        basis = monomial_basis(weights, weights.n_default)
        for r, field in ((2, QQ), (3, QQ), (2, cube), (3, cube)):
            root = Polynomial(weights, field, {m: coefficient(field)
                                               for m in rng.sample(basis, min(len(basis), 3))})
            om = root ** r * coefficient(field)
            out.append(pytest.param(weights, om, id="%d,%d,%d:(%s)^%d" % (*weights.tuple, root, r)))
    return out


@pytest.mark.parametrize("weights, om", _root_potentials())
def test_the_casimir_root_gives_the_least_casimir_degree(weights, om):
    """casimir_degree is the least divisor e of n where d0_e, from the
    tests' own table, has a kernel, and casimir_root^(n/e) is O/lc(O)"""
    n = om.homogeneous_degree()
    e = next(e for e in range(1, n + 1) if n % e == 0
             and rank(cochain_matrix(om, 0, e)) < count_monomials(weights, e))
    complexes.potential_memo.cache_clear()
    memo = complexes.potential_memo(om)
    assert memo.casimir_degree == e
    assert memo.casimir_root ** (n // e) == om.monic()


@pytest.mark.parametrize("text", ["x^2+y^2", "x^2*y^2+x*y^3+z^4"])
def test_a_non_power_with_a_square_head_has_no_proper_root(text):
    """the heads x^2 and x^2*y^2 are squares, but neither potential is a
    proper power: the root search fails, at the second term of x^2+y^2 and
    at the third of x^2*y^2+x*y^3+z^4, and e = n"""
    om = parse_poly(text, W111)
    n = om.homogeneous_degree()
    assert all(u % 2 == 0 for u in om.leading_monomial())
    assert complexes._root(om, 2) is None
    memo = complexes.potential_memo(om)
    assert (memo.casimir_degree, memo.casimir_root) == (n, om)


@pytest.mark.parametrize("weights, field, text", _PROPER_POWERS)
def test_the_casimir_column_spans_the_kernel_of_d0(weights, field, text):
    """on a proper power, the f of casimir_column(d), a power of the root of
    O, spans the kernel of d0_d from the tests' own table at every d from
    -n to 3n+12; at d = -n the column is (1, 0), and d0 has no source"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    memo = complexes.potential_memo(om)
    for d in range(-n, 3 * n + 13):
        kernel = kernel_basis(cochain_matrix(om, 0, d))
        column = memo.casimir_column(d)
        if d == -n:
            assert (column, kernel) == ((1, 0), [])
            continue
        assert len(kernel) == (column is not None), d
        if kernel:
            (g,) = vector_to_polys(weights, field, [d], kernel[0])
            assert column[1] * Fraction(n, d + n) == g.monic(), d


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
    memo = complexes.potential_memo(om)
    for d in (0, 4):
        assert memo.cochain_rank(1, d) == memo.ozone_rank(d) - 1
        assert memo.cochain_rank(1, d) == cochain_rank(om, 1, d)


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
# the Hamiltonian block against the divergence route


def _seeded_potentials():
    """seeded potentials of degree a+b+c and of other degrees, over Q and
    over Q(s)/(s^2+s+1), each to the bound n+6; (1,1,5) at n = 2 has X1 at
    d = -n, where c = (1, 0)"""
    cube = ExtensionField([1, 1, 1])
    rng = random.Random(1994)
    out = []
    for weights, n, field in (((1, 1, 1), 3, QQ), ((1, 1, 1), 4, QQ), ((1, 1, 2), 4, QQ),
                              ((1, 1, 2), 6, cube), ((1, 2, 3), 6, QQ), ((1, 2, 3), 5, cube),
                              ((1, 1, 5), 2, QQ), ((1, 1, 5), 2, cube), ((2, 3, 5), 10, QQ)):
        w = Weights(*weights)
        basis = monomial_basis(w, n)
        powers = field_powers(field)
        terms = {m: sum((rng.randint(-4, 4) * p for p in powers), field.zero)
                 for m in rng.sample(basis, min(len(basis), 4))}
        terms = {m: c for m, c in terms.items() if c} or {basis[0]: field.one}
        om = Polynomial(w, field, terms)
        out.append(pytest.param(w, field, om, n + 6, id="%s:%s" % (weights, om)))
    return out


def _hamiltonian_potentials():
    """every catalog entry and the seeded potentials, each to n+6"""
    return [pytest.param(e.weights, QQ, e.omega, e.degree + 6, id=e.entry_id)
            for e in catalog.entries()] + _seeded_potentials()


@pytest.mark.parametrize("weights, field, om, top", _hamiltonian_potentials())
def test_hamiltonian_block_ranks_match_the_divergence_route(weights, field, om, top):
    """one elimination of [O A_e | O g_i A_u | H | H'] gives rank K1 at total
    degree e+n, rank B_e and rank T_e, and [H | H'] alone rank T_e, each
    against its own matrix by the divergence route (``reference_maps``), at
    every degree e from -n to n+6 with X1_e nonzero"""
    n = om.homogeneous_degree()
    degrees = [e for e in range(-n, top + 1) if complexes._koszul_dim(om, 1, e + n)]
    assert degrees
    complexes.potential_memo.cache_clear()
    memo = complexes.potential_memo(om)
    for e in degrees:
        k1, rank_b, rank_t = divergence_ranks(om, e)
        assert memo.sealed_ranks(e) == (k1, rank_b, rank_t), e
        assert memo.hamiltonian_rank(e) == rank_t, e


@pytest.mark.parametrize("weights, field, om, top", _seeded_potentials())
def test_column_rank_matches_the_divergence_route(weights, field, om, top):
    """rank [T_d | c] = #A_d + rank [H | H' | c'], c' = h - n f O/(d+s), for
    the Casimir column, (1, 0) at d = -n, and seeded columns c = (h, f),
    against [T_d | c] assembled whole"""
    n = om.homogeneous_degree()
    rng = random.Random(str(om))
    # a column over Q when T's table is, as the Casimir columns are
    powers = field_powers(field if rational_copy(om) is None else QQ)
    seen, memo = Counter(), complexes.potential_memo(om)
    for d in range(-n, top + 1):
        if not complexes._space_dim(weights, weights.tuple, d):
            continue
        casimir = memo.casimir_column(d)
        seeded = [tuple(Polynomial(weights, field, {
            m: sum((rng.randint(-3, 3) * p for p in powers), field.zero)
            for m in monomial_basis(weights, t)}) for t in (d + n, d)) for _ in range(2)]
        for column in [casimir] * (casimir is not None) + seeded:
            assert (memo.column_rank(d, column)
                    == rank(divergence_block(om, d, column=column))), (d, column)
        seen["casimir"] += casimir is not None
        seen["-n"] += d == -n
    assert seen["casimir"]
    assert seen["-n"] == (n <= max(weights.tuple))


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
    complexes.potential_memo.cache_clear()
    complexes.sealed_k1_dims(om, bound)
    shared = dict(complexes.potential_memo(om).t_ranks)
    assert sorted(shared) == _sealed_degrees(om, bound)
    return shared


@pytest.mark.parametrize("weights, field, text", [
    pytest.param(w, QQ, t, id=t) for w, t in _ISOLATED] + [
    pytest.param(W111, ExtensionField([1, 1, 1]), "x^4+y^4+z^4+s*x^2*y*z", id="cube-root-field"),
])
def test_ranks_read_off_the_sealed_block_give_the_isolated_closed_form(weights, field, text):
    """ph_dims reads rank T_d from the memo the sealed blocks filled, and
    ranks [H | H'] only in the other degrees; the closed forms of an
    isolated potential check it: the alternating sum of AC8 cannot, as the
    ranks telescope away there"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    assert n != weights.n_default and has_isolated_singularity(om)
    lo, top = -max(n, weights.n_default), 3 * n + 6
    shared = _shared_ranks(om, top)
    assembled = []

    def record(real):
        def call(w, src_degs, tgt_degs, table):
            # [H | H'] alone, not [H | H' | c'] in the degrees with a Casimir
            if requester() == "hamiltonian_rank" and len(src_degs) == 2:
                assembled.append(tgt_degs[0] - n)
            return real(w, src_degs, tgt_degs, table)
        return call

    with spy(linalg, "assemble", record):
        table = complexes.ph_dims(om, top)
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
    complexes.potential_memo.cache_clear()
    assert shared == {e: complexes.potential_memo(om).ozone_rank(e) for e in shared}
    assert complexes.potential_memo(om).t_ranks == shared


# the work of a cold catalog pass, pinned below and quoted in the README:
# the matrices by kind at each bound, and the root attempts and memo record
# lookups, the same at both
PASS_MATRICES = {"3n+12": {"H": 3041, "K2": 394}, "n+6": {"H": 1584, "K2": 303}}
PASS_ROOT_ATTEMPTS = 281
PASS_MEMO_LOOKUPS = 913


def test_a_catalog_pass_eliminates_no_t_at_a_sealed_degree(monkeypatch):
    """a cold verify_entry of every catalog entry at n+6 reads rank T_e and
    rank K1 off the sealed block [O A_e | O g_i A_u | H | H'] wherever it
    eliminates it, ranks [H | H'] alone only at the other degrees,
    eliminates K2 as often as before, and tries one root of the potential
    where it eliminated d0"""
    counts, lookups, attempts = Counter(), 0, []
    real_root = complexes._root
    monkeypatch.setattr(complexes, "_root", lambda p, r: attempts.append(r) or real_root(p, r))
    for e in catalog.entries():
        calls = _capture(lambda: catalog.verify_entry(e, e.degree + 6))
        lookups += memo_lookups()
        # both blocks map into A_{d+n} at degree d
        t_degs = {tgt[0] - e.degree for kind, src, tgt, _ in calls if len(src) == 2}
        b_degs = {tgt[0] - e.degree for kind, src, tgt, _ in calls if len(src) == 4}
        assert b_degs and not t_degs & b_degs, e.entry_id
        counts.update(kind for kind, _, _, _ in calls)
    # 463 [H | H'] blocks and 1,121 sealed blocks, as each yes/no sweep stops
    # at its sixth nonzero degree; swept to n+6 they were 794 and 1,264, with
    # K2 412 and d0 295, and the divergence route assembled 794 T, 1,264 B
    # and 470 K1; the Casimir search assembled 281 d0 matrices
    assert counts == PASS_MATRICES["n+6"] and counts["K1"] == 0
    assert len(attempts) == PASS_ROOT_ATTEMPTS
    # one lookup of the memo record per public call; 14,957 when every rank
    # looked the record up again
    assert lookups == PASS_MEMO_LOOKUPS


def test_a_default_catalog_pass_assembles_the_counted_matrices():
    """``tests/work_counts.py`` at the default bound 3n+12: no catalog
    potential reaches [T_d | c], as every one has n = a+b+c, and the sealed
    blocks leave no K1 matrix to assemble.  Swept to 3n+12, the yes/no checks
    assembled 5,246 matrices (H 4,396, K2 555, d0 295); by the divergence
    route 8,054 (B 3,602, T 794, K1 2,808, K2 555, d0 295).  The Casimir
    search assembled 281 d0 matrices, where the pass now tries 281 roots of
    the potentials.  The pass looks the memo record up once per public call,
    as at n+6; 30,626 times when every rank looked it up again"""
    counts, attempts, lookups = pass_counts()
    assert counts == PASS_MATRICES["3n+12"] and counts["K1"] == 0
    assert attempts == PASS_ROOT_ATTEMPTS
    assert lookups == PASS_MEMO_LOOKUPS


def test_catalog_verify_stops_a_yes_no_sweep_at_its_sixth_nonzero_degree():
    """x^3 on (1,1,1) at D = 9: sealed is nonzero at 2..7 and vacancy at -1..4,
    so the sealed blocks stop at e = 7 - n = 4, and vacancy reads every rank
    T_d it needs off them, with no [H | H'] block; swept to 9 they reached
    e = 6, and vacancy added [H | H'] at 7, 8, 9.  x^3+y^2*z is vacant, so
    its vacancy sweep still reaches 9, past the sealed blocks"""
    def blocks(entry_id):
        (entry,) = catalog.entries(entry_id)
        reports = []
        calls = _capture(lambda: reports.append(catalog.verify_entry(entry, 9)))
        items = {row["check"]: row["computed"] for row in reports[0]}
        # the sealed block of degree e has sources e, ..; both map into A_{d+n}
        sealed = [src[0] for kind, src, _, _ in calls if kind == "H" and len(src) == 4]
        alone = [tgt[0] - 3 for kind, src, tgt, _ in calls if kind == "H" and len(src) == 2]
        return items, sealed, alone

    items, sealed, alone = blocks("111-r-a")
    assert items["sealed"] == "nonzero at [2, 3, 4, 5, 6, 7]"
    assert items["vacancy"] == "nonzero at [-1, 0, 1, 2, 3, 4]"
    assert sealed == list(range(-1, 5)) and alone == []
    items, sealed, alone = blocks("111-i-a")
    assert items["vacancy"] == "all zero to 9" and items["sealed"] == "all zero to 9"
    assert sealed == list(range(-1, 7)) and alone == [7, 8, 9]


# ---------------------------------------------------------------------------
# operator tables are built once per potential and shared by every degree

_CACHE_POTENTIALS = [
    pytest.param(W111, QQ, "x^3+y^3+z^3-11/13*x*y*z", id="qq"),
    pytest.param(W112, QQ, "z^2+x^3*y+17*x^2*y^2", id="qq-112"),
    pytest.param(W111, ExtensionField([1, 1, 1]), "x^3+y^3+z^3+(s-5)*x*y*z", id="cube-root-field"),
]


_RANK_BLOCKS = ("K1", "K2", "H", "sealed")


def _tables(om):
    """every operator table of a potential: Koszul 1 and 2, the Hamiltonian
    and sealed blocks, and T for the derivation basis; over Q(s) also the
    first four over F_p"""
    memo = complexes.potential_memo(om)
    residues = [] if memo.reduction is None else [
        memo.table(block, memo.reduction) for block in _RANK_BLOCKS]
    return [memo.table(block) for block in _RANK_BLOCKS + ("T",)] + residues


def _held(om):
    """{block: the fields the record holds its table over}, each field named
    K, for the potential's own, or F_p"""
    held = {}
    for block, field in complexes.potential_memo(om).tables:
        held.setdefault(block, set()).add("K" if field is om.field else "F_p")
    return held


@pytest.fixture
def gradients():
    """the calls of ``gradient`` made through every package module during
    the test"""
    calls = []
    with spy(ring, "gradient", lambda real: lambda f: calls.append(f) or real(f)):
        yield calls


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_operator_tables_are_built_once_per_potential(gradients, weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    complexes.potential_memo.cache_clear()
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
    # one gradient serves every table, and the bracket; the package has
    # no d1 table
    assert gradients == [om]
    again = parse_poly(text, weights, field)
    assert all(new is old for new, old in zip(_tables(again), _tables(om)))
    assert gradients == [om]


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_ph_dims_builds_no_sealed_table(weights, field, text):
    """the products O and O g_i are made for the sealed sweep alone: ph_dims,
    koszul_dims and the derivation spaces build no sealed table.  Over Q(s)
    the sweep builds the table over F_p alone, as its bounds certify every
    block of this isolated potential, so no block is eliminated over Q(s)"""
    om = parse_poly(text, weights, field)
    complexes.potential_memo.cache_clear()
    complexes.ph_dims(om, 6)
    complexes.koszul_dims(om, 9)
    for d in range(4):
        poisson.graded_derivation_space(from_potential(om), d)
    assert "sealed" not in _held(om)
    complexes.sealed_k1_dims(om, 6)
    assert _held(om)["sealed"] == {"K" if field == QQ else "F_p"}


@pytest.mark.parametrize("text, held", [
    # isolated: every rank read is certified, and T serves the derivation
    # bases alone, which stay exact
    ("x^3+y^3+z^3+(s-5)*x*y*z", {"K1": {"F_p"}, "K2": {"F_p"}, "H": {"F_p"}, "sealed": {"F_p"},
                                 "T": {"K"}}),
    # not isolated: the first rank read, of H, misses, and every later
    # table is over K
    ("(x+s*y)^2*z", {"K1": {"K"}, "K2": {"K"}, "H": {"F_p", "K"}, "sealed": {"K"},
                     "T": {"K"}}),
])
def test_a_full_sweep_holds_each_table_over_the_fields_its_reads_used(text, held):
    """after ph_dims, koszul_dims, sealed_k1_dims, vacancy_check and the
    derivation spaces, the record holds one table per (block, field) it
    read: over F_p while its reads were certified, and over K after the
    first miss"""
    om = parse_poly(text, W111, ExtensionField([1, 1, 1]))
    complexes.potential_memo.cache_clear()
    complexes.ph_dims(om, 9)
    complexes.koszul_dims(om, 9)
    complexes.sealed_k1_dims(om, 9)
    complexes.vacancy_check(om, 9)
    for d in range(4):
        poisson.graded_derivation_space(from_potential(om), d)
    assert _held(om) == held


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_equal_potentials_parsed_apart_share_one_record(weights, field, text):
    """the memo is keyed by the potential's value: a second parse finds the
    record of the first, so its rank tables assemble no matrix (the
    derivation bases eliminate on every call, as they return bases)"""
    om = parse_poly(text, weights, field)
    complexes.potential_memo.cache_clear()

    def tables(p):
        return (complexes.ph_dims(p, 6).dims, complexes.koszul_dims(p, 9).dims,
                [complexes.ozone_dim(p, d) for d in range(-3, 7)], complexes.sealed_k1_dims(p, 6))

    first = tables(om)
    assembled = []
    again = parse_poly(text, weights, field)
    assert again is not om and complexes.potential_memo(again) is complexes.potential_memo(om)
    with spy(linalg, "assemble", lambda real: lambda *args: assembled.append(args) or real(*args)):
        assert tables(again) == first
    assert assembled == []


# (name, call on a potential of degree n, whether it needs n = a+b+c); the
# derivation degrees have a Casimir column: O itself at d = n, and for a
# proper power a root of O at d = 2
_PUBLIC_CALLS = [
    ("ph_dims", lambda om, n: complexes.ph_dims(om, n + 3), False),
    ("vacancy_degrees", lambda om, n: list(complexes.vacancy_degrees(om, n + 3)), True),
    ("vacancy_check", lambda om, n: complexes.vacancy_check(om, n + 3), True),
    ("ozone_dim", lambda om, n: complexes.ozone_dim(om, 2), False),
    ("derivation_kernel at 2", lambda om, n: complexes.derivation_kernel(om, 2), False),
    ("derivation_kernel at n", lambda om, n: complexes.derivation_kernel(om, n), False),
    ("ozone_vs_hamiltonian", lambda om, n: complexes.ozone_vs_hamiltonian(om, n + 3), True),
    # past 3n - (a+b+c), where rank K2 comes from the kernel degree
    ("koszul_dims", lambda om, n: complexes.koszul_dims(om, 3 * n + 2), False),
    ("sealed_degrees", lambda om, n: list(complexes.sealed_degrees(om, n + 3)), False),
    ("sealed_k1_dims", lambda om, n: complexes.sealed_k1_dims(om, n + 3), False),
    ("koszul_matrix", lambda om, n: complexes.koszul_matrix(om, 2, 2 * n), False),
    # jacobian's, which keep the Groebner data in the same record
    ("jacobian_basis", lambda om, n: jacobian_basis(om), False),
    ("gkdim", lambda om, n: gkdim(om), False),
    ("has_isolated_singularity", lambda om, n: has_isolated_singularity(om), False),
    ("a_sing_hilbert", lambda om, n: a_sing_hilbert(om, n), False),
    ("gcd_partials", lambda om, n: gcd_partials(om), False),
]


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS + [
    pytest.param(W111, QQ, "x^4+y^4+z^4", id="quartic"),
    pytest.param(W111, QQ, "(x^2+y*z)^2", id="proper-power"),
    # y^5 (y - x)^2: gcd_partials takes the Koszul K2 route, as the gcd
    # y^4 (y - x) is not the monomial content y^4
    pytest.param(Weights(1, 1, 3), QQ, "y^7+x^2*y^5-2*x*y^6", id="k2-gcd-route"),
])
def test_each_public_call_looks_its_record_up_once(weights, field, text):
    """a cold call of each public sweep and single-degree map of complexes,
    and of each Groebner entry point of jacobian, looks the potential's memo
    record up once, however many degrees it ranks: the change in the hits
    plus misses of potential_memo"""
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    for name, call, needs_abc in _PUBLIC_CALLS:
        if needs_abc and n != weights.n_default:
            continue
        complexes.potential_memo.cache_clear()
        call(om, n)
        assert memo_lookups() == 1, name


def test_the_memo_drops_the_least_recently_used_record():
    """past MEMO_SIZE potentials the oldest record is dropped whole, and
    nothing else keeps it alive; the newer ones stay"""
    complexes.potential_memo.cache_clear()
    pots = [parse_poly("x^3+y^3+z^3+%d*x*y*z" % k, W111)
            for k in range(1, complexes.MEMO_SIZE + 2)]
    records = []
    for om in pots:
        complexes.ph_dims(om, 3)
        records.append(complexes.potential_memo(om))
    info = complexes.potential_memo.cache_info()
    assert info.maxsize == info.currsize == complexes.MEMO_SIZE
    assert all(complexes.potential_memo(om) is r for om, r in zip(pots[1:], records[1:]))
    oldest = weakref.ref(records[0])
    del records[0]
    gc.collect()
    assert oldest() is None
    assert complexes.potential_memo(pots[0]).tables == {}


def test_a_catalog_verify_leaves_at_most_memo_size_records():
    """a cold ``catalog verify`` of every entry holds no more than MEMO_SIZE
    potentials' state at its end"""
    complexes.potential_memo.cache_clear()
    res = CliRunner().invoke(main, ["catalog", "verify", "--max-degree", "9"])
    assert res.exit_code == 0, res.output
    assert complexes.potential_memo.cache_info().misses >= len(catalog.entries())
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, complexes._Memo)]
    assert 0 < len(alive) <= complexes.MEMO_SIZE


def test_a_catalog_entry_computes_its_gradient_once(gradients):
    """every check of verify_entry, the tables, the Groebner basis and the
    bracket, reads the one memoised gradient of the potential"""
    for e in list(catalog.entries())[::25]:
        complexes.potential_memo.cache_clear()
        del gradients[:]
        assert all(row["status"] != "fail" for row in catalog.verify_entry(e))
        assert [f for f in gradients if f == e.omega] == [e.omega], e.entry_id


@pytest.mark.parametrize("weights, field, text", _CACHE_POTENTIALS)
def test_cached_tables_are_immutable_and_unchanged_by_use(weights, field, text):
    om = parse_poly(text, weights, field)
    n = om.homogeneous_degree()
    tables = _tables(om)
    snapshot = copy.deepcopy(tables)
    # only a table of tuples and immutable values hashes: no dict inside
    for table in tables:
        hash(table)
    for d in range(-weights.n_default, n + 3):
        for i in (1, 2):
            rank(complexes.koszul_matrix(om, i, d + n))
        complexes.ozone_dim(om, d)
        # [T_d | c] joins a column to the ozone table's terms
        complexes.derivation_kernel(om, d)
    complexes.sealed_k1_dims(om, n + 2)
    assert tables == snapshot
