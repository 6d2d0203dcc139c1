"""End-to-end acceptance checks over the bundled catalog.

Each test covers one acceptance criterion and reports a one-line verdict
through conftest.record, so the suite output ends with a readable
checklist.  Expected values come from the catalog data file and from the
closed-form Hilbert series; nothing here is tuned to make a test pass.
"""

from __future__ import annotations

import pytest

from wpoisson import (
    ExtensionField,
    Weights,
    from_potential,
    jacobiator,
    modular_derivation,
    parse_map,
    parse_poly,
    rgt,
    verify_automorphism,
)
from wpoisson import catalog, complexes, hilbert, jacobian, proptest, ring

from conftest import record
from closed_forms import closed_form_koszul_h1
from reference_maps import (derham_exactness_check, euler_characteristic_check, koszul2_rank,
                            koszul3_rank, negative_degree_pd_dims, reference_maps)


@pytest.fixture(scope="module")
def all_entries():
    return catalog.entries()


def test_ac1_rgt_and_gkdim_across_catalog(all_entries):
    """Every entry's rigidity index and GK-dimension match the recorded
    expectations, including the bound rows (rgt <= -1) and the rows where
    the dimension depends on a divisibility branch."""
    bad = []
    for e in all_entries:
        r = rgt(e.omega)
        g = jacobian.gkdim(e.omega)
        if not e.rgt_matches(r):
            bad.append(f"{e.entry_id}: rgt {r} != {e.describe_rgt()}")
        if not e.gk_matches(g):
            bad.append(f"{e.entry_id}: gk {g} != {e.describe_gk()}")
    record("AC1", "fail" if bad else "pass",
           f"rgt and GK-dimension exact on {len(all_entries)} catalog entries")
    assert not bad, bad


def test_ac2_jacobi_and_unimodularity(all_entries):
    bad = []
    for e in all_entries:
        s = from_potential(e.omega)
        if not jacobiator(s).is_zero():
            bad.append(f"{e.entry_id}: nonzero jacobiator")
        if not modular_derivation(s).is_zero():
            bad.append(f"{e.entry_id}: nonzero modular derivation")
    record("AC2", "fail" if bad else "pass",
           f"jacobiator and modular derivation vanish for {len(all_entries)} potentials")
    assert not bad, bad


AC3_ENTRIES = [
    ("1,1,1", "x^3+y^3+z^3+x*y*z"),
    ("1,1,2", "z^2+x^2*y^2+x^3*y"),
    ("1,1,2", "z^2+x^3*y"),
    ("1,2,3", "z^2+y^3+2*x^2*y^2+x^4*y"),
]


def test_ac3_cohomology_matches_closed_forms():
    """Dimension-by-dimension agreement between the computed cohomology
    table and all four closed-form series, from the bottom shift up to
    3n+12."""
    bad = []
    for wtext, otext in AC3_ENTRIES:
        a, b, c = (int(t) for t in wtext.split(","))
        w = Weights(a, b, c)
        om = parse_poly(otext, w)
        n = w.n_default
        bound = 3 * n + 12
        table = complexes.ph_dims(om, bound)
        for i in range(4):
            want = hilbert.closed_form_ph(w, i).expand(-n, bound)
            got = [table.dim(i, d) for d in range(-n, bound + 1)]
            if want != got:
                bad.append(f"{otext} PH^{i}: {got} != {want}")
    record("AC3", "fail" if bad else "pass",
           "cohomology tables equal closed-form expansions to 3n+12 for 4 entries")
    assert not bad, bad


def test_ac4_negative_control_z2_y3():
    """The distinguished counterexample has excess bivectors, an ozone
    discrepancy at exactly the same degrees, and a Poisson derivation of
    negative degree."""
    w = Weights(1, 2, 3)
    om = parse_poly("z^2+y^3", w)
    bound = 30
    vac = complexes.vacancy_check(om, bound)
    vac_degrees = sorted(d for d, v in vac.items() if v)
    expected_degrees = [-1, 1, 5, 7, 11, 13, 17, 19, 23, 25, 29]
    oz = complexes.ozone_vs_hamiltonian(om, bound)
    oz_degrees = sorted(d for d, (o, h) in oz.items() if o != h)
    neg = negative_degree_pd_dims(om)
    ok = (vac_degrees == expected_degrees
          and oz_degrees == expected_degrees
          and neg == {-3: 0, -2: 0, -1: 1})
    record("AC4", "pass" if ok else "fail",
           "excess bivectors and non-Hamiltonian derivations at degrees "
           + ",".join(str(d) for d in expected_degrees))
    assert vac_degrees == expected_degrees
    assert oz_degrees == expected_degrees
    assert neg == {-3: 0, -2: 0, -1: 1}


AC5_CASES = [
    ("1,1,1", "x^3+y^3+z^3+x*y*z", True),
    ("1,1,1", "x^3+y^3+z^3-3*x*y*z", False),
    ("1,1,2", "z^2+x*y^3+x^3*y", True),
    ("1,1,2", "z^2+x*y^3+2*x^2*y^2+x^3*y", False),
    ("1,1,2", "z^2+x*y^3-2*x^2*y^2+x^3*y", False),
    ("1,2,3", "z^2+y^3+x^4*y", True),
    ("1,2,3", "z^2+y^3+2*x^2*y^2+x^4*y", False),
]


def test_ac5_isolated_singularity_boundaries():
    bad = []
    for wtext, text, want in AC5_CASES:
        a, b, c = (int(t) for t in wtext.split(","))
        w = Weights(a, b, c)
        om = parse_poly(text, w)
        got = jacobian.has_isolated_singularity(om)
        if got != want:
            bad.append(f"{text}: {got} != {want}")
    record("AC5", "fail" if bad else "pass",
           "isolated-singularity booleans correct across all 3 parameter families")
    assert not bad, bad


def test_ac6_koszul_homology_xyz_x4_y4():
    """First Koszul homology of xyz+x^4+y^4 is one-dimensional exactly at
    the even degrees >= 6, matching the closed form in the regraded
    weights, H0 matches the explicit monomial basis, and the divergence-
    constrained cycles are all boundaries up to degree 40."""
    w = Weights(1, 1, 2)
    om = parse_poly("x*y*z+x^4+y^4", w)
    bound = 40
    table = complexes.koszul_dims(om, bound)
    closed = closed_form_koszul_h1(4, 4)
    # the regrading scales every original degree by 4
    h1_closed = closed.expand(0, 4 * bound)
    bad = []
    for d in range(bound + 1):
        want = h1_closed[4 * d]
        if table.dim(1, d) != want:
            bad.append(f"H1 degree {d}: {table.dim(1, d)} != {want}")
    # basis of the singular quotient: powers of z, plus x^j and y^j for
    # 1 <= j <= 3
    for d in range(bound + 1):
        want = (1 if d % 2 == 0 else 0) + 2 * (1 if 1 <= d <= 3 else 0)
        if table.dim(0, d) != want:
            bad.append(f"H0 degree {d}: {table.dim(0, d)} != {want}")
    dims, all_zero = complexes.sealed_k1_dims(om, bound)
    if not all_zero or any(dims.values()):
        bad.append(f"sealed dims not identically zero: {dims}")
    record("AC6", "fail" if bad else "pass",
           "Koszul H1 = closed form, H0 = explicit basis, sealed to degree 40")
    assert not bad, bad


def test_ac7_koszul_exactness_and_derham(all_entries):
    """H2 = H3 = 0 whenever the partials have trivial gcd, and the weighted
    de Rham complex is exact in the checked window.  koszul_dims derives
    rank K3 and, by the same Koszul depth argument, rank K2, so H2 and H3
    come from the ranks of test-local K2 and K3 matrices."""
    bad = []
    checked = 0
    for e in all_entries:
        one = ring.Polynomial.constant(e.weights, 1)
        if jacobian.gcd_partials(e.omega) != one:
            continue
        checked += 1
        maps = reference_maps(e.omega)
        for d in range(e.degree + 5):
            degs = complexes.koszul_component_degs(e.omega, d)
            dim_k2, dim_k3 = (sum(ring.count_monomials(e.weights, k) for k in degs[i])
                              for i in (2, 3))
            rank_k3 = koszul3_rank(e.omega, degs, maps)
            h3 = dim_k3 - rank_k3
            h2 = dim_k2 - koszul2_rank(e.omega, degs, maps) - rank_k3
            if h2 or h3:
                bad.append(f"{e.entry_id}: H2/H3 nonzero at degree {d}")
                break
    for trip in ((1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 3, 5)):
        if not derham_exactness_check(Weights(*trip), 25):
            bad.append(f"de Rham exactness failed for {trip}")
    record("AC7", "fail" if bad else "pass",
           f"Koszul H2=H3=0 on {checked} coprime-partial entries; de Rham exact to 25")
    assert not bad, bad


def test_ac8_euler_characteristic_identity(all_entries):
    bad = []
    for e in all_entries:
        if not euler_characteristic_check(e.omega, e.degree + 4):
            bad.append(e.entry_id)
    for wtext, otext in AC3_ENTRIES:
        a, b, c = (int(t) for t in wtext.split(","))
        w = Weights(a, b, c)
        om = parse_poly(otext, w)
        if not euler_characteristic_check(om, 3 * w.n_default + 12):
            bad.append(otext)
    record("AC8", "fail" if bad else "pass",
           f"alternating-sum identity holds for {len(all_entries)} entries "
           "(reducible included)")
    assert not bad, bad


def test_ac9_automorphism_checks():
    bad = []

    w112 = Weights(1, 1, 2)
    om_shear = parse_poly("z^2+x^3*y", w112)
    shear = parse_map("x->x; y->y-x^3-2*z; z->z+x^3", w112)
    if not verify_automorphism(om_shear, shear):
        bad.append("filtered shear map rejected")

    fcyc = ExtensionField([1, 1, 1])  # s^2+s+1 = 0, s a primitive cube root
    w111 = Weights(1, 1, 1)
    om1c = parse_poly("x^3+y^3+z^3+x*y*z", w111, field=fcyc)
    diag = parse_map("x->x; y->s*y; z->s^2*z", w111, field=fcyc)
    if not verify_automorphism(om1c, diag):
        bad.append("diagonal cube-root map rejected")

    fi = ExtensionField([1, 0, 1])  # s^2+1 = 0
    om_swap = parse_poly("x^4+y^4+z^2+x*y*z", w112, field=fi)
    swap = parse_map("x->s*y; y->-s*x; z->-z-x*y", w112, field=fi)
    if not verify_automorphism(om_swap, swap, swap, 1):
        bad.append("quotient swap map rejected")

    w123 = Weights(1, 2, 3)
    om3 = parse_poly("x^6+y^3+z^2+x*y*z", w123)
    scale = parse_map("x->2*x; y->4*y; z->8*z", w123)
    unscale = parse_map("x->(1/2)*x; y->(1/4)*y; z->(1/8)*z", w123)
    if verify_automorphism(om3, scale, unscale, 1):
        bad.append("non-unimodular scaling accepted")

    record("AC9", "fail" if bad else "pass",
           "3 genuine (quotient) automorphisms accepted, bad scaling rejected")
    assert not bad, bad


def test_ac10_property_suites():
    results = proptest.run_all_suites(seed=20240817, cases=100)
    bad = [name for name, cases, failures in results
           if cases < 100 or failures]
    detail = ", ".join(f"{name}:{cases}" for name, cases, failures in results)
    record("AC10", "fail" if bad else "pass",
           f"randomized suites green ({detail})")
    assert not bad, results
