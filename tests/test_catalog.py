"""Catalog data file: loading, filtering, and per-entry verification."""

import dataclasses
import math
import random

import pytest

from wpoisson import QQ, Weights, catalog, complexes, monomial_basis
from wpoisson.jacobian import gkdim
from wpoisson.ring import Polynomial


def test_catalog_loads_and_is_well_formed():
    es = catalog.entries()
    assert len(es) == 125
    ids = [e.entry_id for e in es]
    assert len(set(ids)) == len(ids)
    for e in es:
        assert e.omega.is_homogeneous()
        assert e.omega.degree() == e.degree == e.weights.n_default


def test_type_distribution():
    es = catalog.entries()
    counts = {}
    for e in es:
        counts[e.type_label] = counts.get(e.type_label, 0) + 1
    assert counts == {"r": 84, "q": 16, "bw": 13, "i": 9, "nw": 3}
    assert sum(1 for e in es if e.irreducible) == 41


def test_isolated_entries_are_the_i_type():
    for e in catalog.entries():
        assert e.expected_isolated == (e.type_label == "i")


def _support(a, b, c):
    """the exponents (i, j, k) of weighted degree a+b+c"""
    n = a + b + c
    return [((n - b * j - c * k) // a, j, k) for k in range(n // c + 1)
            for j in range((n - c * k) // b + 1) if (n - b * j - c * k) % a == 0]


def _isolated_candidates(top):
    """(on the axes, kept): the reduced weights a <= b <= c <= top whose
    support of degree a+b+c holds x_i^k or x_i^k x_j for each variable x_i,
    else O and grad O vanish on the x_i axis; and of those, the ones where
    no variable divides every monomial, else O = x_i F is singular along the
    curve x_i = F = 0"""
    axes, kept = [], []
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            for c in range(b, top + 1):
                if math.gcd(a, b, c) != 1:
                    continue
                support = _support(a, b, c)
                if not all(any(m[i] and sum(m) - m[i] <= 1 for m in support) for i in range(3)):
                    continue
                axes.append((a, b, c))
                if not any(all(m[i] for m in support) for i in range(3)):
                    kept.append((a, b, c))
    return axes, kept


def test_isolated_potentials_of_degree_a_b_c_live_on_three_weight_triples():
    """the classification from outside the catalog: only the weights of the
    simple elliptic singularities E6~, E7~ and E8~ (K. Saito, Invent. Math.
    23, 1974) carry an isolated potential of degree a+b+c.  Isolatedness is
    Zariski-open, so one seeded member with gkdim 0 certifies a triple."""
    triples = [(1, 1, 1), (1, 1, 2), (1, 2, 3)]
    axes, kept = _isolated_candidates(30)
    # the axis condition alone keeps 43 more, such as (1, b, b) for b >= 2
    assert len(axes) == 46 and (1, 5, 5) in axes and (2, 5, 5) in axes
    assert kept == triples
    assert _isolated_candidates(60)[1] == triples
    rng = random.Random(6)
    for t in triples:
        w = Weights(*t)
        support = monomial_basis(w, sum(t))
        assert sorted(support) == sorted(_support(*t))
        assert gkdim(Polynomial(w, QQ, {m: rng.randint(1, 9) for m in support})) == 0, t
    # x divides every monomial of degree 5 on (1,2,2), and of degree 7 on (1,3,3)
    for t in ((1, 2, 2), (1, 3, 3)):
        w = Weights(*t)
        seeded = Polynomial(w, QQ, {m: rng.randint(1, 9) for m in monomial_basis(w, sum(t))})
        assert t in axes and t not in kept and gkdim(seeded) == 1, t
    for e in catalog.entries():
        if e.expected_isolated:
            assert e.weights.tuple in triples, e.entry_id
        if e.type_label == "i":
            assert gkdim(e.omega) == 0, e.entry_id


def test_rigid_iff_irreducible_on_exact_rows():
    for e in catalog.entries():
        if e.rgt_is_bound:
            assert not e.irreducible
            continue
        assert (e.rgt == 0) == e.irreducible, e.entry_id


def test_no_witness_entries():
    """Entries promising a failure carry the degree where it shows up."""
    for e in catalog.entries():
        if e.expected_vacant == "no":
            assert e.vacancy_witness is not None
        if e.expected_sealed == "no":
            assert e.sealed_witness is not None


def test_negative_classes():
    nw = [e.entry_id for e in catalog.entries() if e.type_label == "nw"]
    assert nw == ["123-i-a", "abc-i-b1", "abc-i-f1"]
    for e in catalog.entries():
        if e.type_label in ("nw", "r"):
            assert e.expected_vacant == "no"
            assert e.expected_sealed == "no"


def test_filters():
    assert len(catalog.entries("table:112")) == 24
    assert len(catalog.entries("table:111")) == 12
    assert len(catalog.entries("table:123")) == 30
    assert len(catalog.entries("table:abc")) == 39
    assert len(catalog.entries("weights:1,2,3")) == 30
    assert len(catalog.entries("type:i")) == 9
    only = catalog.entries("111-i-a")
    assert len(only) == 1 and only[0].entry_id == "111-i-a"


def test_filter_errors():
    with pytest.raises(catalog.CatalogError):
        catalog.entries("table:zzz")
    with pytest.raises(catalog.CatalogError):
        catalog.entries("weights:1,2")
    with pytest.raises(catalog.CatalogError):
        catalog.entries("no-such-entry")


def _without(predicate):
    return [e for e in catalog.entries() if not predicate(e)]


@pytest.mark.parametrize("edited, message", [
    (lambda: _without(lambda e: e.entry_id == "112-i-b"),
     r"^expected 16 parameter-free \(1,1,2\) entries, got 15$"),
    (lambda: _without(lambda e: e.type_label == "i" and e.table == "112"),
     r"^expected exactly 3 isolated families, got \{'[^']*', '[^']*'\}$"),
    (lambda: [dataclasses.replace(e, family=None) if e.entry_id == "111-i-c5" else e
              for e in catalog.entries()],
     r"^expected exactly 3 isolated families, got \{.*None.*\}$"),
    (lambda: _without(lambda e: e.entry_id == "111-i-a"), r"^spot check failed for 111-i-a$"),
    (lambda: [dataclasses.replace(e, type_label="q") if e.entry_id == "123-i-a" else e
              for e in catalog.entries()], r"^spot check failed for 123-i-a$"),
], ids=["free-112", "two-families", "no-family", "spot-missing", "spot-type"])
def test_the_whole_catalog_facts_refuse_an_edited_catalog(edited, message):
    catalog._sanity(catalog.entries())
    with pytest.raises(catalog.CatalogError, match=message):
        catalog._sanity(edited())


def test_range_rows_describe_bounds():
    es = [e for e in catalog.entries() if e.rgt_is_bound]
    assert es, "expected at least one bound row"
    for e in es:
        assert e.describe_rgt() == "<=-1"
        assert e.describe_gk() == "1or2"
        assert e.rgt_matches(-1) and e.rgt_matches(-5)
        assert not e.rgt_matches(0)
        assert e.gk_matches(1) and e.gk_matches(2)
        assert not e.gk_matches(0)


def test_verify_entry_full_checks_on_negative_class():
    e = catalog.entries("123-i-a")[0]
    rows = catalog.verify_entry(
        e, max_degree=8,
        checks=("structure", "rgt", "gk", "isolated", "vacancy", "sealed"))
    assert [list(row) for row in rows] == [["check", "status", "expected", "computed"]] * 7
    statuses = {row["check"]: row["status"] for row in rows}
    assert statuses == {"jacobiator": "pass", "modular": "pass",
                        "rgt": "pass", "gkdim": "pass", "isolated": "pass",
                        "vacancy": "pass", "sealed": "pass"}


def test_verify_entry_unknown_sealedness_reports_info():
    e = catalog.entries("111-i-a")[0]
    assert e.expected_sealed == "unknown"
    rows = catalog.verify_entry(e, max_degree=6, checks=("sealed",))
    assert [row["status"] for row in rows] == ["info"]


def test_verify_entry_cohomology_compares_closed_forms():
    e = catalog.entries("111-i-c1")[0]
    rows = catalog.verify_entry(e, max_degree=9, checks=("cohomology",))
    assert [(row["check"], row["status"]) for row in rows] == [("cohomology", "pass")]


def test_verify_all_small_selector():
    reports = catalog.verify_all(max_degree=6, selector="weights:1,1,1",
                                 checks=("structure", "rgt", "gk"))
    assert len(reports) == 12
    for e, rows in reports:
        assert e.weights.tuple == (1, 1, 1)
        # the structure rows of every entry pass, as do its rgt and gk
        assert [(row["check"], row["status"]) for row in rows] == [
            ("jacobiator", "pass"), ("modular", "pass"), ("rgt", "pass"), ("gkdim", "pass")]


def _swept_item(name, verdict, dims, bound):
    """the vacancy or sealedness item built from the whole table to the
    bound: the oracle for the sweep that stops at the last printed degree"""
    nonzero = sorted(d for d, v in dims.items() if v)
    computed = "nonzero at %s" % nonzero[:6] if nonzero else "all zero to %d" % bound
    if verdict == "unknown":
        return (name, "info", verdict, computed)
    return (name, "pass" if bool(nonzero) == (verdict == "no") else "fail", verdict, computed)


def test_yes_no_items_equal_the_items_of_the_whole_tables():
    """on every entry at n+6, the vacancy and sealed rows of verify_entry,
    whose sweeps stop at their sixth nonzero degree, equal those built from
    the tables swept to the bound (to the witness, past it); and each sweep,
    read whole, gives its table in rising degree"""
    for e in catalog.entries():
        D = e.degree + 6
        got = [tuple(row.values()) for row in
               catalog.verify_entry(e, D, checks=("vacancy", "sealed"))]
        want = []
        for name, verdict, witness, table_of, sweep in (
                ("vacancy", e.expected_vacant, e.vacancy_witness, complexes.vacancy_check,
                 complexes.vacancy_degrees),
                ("sealed", e.expected_sealed, e.sealed_witness,
                 lambda om, bound: complexes.sealed_k1_dims(om, bound)[0],
                 complexes.sealed_degrees)):
            bound = max(D, witness) if verdict == "no" else D
            table = table_of(e.omega, bound)
            want.append(_swept_item(name, verdict, table, bound))
            degrees = list(sweep(e.omega, bound))
            assert [d for d, _ in degrees] == sorted(table), e.entry_id
            assert dict(degrees) == table, e.entry_id
        assert got == want, e.entry_id
