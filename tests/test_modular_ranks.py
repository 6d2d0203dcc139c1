"""The rank reads over Q(s) eliminated mod p against the exact route.

Over K = Q[s]/(m), deg m <= 3, ``complexes`` eliminates the K-matrix of a
rank read mod p and keeps the rank only where the complex's own upper bound
certifies it; otherwise it eliminates the restricted matrix over Q, as it
does everywhere when ``linalg.reduction`` finds no prime value of m.
``work_counts.exact_route()``, where it finds none, therefore runs the
exact route alone, which the tests compare with the modular one table by
table.  Every count here comes from ``tests/work_counts.py``: (certified,
fallback, exact) eliminations of K-matrices.

``tests/data/golden_modular.json`` holds the tables of the dense Q(s) cubic
``work_counts.QS_CUBIC`` to D = 15 by the exact route, which takes about
half a minute there.  Regenerate, only on purpose and from a commit whose
numbers are trusted, with

    PYTHONPATH=src python tests/test_modular_ranks.py
"""

import json
import math
import random
from pathlib import Path

import pytest

from wpoisson import (ExtensionField, Polynomial, Weights, complexes, koszul_dims, linalg,
                      parse_poly, ph_dims, sealed_k1_dims, vacancy_check)
from wpoisson.hilbert import closed_form_ph
from wpoisson.ring import monomial_basis

from reference_maps import field_powers
from work_counts import (QS_CUBIC, cubic_eliminations, exact_route, extension_eliminations,
                         k_eliminations, spy)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_modular.json"

CUBE_ROOT = ExtensionField([1, 1, 1])  # s^2 + s + 1
GAUSS = ExtensionField([1, 0, 1])  # s^2 + 1
CUBE_ROOT_OF_TWO = ExtensionField([-2, 0, 0, 1])  # s^3 - 2
W111, W112, W123 = Weights(1, 1, 1), Weights(1, 1, 2), Weights(1, 2, 3)

# the potentials over Q(s) with an s-part that the other test files use,
# and one over s^2+s+2, whose values are all even, the non-isolated among
# them marked; on those some bound misses, so the fallback runs
TEST_POTENTIALS = [
    (W111, CUBE_ROOT, "x^3+y^3+z^3+s*x*y*z", True),
    (W111, CUBE_ROOT, "x^3+y^3+z^3+(s-5)*x*y*z", True),
    (W111, CUBE_ROOT, "x^3+y^3+z^3+(s+2)*x*y*z", True),
    (W111, CUBE_ROOT, "x^3+y^3+z^3+(1+2*s)*x*y*z", True),
    # the Hesse pencil's singular member at l = -3s, as l^3 = -27
    (W111, CUBE_ROOT, "x^3+y^3+z^3-3*s*x*y*z", False),
    (W111, CUBE_ROOT, "x^4+y^4+z^4+s*x^2*y*z", True),
    (Weights(1, 1, 5), CUBE_ROOT, "x^2+s*x*y+y^2", False),
    (W111, CUBE_ROOT, "(x^3+y^3+s*z^3)^2", False),
    (W111, CUBE_ROOT, "(x+s*y)^2*z", False),
    (W111, CUBE_ROOT, "x^2*(y+s*z)^2", False),
    (W123, GAUSS, "(1+2*s)*x^6+(2-s)*y^3-3*z^2+s*x*y*z", True),
    (W112, GAUSS, "x^4+y^4+z^2+(1-2*s)*x*y*z", True),
    (W112, GAUSS, "x^4+y^4+z^2+(-1-s)*x*y*z", True),
    (W111, ExtensionField([2, 1, 1]), "x^3+y^3+z^3+(1-s)*x*y*z", True),
]


# x^(n/a) + y^(n/b) + z^(n/c) on two weight triples of the seeded pool
FERMAT = {W111: [(3, 0, 0), (0, 3, 0), (0, 0, 3)], W123: [(6, 0, 0), (0, 3, 0), (0, 0, 2)]}


def _seeded_pool(seed=48):
    """potentials of degree a+b+c over each of the three fields: the Fermat
    potential plus two terms on each weight triple of FERMAT, mostly
    isolated, and three terms on (1,1,2) and (1,2,3), mostly not; each
    coefficient has random coordinates -2..2 on 1, s, .., and s is added to
    the last"""
    rng = random.Random(seed)
    out = []
    for field in (CUBE_ROOT, GAUSS, CUBE_ROOT_OF_TWO):
        for weights, fermat in [(w, True) for w in FERMAT] + [(W112, False), (W123, False)]:
            monomials = rng.sample(monomial_basis(weights, weights.n_default), 2 if fermat else 3)
            terms = {m: sum((rng.randint(-2, 2) * p for p in field_powers(field)), field.zero)
                     for m in monomials}
            for m in FERMAT[weights] if fermat else ():
                terms[m] = terms.get(m, field.zero) + 1
            terms[max(monomials)] += field.generator
            out.append(Polynomial(weights, field, {m: c for m, c in terms.items() if c}))
    return out


def _tables(omega, bound):
    """ph_dims, koszul_dims, sealed_k1_dims and, where n = a+b+c,
    vacancy_check to the bound, from an empty memo"""
    complexes.potential_memo.cache_clear()
    out = [ph_dims(omega, bound).dims, koszul_dims(omega, bound).dims,
           sealed_k1_dims(omega, bound)]
    if omega.homogeneous_degree() == omega.weights.n_default:
        out.append(vacancy_check(omega, bound))
    return out


def _agree(omega, default=True):
    """the tables of both routes at n+6 and, by default, 3n+12, and the
    (certified, fallback, exact) counts of the modular route.  Each read is
    eliminated once over K or certified, so the two routes make as many
    reads; a fallback's read is eliminated both ways"""
    n = omega.homogeneous_degree()
    counts = []
    for bound in (n + 6, complexes.default_bound(n))[:1 + default]:
        tables = []
        counts.append(k_eliminations(lambda: tables.append(_tables(omega, bound))))
        with exact_route():
            exact = k_eliminations(lambda: tables.append(_tables(omega, bound)))
        assert tables[0] == tables[1], bound
        assert exact[:2] == (0, 0) and counts[-1][0] + counts[-1][2] == exact[2], bound
    return counts


@pytest.mark.parametrize("weights, field, text, isolated",
                         [pytest.param(*p, id=p[2]) for p in TEST_POTENTIALS])
def test_both_routes_agree_on_the_test_potentials(weights, field, text, isolated):
    """every isolated potential here has its every rank read certified, and
    makes no exact elimination but, where n != a+b+c, those of [H | H' | c']
    with a Casimir column; on the others, (x+s*y)^2*z among them, one bound
    misses, the fallback runs once and every later read is exact"""
    omega = parse_poly(text, weights, field)
    for certified, fallback, exact in _agree(omega):
        assert certified + fallback > 0 and fallback == (not isolated)
        if isolated and omega.homogeneous_degree() == weights.n_default:
            assert exact == 0


@pytest.mark.parametrize("omega", [pytest.param(om, id="%s:%s" % (om.field, om))
                                   for om in _seeded_pool()])
def test_both_routes_agree_on_a_seeded_pool(omega):
    """over s^2+s+1, s^2+1 and s^3-2; a potential with no fallback makes no
    exact elimination"""
    for certified, fallback, exact in _agree(omega):
        assert certified + fallback > 0 and fallback <= 1 and (fallback or exact == 0)


def test_the_seeded_pool_reaches_both_outcomes():
    """some of the pool is certified throughout and some falls back"""
    outcomes = set()
    for omega in _seeded_pool():
        n = omega.homogeneous_degree()
        outcomes.add(k_eliminations(lambda: _tables(omega, n + 6))[1] > 0)
    assert outcomes == {True, False}


def _dense_rank_mod(rows, cols, p):
    """the rank mod p of dict rows over the columns in cols, by dense
    Gaussian elimination"""
    grid = [[row.get(c, 0) % p for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][c]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inverse = pow(grid[rank][c], -1, p)
        for r in range(len(grid)):
            if r != rank and grid[r][c]:
                f = grid[r][c] * inverse
                grid[r] = [(u - f * v) % p for u, v in zip(grid[r], grid[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [3, 7, 2 ** 31 - 1])
def test_the_pivots_mod_p_count_the_rank_of_every_column_cut(p):
    """the cut-count lemma over F_p: on seeded integer matrices, some with
    entries that are multiples of p, the pivots of ``pivot_columns`` in the
    columns >= j number the rank mod p of the columns >= j, for every j"""
    rng = random.Random(p)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [{c: rng.choice((-2, -1, 1, 2, p, 3 * p + 1)) for c in range(cols)
                    if rng.random() < 0.5} for _ in range(rows)]
        matrix = linalg.Matrix.restricted(rows, cols, [dict(r) for r in entries],
                                          linalg.Reduction(CUBE_ROOT, p, 0))
        pivots = linalg.pivot_columns(matrix)
        for j in range(cols + 1):
            assert sum(c >= j for c in pivots) == _dense_rank_mod(entries, range(j, cols), p)


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7 and 9 prime
# bases (psi_k of Sorenson and Webster)
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051]


def test_is_prime_matches_trial_division_and_refuses_strong_pseudoprimes():
    assert [n for n in range(10 ** 5) if linalg._is_prime(n)] == [
        n for n in range(10 ** 5) if _is_prime_by_trial_division(n)]
    assert not any(map(linalg._is_prime, STRONG_PSEUDOPRIMES))
    assert all(map(linalg._is_prime, [2 ** 31 - 1, 2 ** 61 - 1]))


# s^2-32800s+10^6 has a real root near 32769.5, where the search once
# started; s^2-20000s-20000 has values below 2^30 for 1000 values of r from
# twice the Cauchy bound 1 + max|m_i|
LARGE_MODULI = {"s^2-32800s+10^6": [10 ** 6, -32800, 1], "s^2-20000s-20000": [-20000, -20000, 1]}


@pytest.mark.parametrize("modulus", [[1, 1, 1], [1, 0, 1], [-2, 0, 0, 1], [5, -3, 1],
                                     [1, -1, 0, 1], [2, 0, 1], [-1, -3, 0, 1],
                                     [2, 1, 1], [3, -1, 0, 1], [1, 10 ** 6, 1],
                                     *LARGE_MODULI.values()])
def test_the_prime_value_has_r_as_a_root(modulus):
    """p = |m(r)|/f is prime, by trial division, and at least 2^30, and r is
    a root of m mod p, s^2+s+2 and s^3-s+3 among the moduli, whose values
    have the fixed divisors 2 and 3, and the large moduli, whose search starts
    past every real root"""
    image = linalg.reduction(ExtensionField(modulus), 1)
    assert _is_prime_by_trial_division(image.p) and image.p >= 2 ** 30
    assert sum(c * image.r ** i for i, c in enumerate(modulus)) % image.p == 0


# the first (r, p) of s^2+s+1, s^2+1, s^3-2, s^2+s+2 and s^3-s+3: the start
# past every real root leaves each where the search from ceil((2^30 f)^(1/k))
# alone found it
FIRST_PRIME_VALUES = {(1, 1, 1): (32774, 1074167851), (1, 0, 1): (32774, 1074135077),
                      (-2, 0, 0, 1): (1029, 1089547387), (2, 1, 1): (46344, 1073906341),
                      (3, -1, 0, 1): (1517, 1163684633)}


def test_the_first_prime_values_of_the_test_fields(monkeypatch):
    monkeypatch.setattr(linalg, "_FIRST", {})
    for modulus, (r, p) in FIRST_PRIME_VALUES.items():
        image = linalg.reduction(ExtensionField(modulus), 1)
        assert (image.r, image.p) == (r, p), modulus
        assert linalg._FIRST[ExtensionField(modulus).modulus] == (r, p)


@pytest.mark.parametrize("modulus", LARGE_MODULI.values(), ids=LARGE_MODULI.keys())
def test_both_routes_agree_over_a_modulus_with_large_coefficients(modulus):
    """the modular route runs, and certifies every rank, over a field whose
    search from ceil((2^30 f)^(1/k)) alone found no prime value"""
    field = ExtensionField(modulus)
    omega = parse_poly("x^3+y^3+z^3+s*x*y*z", W111, field)
    assert _reduction(omega) == linalg.reduction(field, 1) is not None
    assert _agree(omega, default=False) == [(30, 0, 0)]


def _reduction(omega):
    complexes.potential_memo.cache_clear()
    return complexes.potential_memo(omega).reduction


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    """the first prime value p0 of s^2+s+1 divides the denominator of
    s/p0, so the search goes on, uncached, to a prime value that certifies
    every rank; the potential is built, not parsed, as the parser refuses
    integers past 10^6"""
    monkeypatch.setattr(linalg, "_FIRST", {})
    first = linalg.reduction(CUBE_ROOT, 1)
    terms = parse_poly("x^3+y^3+z^3", W111, CUBE_ROOT).terms
    omega = Polynomial(W111, CUBE_ROOT, {**terms, (1, 1, 1): CUBE_ROOT.generator / first.p})
    image = _reduction(omega)
    assert image.r > first.r and (image.r ** 2 + image.r + 1) % image.p == 0
    assert linalg._FIRST == {CUBE_ROOT.modulus: (first.r, first.p)}
    assert _agree(omega, default=False) == [(30, 0, 0)]


def test_with_no_prime_value_every_rank_is_exact(monkeypatch):
    """s^4+4 = (s^2+2s+2)(s^2-2s+2) has no prime value past 5, so the search
    ends after SEARCH values with none; with no value searched, s^2+1 has
    none either, and every rank is eliminated exactly"""
    monkeypatch.setattr(linalg, "_FIRST", {})
    assert linalg.reduction(ExtensionField([4, 0, 0, 0, 1]), 1) is None
    monkeypatch.setattr(linalg, "SEARCH", 0)
    omega = parse_poly("x^4+y^4+z^2+(1-2*s)*x*y*z", W112, GAUSS)
    assert _reduction(omega) is None
    assert k_eliminations(lambda: _tables(omega, 10)) == (0, 0, 34)


def test_a_coefficient_that_vanishes_mod_p_falls_back_to_the_exact_rank():
    """7 z^3 vanishes mod 7, leaving x^3+y^3+2 x y z, singular along the z
    axis at s -> 2, a root of s^2+s+1 mod 7, so ranks drop mod 7; the first
    read whose bound misses is eliminated again over Q(s), and every later
    read over Q(s) alone, and the tables are those of the exact route and of
    the isolated closed forms"""
    unlucky = linalg.Reduction(CUBE_ROOT, 7, 2)
    omega = parse_poly("x^3+y^3+7*z^3+s*x*y*z", W111, CUBE_ROOT)
    with spy(linalg, "reduction", lambda real: lambda field, denominator: unlucky):
        assert _reduction(omega) == unlucky
        assert _agree(omega, default=False) == [(6, 1, 24)]
        table = ph_dims(omega, 9)
    for i in range(4):
        assert ([table.dim(i, d) for d in range(-3, 10)]
                == closed_form_ph(W111, i, 3).expand(-3, 9)), i


def test_a_miss_while_a_read_reads_its_bounds_leaves_that_read_exact():
    """(x+s*y)^2*z is not isolated: a cold rank K1 at total degree 5 first
    reads its bound, dim K1 - rank K2, and that K2 read misses, so it is
    eliminated mod p and over Q(s), and the K1 read makes no elimination
    mod p at all.  The rank is that of the exact route"""
    omega = parse_poly("(x+s*y)^2*z", W111, CUBE_ROOT)

    def read():
        complexes.potential_memo.cache_clear()
        return complexes.potential_memo(omega).koszul_rank(1, 5)

    ranks = []
    assert k_eliminations(lambda: ranks.append(read())) == (0, 1, 2)
    with exact_route():
        assert k_eliminations(lambda: ranks.append(read())) == (0, 0, 1)
    assert ranks == [14, 14]


def test_deg_4_moduli_stay_exact():
    """irreducibility is decided up to degree 3 only, so a modulus of degree
    4 is eliminated exactly, where a zero divisor is refused"""
    omega = parse_poly("x^3+y^3+z^3+s*x*y*z", W111, ExtensionField([2, 0, 0, 0, 1]))
    assert _reduction(omega) is None
    assert k_eliminations(lambda: _tables(omega, 5))[:2] == (0, 0)


# (certified, fallback, exact) eliminations of K-matrices, printed by
# ``tests/work_counts.py``: over the seed-1 extension jobs, whose 32 exact
# ones are the derivation bases of the non-rational members, and of the
# dense Q(s) cubic's ph_dims and sealed_k1_dims at D = 21
EXTENSION_ELIMINATIONS = (132, 0, 32)
CUBIC_ELIMINATIONS = (46, 0, 0)


def test_the_extension_jobs_certify_every_rank_read():
    assert extension_eliminations(1) == EXTENSION_ELIMINATIONS


def test_the_dense_qs_cubic_at_21_makes_no_exact_elimination():
    """134 s + 88 s on the exact route; about 2 s mod p"""
    assert cubic_eliminations(21) == CUBIC_ELIMINATIONS


def _cubic_tables(bound):
    omega = parse_poly(QS_CUBIC, W111, CUBE_ROOT)
    ph, koszul, (sealed, _), vacancy = _tables(omega, bound)
    return {"ph": sorted([i, d, v] for (i, d), v in ph.items()),
            "koszul": sorted([i, d, v] for (i, d), v in koszul.items()),
            "sealed": sorted(map(list, sealed.items())),
            "vacancy": sorted(map(list, vacancy.items()))}


def test_the_dense_qs_cubic_at_15_gives_the_exact_tables():
    """the modular route's tables against those the exact route wrote, and
    the PH tables against the closed forms of an isolated potential"""
    assert _cubic_tables(15) == json.loads(GOLDEN.read_text())
    table = ph_dims(parse_poly(QS_CUBIC, W111, CUBE_ROOT), 15)
    for i in range(4):
        assert ([table.dim(i, d) for d in range(-3, 16)]
                == closed_form_ph(W111, i, 3).expand(-3, 15)), i


if __name__ == "__main__":
    with exact_route():
        GOLDEN.write_text(json.dumps(_cubic_tables(15), sort_keys=True) + "\n")
    print("wrote", GOLDEN)
