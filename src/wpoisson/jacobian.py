"""Jacobian ideal machinery: Groebner bases under the fixed weighted order,
normal forms, Hilbert data of the singular quotient, GK-dimension, isolated
singularity detection, and the gcd of the partials: its degree is the
multiplicity -N'(1) of the cached Hilbert numerator N, and the gcd itself
comes from the kernel of the Koszul map K2 at the one degree that fixes, by
the exact linear algebra of any supported field.

Every Groebner basis is proved before it is returned, by Buchberger's
criterion over the critical pairs only: a pair is skipped when its heads are
coprime (product criterion) or when a third head divides the lcm of the two
strictly, with lcm(h_i, h_k) and lcm(h_k, h_j) both differing from it (chain
criterion).  The remaining S-polynomials, built from the stored (head,
coefficient, tail) divisors, must all reduce to zero.  The Hilbert numerator
of the singular quotient is computed once per potential and cached beside
its basis."""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations

from .complexes import _koszul_matrix, assemble, koszul_component_degs, op_table, vector_to_polys
from .hilbert import HilbertSeries, _laurent_sub, _product_one_minus
from .linalg import kernel_basis
from .ring import (
    Polynomial,
    RingError,
    check_potential,
    gradient,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
    monomial_basis,
)


def _divisor(g):
    """(head, head coefficient, tail terms) of a nonzero polynomial"""
    h = g.leading_monomial()
    return h, g.terms[h], [(m, c) for m, c in g.terms.items() if m != h]


class GroebnerBasis:
    """Reduced Groebner basis under the weighted-degree grevlex order.

    Elements are monic, no head divides another head, tails fully reduced.
    Construct through buchberger()."""

    __slots__ = ("polys", "weights", "field", "_divisors")

    def __init__(self, polys, weights, field):
        self.polys = tuple(polys)
        self.weights = weights
        self.field = field
        self._divisors = [_divisor(p) for p in self.polys]

    def heads(self):
        return tuple(h for h, _, _ in self._divisors)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "GroebnerBasis(%s)" % (list(self.polys),)


def _reduce(weights, field, terms, divisors):
    """Full division of the polynomial with these terms by divisors in one
    pass over a working dict: pop the largest term, reduce it by the first
    divisor whose head divides it, or else move it to the remainder.  A
    reduction only adds terms below the popped one, so this is the reduction
    sequence of restarting from the top after every step."""
    is_zero = field.is_zero
    work = dict(terms)
    # min-heap on the negated order key (degree, -z, -y, -x): largest first
    heap = [(-weights.mono_degree(m), m[2], m[1], m[0]) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        _, e2, e1, e0 = heapq.heappop(heap)
        m = (e0, e1, e2)
        coef = work.pop(m, None)
        if coef is None:
            continue  # cancelled after it was queued
        for h, lc, tail in divisors:
            if h[0] <= e0 and h[1] <= e1 and h[2] <= e2:
                factor = coef / lc
                q0, q1, q2 = e0 - h[0], e1 - h[1], e2 - h[2]
                for (t0, t1, t2), c in tail:
                    t = (t0 + q0, t1 + q1, t2 + q2)
                    old = work.get(t)
                    if old is None:
                        work[t] = -(c * factor)
                        heapq.heappush(heap, (-weights.mono_degree(t), t[2], t[1], t[0]))
                        continue
                    s = old - c * factor
                    if is_zero(s):
                        del work[t]
                    else:
                        work[t] = s
                break
        else:
            rem[m] = coef
    return Polynomial(weights, field, rem)


def normal_form(f, basis):
    """remainder of full division of f by the basis, each term reduced by the
    first element whose head divides it; zero iff f lies in the ideal when the
    basis is a Groebner basis"""
    if isinstance(basis, GroebnerBasis):
        polys, divisors = basis.polys, basis._divisors
    else:
        polys = [g for g in basis if g.terms]
        divisors = [_divisor(g) for g in polys]
    for g in polys:
        f._check_compatible(g)  # reduction mixes their coefficients
    return _reduce(f.weights, f.field, f.terms, divisors)


def _s_terms(field, di, dj):
    """terms of the S-polynomial of two divisors (head, lc, tail) with
    lcm(h_i, h_j) = L: the heads of (L/h_i) f_i/lc_i and (L/h_j) f_j/lc_j
    cancel by construction, so only the two shifted tails are built"""
    (hi, ci, ti), (hj, cj, tj) = di, dj
    l0, l1, l2 = max(hi[0], hj[0]), max(hi[1], hj[1]), max(hi[2], hj[2])
    q0, q1, q2 = l0 - hi[0], l1 - hi[1], l2 - hi[2]
    out = {(t0 + q0, t1 + q1, t2 + q2): c / ci for (t0, t1, t2), c in ti}
    q0, q1, q2 = l0 - hj[0], l1 - hj[1], l2 - hj[2]
    for (t0, t1, t2), c in tj:
        t = (t0 + q0, t1 + q1, t2 + q2)
        old = out.get(t)
        if old is None:
            out[t] = -(c / cj)
            continue
        s = old - c / cj
        if field.is_zero(s):
            del out[t]
        else:
            out[t] = s
    return out


def _critical_pairs(heads):
    """index pairs (i, j), i < j, whose S-polynomials must reduce to zero for
    a set with these heads to be a Groebner basis.  A pair is dropped when
    its heads are coprime (product criterion), or when some third head h_k
    divides L = lcm(h_i, h_j) with lcm(h_i, h_k) != L != lcm(h_k, h_j)
    (chain criterion).  The chain is strict, so (i, k) and (k, j) have lcms
    properly dividing L, and induction on L under divisibility shows that
    dropping every such pair at once keeps the check a proof."""
    n = len(heads)
    lcms = [[mono_lcm(hi, hj) for hj in heads] for hi in heads]
    pairs = []
    for i, j in combinations(range(n), 2):
        lcm = lcms[i][j]
        if lcm == mono_mul(heads[i], heads[j]):
            continue
        if any(
            k != i and k != j and mono_divides(heads[k], lcm)
            and lcms[i][k] != lcm and lcms[k][j] != lcm
            for k in range(n)
        ):
            continue
        pairs.append((i, j))
    return pairs


def _s_pairs_reduce_to_zero(weights, field, divisors):
    """Buchberger's criterion over the critical pairs only: true iff the
    polynomials behind these divisors form a Groebner basis"""
    return not any(
        _reduce(weights, field, _s_terms(field, divisors[i], divisors[j]), divisors).terms
        for i, j in _critical_pairs([h for h, _, _ in divisors])
    )


def buchberger(gens):
    """reduced Groebner basis from a nonempty generator list, with the
    Gebauer-Moeller pair criteria and the normal selection strategy.

    The result is proved, not sampled: every critical pair of the reduced
    basis, the pairs that neither the product criterion (coprime heads) nor
    the strict chain criterion drops (Buchberger, EUROSAM 1979;
    Becker-Weispfenning, Groebner Bases, 1993, 5.5), must reduce to zero,
    or RingError is raised."""
    gens = [g for g in gens if g.terms]
    if not gens:
        raise RingError("ideal needs at least one nonzero generator")
    for g in gens[1:]:
        gens[0]._check_compatible(g)
    weights = gens[0].weights
    field = gens[0].field
    basis = []
    divisors = []
    for g in gens:
        r = _reduce(weights, field, g.terms, divisors)
        if r.terms:
            basis.append(r.monic())
            divisors.append(_divisor(basis[-1]))
    heads = [h for h, _, _ in divisors]

    pairs = {}  # live pairs (i, j), i < j -> lcm of the heads
    queue = []  # (lcm degree, i, j); pairs dropped by the B criterion go stale
    active = []  # indices whose head no later head divides

    def update(k):
        hk = heads[k]
        # M and F criteria on the new pairs; coprime pairs stay as witnesses
        # until the product criterion drops them
        cand = [(t, mono_lcm(heads[t], hk)) for t in active]
        kept = []
        for pos, (t, lcm) in enumerate(cand):
            coprime = lcm == mono_mul(heads[t], hk)
            if coprime or not (
                any(mono_divides(l2, lcm) for _, l2 in cand[pos + 1 :])
                or any(mono_divides(l2, lcm) for _, l2, _ in kept)
            ):
                kept.append((t, lcm, coprime))
        # B criterion on the old pairs
        for (i, j), lcm in list(pairs.items()):
            if (
                mono_divides(hk, lcm)
                and mono_lcm(heads[i], hk) != lcm
                and mono_lcm(heads[j], hk) != lcm
            ):
                del pairs[(i, j)]
        for t, lcm, coprime in kept:
            if not coprime:
                pairs[(t, k)] = lcm
                heapq.heappush(queue, (weights.mono_degree(lcm), t, k))
        active[:] = [t for t in active if not mono_divides(hk, heads[t])] + [k]

    for k in range(len(basis)):
        update(k)
    while queue:
        # normal strategy: smallest lcm degree first, then index order
        _, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(weights, field, _s_terms(field, divisors[i], divisors[j]),
                    [divisors[t] for t in active])
        if r.terms:
            basis.append(r.monic())
            divisors.append(_divisor(basis[-1]))
            heads.append(divisors[-1][0])
            update(len(basis) - 1)

    # inter-reduce: drop redundant heads, then reduce each tail by the other
    # kept divisors.  The kept heads divide none of each other, so every
    # element keeps its head and the list stays sorted.
    keep = []
    for i in sorted(range(len(basis)), key=lambda i: mono_key(weights, heads[i])):
        if not any(mono_divides(heads[t], heads[i]) for t in keep):
            keep.append(i)
    kept = [divisors[i] for i in keep]
    reduced = [
        _reduce(weights, field, basis[i].terms, kept[:pos] + kept[pos + 1 :]).monic()
        for pos, i in enumerate(keep)
    ]
    gb = GroebnerBasis(reduced, weights, field)
    if not _s_pairs_reduce_to_zero(weights, field, gb._divisors):
        raise RingError("Groebner construction failed the S-pair criterion")
    return gb


@lru_cache(maxsize=256)
def jacobian_basis(omega):
    """cached Groebner basis of the ideal of partial derivatives"""
    grads = [g for g in gradient(omega).comps if g.terms]
    if not grads:
        raise RingError("all partial derivatives vanish")
    return buchberger(grads)


@lru_cache(maxsize=256)
def _jacobian_numerator(omega):
    """cached Hilbert numerator of the singular quotient, as an immutable
    tuple of (degree, coefficient) items"""
    heads = jacobian_basis(omega).heads()
    return tuple(_initial_ideal_series(omega.weights, heads).numerator.items())


def _hilbert_numerator(weights, gens):
    """Laurent numerator {degree: coefficient} of A modulo a monomial ideal"""
    minimal = []
    for m in sorted(set(gens), key=lambda m: mono_key(weights, m)):
        if not any(mono_divides(p, m) for p in minimal):
            minimal.append(m)
    mixed = [m for m in minimal if (m[0] > 0) + (m[1] > 0) + (m[2] > 0) > 1]
    if not mixed:
        return _product_one_minus(weights.mono_degree(m) for m in minimal)
    counts = [sum(1 for m in mixed if m[v]) for v in range(3)]
    v = counts.index(max(counts))
    exps = sorted(m[v] for m in mixed if m[v])
    e = exps[len(exps) // 2]
    # any pure power of x_v in the ideal exceeds every mixed exponent of x_v,
    # so p is not in the ideal and both branches are strictly larger ideals
    p = tuple(e if i == v else 0 for i in range(3))
    num = _hilbert_numerator(weights, minimal + [p])
    colon = _hilbert_numerator(weights, [tuple(max(m[i] - p[i], 0) for i in range(3))
                                         for m in minimal])
    shift = weights.mono_degree(p)
    return _laurent_sub(num, {d + shift: -c for d, c in colon.items()})


def _initial_ideal_series(weights, heads):
    """Hilbert series of A modulo a monomial ideal, by Bigatti's pivot
    recursion on the numerator: HN(I) = HN(I + (p)) + t^deg(p) HN(I : p).
    Each step minimalises the generators.  When none involves two variables
    they are pure powers and HN(I) is the product of (1 - t^deg m).
    Otherwise the pivot is p = x_v^e, with v the variable in the most mixed
    generators and e the median exponent of x_v among them.  The number of
    generators is unlimited."""
    return HilbertSeries(_hilbert_numerator(weights, heads), weights.tuple)


def standard_monomials(weights, heads, d):
    """monomials of degree d outside the monomial ideal generated by heads"""
    return [m for m in monomial_basis(weights, d) if not any(mono_divides(h, m) for h in heads)]


def a_sing_hilbert(omega, bound):
    """Hilbert data of the singular quotient A/(partials of omega):
    ({d: dim for 0 <= d <= bound}, exact rational series)"""
    check_potential(omega)
    # a fresh series per call: its numerator is a mutable dict
    series = HilbertSeries(dict(_jacobian_numerator(omega)), omega.weights.tuple)
    return dict(enumerate(series.expand(0, bound))) if bound >= 0 else {}, series


def gkdim(omega):
    """GK-dimension of the singular quotient A/J, in {0,1,2,3}: dim A/J =
    dim A/in(J), the size of the largest set S of variables with no head of
    the Groebner basis of J a monomial in S alone (Cox, Little, O'Shea,
    Ideals, Varieties, and Algorithms, ch. 9)"""
    check_potential(omega)
    heads = jacobian_basis(omega).heads()
    free = [S for k in range(4) for S in combinations(range(3), k)
            if not any(all(h[v] == 0 for v in range(3) if v not in S) for h in heads)]
    return max(map(len, free), default=0)


def has_isolated_singularity(omega):
    """true iff the singular quotient is finite dimensional"""
    return gkdim(omega) == 0


def _one_kernel_vector(weights, field, degs, matrix):
    """the polynomials of the one kernel vector of a graded map, or RingError"""
    kernel = kernel_basis(matrix)
    if len(kernel) != 1:
        raise RingError("the Hilbert numerator disagrees with the Koszul kernel on deg gcd")
    return vector_to_polys(weights, field, degs, kernel[0])


def gcd_partials(omega):
    """gcd h of the nonzero partial derivatives g, monic-normalized, over any
    coefficient field, with its degree read off the cached Hilbert numerator
    N of A/J, J = (g): deg h = -N'(1).

    Proof.  With g' = g/h and J' = (g'), multiplication by h gives the exact
    sequence 0 -> (A/J')(-deg h) -> A/J -> A/(h) -> 0, as A is a domain.
    So N = (1 - t^deg h) + t^deg h M, M the numerator of A/J'.  The
    entries of g' have gcd 1, so no principal prime, and hence no height-one
    prime, holds J': dim A/J' <= 1, the pole order of M / prod(1 - t^w_i)
    at t = 1, so M vanishes to order >= 2 there.  Hence -N'(1) = deg h
    (Bruns-Herzog, Cohen-Macaulay Rings, 4.1).

    With delta = deg h > 0, the Koszul map K2 -> K1, v -> v x g, has kernel
    A g' (module docstring of ``complexes``), first met at total degree
    d0 = 3n - (a+b+c) - delta, where it is the line through g'.  Its
    vector there is u = c g' for a scalar c, so with g_i the first nonzero
    partial the map (h', t) -> u_i h' - t g_i from degrees (delta, 0) to
    deg g_i has the one-dimensional kernel spanned by (h, c); ``monic``
    fixes the scale.  A kernel of any other dimension raises RingError."""
    check_potential(omega)
    weights, field = omega.weights, omega.field
    delta = -sum(d * c for d, c in _jacobian_numerator(omega))
    if not delta:
        return Polynomial.constant(weights, field.one, field)
    d0 = 3 * omega.homogeneous_degree() - weights.n_default - delta
    u = _one_kernel_vector(weights, field, koszul_component_degs(omega, d0)[2],
                           _koszul_matrix(omega, 2, d0))
    i, g = next((i, g) for i, g in enumerate(gradient(omega).comps) if g.terms)
    table = op_table(field, [(0, 0, None, u[i]), (0, 1, None, -g)])
    degs = (delta, 0)
    h = _one_kernel_vector(weights, field, degs,
                           assemble(weights, field, degs, (g.homogeneous_degree(),), table))[0]
    return h.monic()
