"""Jacobian ideal machinery: Groebner bases under the fixed weighted order,
normal forms, Hilbert data of the singular quotient, GK-dimension, isolated
singularity detection, and the gcd of the partials, read off the kernel of a
graded multiplication map by the exact linear algebra of any supported
field."""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations

from .hilbert import HilbertSeries, _laurent_sub, _product_one_minus
from .linalg import in_column_span, kernel_basis
from .ring import (
    Polynomial,
    RingError,
    check_potential,
    gradient,
    mono_divides,
    mono_div,
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


def _reduce(f, divisors):
    """Full division of f by divisors in one pass over a working dict: pop
    the largest term, reduce it by the first divisor whose head divides it,
    or else move it to the remainder.  A reduction only adds terms below the
    popped one, so this is the reduction sequence of restarting from the top
    after every step."""
    if not divisors:
        return f
    weights, field = f.weights, f.field
    is_zero = field.is_zero
    work = dict(f.terms)
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
    return _reduce(f, divisors)


def _s_polynomial(f, g):
    hf = f.leading_monomial()
    hg = g.leading_monomial()
    lcm = mono_lcm(hf, hg)
    one = f.field.one
    return f.mul_term(mono_div(lcm, hf), one / f.terms[hf]) - g.mul_term(
        mono_div(lcm, hg), one / g.terms[hg]
    )


def buchberger(gens):
    """reduced Groebner basis from a nonempty generator list, with the
    Gebauer-Moeller pair criteria and the normal selection strategy"""
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
        r = _reduce(g, divisors)
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
        r = _reduce(_s_polynomial(basis[i], basis[j]), [divisors[t] for t in active])
        if r.terms:
            basis.append(r.monic())
            divisors.append(_divisor(basis[-1]))
            heads.append(divisors[-1][0])
            update(len(basis) - 1)

    # inter-reduce: drop redundant heads, then reduce tails
    keep = []
    heads_seen = []
    for g in sorted(basis, key=lambda p: mono_key(weights, p.leading_monomial())):
        h = g.leading_monomial()
        if any(mono_divides(p, h) for p in heads_seen):
            continue
        keep.append(g)
        heads_seen.append(h)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others)
        if r.terms:
            reduced.append(r.monic())
    reduced.sort(key=lambda p: mono_key(weights, p.leading_monomial()))
    gb = GroebnerBasis(reduced, weights, field)

    # Buchberger criterion sanity pass
    for f, g in combinations(gb.polys, 2):
        if normal_form(_s_polynomial(f, g), gb).terms:
            raise RingError("Groebner construction failed the S-pair criterion")
    return gb


@lru_cache(maxsize=256)
def jacobian_basis(omega):
    """cached Groebner basis of the ideal of partial derivatives"""
    grads = [g for g in gradient(omega).comps if g.terms]
    if not grads:
        raise RingError("all partial derivatives vanish")
    return buchberger(grads)


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
    weights = omega.weights
    heads = jacobian_basis(omega).heads()
    dims = {d: len(standard_monomials(weights, heads, d)) for d in range(bound + 1)}
    return dims, _initial_ideal_series(weights, heads)


def _one_minus_t_multiplicity(num):
    """multiplicity of the root t=1 of a Laurent numerator dict"""
    if not num:
        return None
    coeffs = dict(num)
    mult = 0
    while sum(coeffs.values()) == 0:
        # p = (1-t) q  means  q_d = sum of p_e over e <= d
        degs = sorted(coeffs)
        q = {}
        acc = 0
        for d in range(degs[0], degs[-1] + 1):
            acc += coeffs.get(d, 0)
            if acc:
                q[d] = acc
        coeffs = q
        mult += 1
        if mult > 64:
            raise RingError("runaway multiplicity computation")
    return mult


def gkdim(omega):
    """GK-dimension of the singular quotient: order of the Hilbert series
    pole at t=1, in {0,1,2,3}"""
    _, series = a_sing_hilbert(omega, 0)
    v = _one_minus_t_multiplicity(series.numerator)
    if v is None:
        return 0
    return max(0, 3 - v)


def has_isolated_singularity(omega):
    """true iff the singular quotient is finite dimensional"""
    return gkdim(omega) == 0


def gcd_partials(omega):
    """gcd of the nonzero partial derivatives, monic-normalized, over any
    coefficient field.  For homogeneous f, g of degrees p >= q with gcd h,
    the graded map (u, v) -> u f - v g from degrees (e, e+p-q) to e+p first
    has a kernel at e = q - deg h, spanned by (g/h, f/h); then h solves
    (g/h) h = g.  The sweep over e stops by e = q, where (g, f) is in the
    kernel."""
    # imported here: complexes imports this module at load time
    from .complexes import assemble, op_table, vector_to_polys

    check_potential(omega)
    weights, field = omega.weights, omega.field
    grads = [g for g in gradient(omega).comps if g.terms]
    h = grads[0]
    for g in grads[1:]:
        f, g = sorted((h, g), key=Polynomial.homogeneous_degree, reverse=True)
        p, q = f.homogeneous_degree(), g.homogeneous_degree()
        table = op_table(field, [(0, 0, None, f), (0, 1, None, -g)])
        for e in range(q + 1):
            kernel = kernel_basis(assemble(weights, field, (e, e + p - q), (e + p,), table))
            if kernel:
                break
        u = vector_to_polys(weights, field, (e, e + p - q), kernel[0])[0]
        times_u = assemble(weights, field, (q - e,), (q,), op_table(field, [(0, 0, None, u)]))
        _, coords = in_column_span(
            times_u, [g.terms.get(m, field.zero) for m in monomial_basis(weights, q)])
        h = vector_to_polys(weights, field, (q - e,), coords)[0]
    return h.monic()
