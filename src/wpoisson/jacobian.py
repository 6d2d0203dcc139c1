"""Jacobian ideal machinery: Groebner bases under the fixed weighted order,
normal forms, Hilbert data of the singular quotient, GK-dimension, isolated
singularity detection, and gcd of the partials."""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations

from .hilbert import HilbertSeries, _laurent_sub, _product_one_minus
from .ring import (
    QQ,
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


def _main_variable(f, g):
    for v in (2, 1, 0):
        if any(m[v] for m in f.terms) or any(m[v] for m in g.terms):
            return v
    return None


def _as_univar(f, v):
    """split f into {exponent of variable v: coefficient Polynomial}"""
    split = {}
    for m, c in f.terms.items():
        rest = tuple(0 if i == v else m[i] for i in range(3))
        split.setdefault(m[v], {})[rest] = c
    return {e: Polynomial(f.weights, f.field, t) for e, t in split.items()}


def _from_univar(coeffs, v, weights, field):
    terms = {}
    for e, p in coeffs.items():
        for m, c in p.terms.items():
            mm = tuple(m[i] + (e if i == v else 0) for i in range(3))
            terms[mm] = terms.get(mm, field.zero) + c
    return Polynomial(weights, field, terms)


def _exact_div(f, g):
    """exact polynomial division f / g; raises when not exact"""
    if not g.terms:
        raise RingError("division by the zero polynomial")
    rem = f
    quot = Polynomial.zero(f.weights, f.field)
    hg = g.leading_monomial()
    cg = g.terms[hg]
    while rem.terms:
        hm = rem.leading_monomial()
        if not mono_divides(hg, hm):
            raise RingError("polynomial division is not exact")
        q = mono_div(hm, hg)
        factor = rem.terms[hm] / cg
        quot = quot + Polynomial.monomial(f.weights, q, factor, f.field)
        rem = rem - g.mul_term(q, factor)
    return quot


def _pseudo_rem(f, g, v):
    """pseudo-remainder in variable v: lc(g)^(deg f - deg g + 1) f = q g + r"""
    fu = _as_univar(f, v)
    gu = _as_univar(g, v)
    dg = max(gu)
    lcg = gu[dg]
    rem = f
    for _ in range(max(fu) - dg + 1):
        ru = _as_univar(rem, v) if rem.terms else {}
        dr = max(ru) if ru else -1
        if dr < dg:
            rem = rem * lcg
            continue
        shift = tuple(dr - dg if i == v else 0 for i in range(3))
        rem = rem * lcg - (g * ru[dr]).mul_term(shift, f.field.one)
    return rem


def _content(univar, weights, field):
    c = Polynomial.zero(weights, field)
    for p in univar.values():
        c = _gcd_pair(c, p)
    return c


def _primitive_part(f, v):
    u = _as_univar(f, v)
    c = _content(u, f.weights, f.field)
    return _from_univar({e: _exact_div(p, c) for e, p in u.items()}, v, f.weights, f.field), c


def _gcd_pair(f, g):
    """multivariate gcd: primitive-part recursion over one variable with a
    subresultant pseudo-remainder sequence"""
    if not f.terms:
        return g
    if not g.terms:
        return f
    v = _main_variable(f, g)
    if v is None:
        return Polynomial.constant(f.weights, 1, f.field)
    if max(m[v] for m in f.terms) < max(m[v] for m in g.terms):
        f, g = g, f
    fp, cf = _primitive_part(f, v)
    gp, cg = _primitive_part(g, v)
    cont = _gcd_pair(cf, cg)

    one = Polynomial.constant(f.weights, 1, f.field)
    gg = one
    hh = one
    while True:
        delta = max(_as_univar(fp, v)) - max(_as_univar(gp, v))
        r = _pseudo_rem(fp, gp, v)
        if not r.terms:
            break
        fp, gp = gp, _exact_div(r, gg * hh**delta)
        gg = _as_univar(fp, v)[max(_as_univar(fp, v))]
        if delta:
            hh = _exact_div(gg**delta, hh ** (delta - 1))
    prim, _ = _primitive_part(gp, v)
    return (cont * prim).monic()


def gcd_partials(omega):
    """gcd of the three partial derivatives, monic-normalized"""
    if omega.field is not QQ:
        raise RingError("gcd of partials is supported over the rationals only")
    grads = [g for g in gradient(omega).comps if g.terms]
    if not grads:
        raise RingError("all partial derivatives vanish")
    g = grads[0]
    for h in grads[1:]:
        g = _gcd_pair(g, h)
    return g.monic()
