"""Jacobian ideal machinery: Groebner bases under the fixed weighted order,
normal forms, Hilbert data of the singular quotient, GK-dimension, isolated
singularity detection, and the gcd of the partials: its degree is the
multiplicity -N'(1) of the cached Hilbert numerator N.  When the monomial
content of the partials has that degree, it is the gcd; otherwise the gcd
comes from the kernel of the Koszul map K2 at the one degree that fixes, by
the exact linear algebra of any supported field.

Reduction is fraction-free over Q.  A divisor (head, lc, tail) holds the
primitive integer multiple of its polynomial, with lc > 0.  A step on the
term c*m of the working polynomial, with g = gcd(c, lc), sets work to
(lc/g) work - (c/g)(m/head) tail: the step over Q, work - (c/lc)(m/head) f,
times the nonzero integer lc/g.  So every step pops the same term and
cancels the same terms as the division over Q, and each remainder is its
rational remainder times one nonzero scalar, the product of the lc/g.  A
remainder is therefore zero exactly when the rational one is, which keeps
the proofs below exact, and normal_form divides by the scalar once at the
end.  Over Q(s) the divisors are monic: every scalar is 1 and the loop
never scales, so no step takes a field inverse.

Generators with no s-part in any coefficient run over Q.  Every
S-polynomial and remainder of rational polynomials is rational, so the run
over Q is also a run over Q(s), and its minimal basis is lifted to monic
divisors over Q(s).  A potential's memo takes its generators, the nonzero
partials, from the potential's own terms, with no gradient built: over Q,
or over Q(s) with no s-part, the partials of its primitive integer
multiple, each over its content, the entries ``buchberger`` makes of the
partials; else the partials of its terms as they are.  The matrices of the
gcd of the partials are assembled by ``linalg``, over Q when their tables
have no s-part, and the gcd is read over the potential's field.

``buchberger`` returns a minimal Groebner basis, proved before it is
returned by Buchberger's criterion over the critical pairs only: a pair is
skipped when its heads are coprime (product criterion) or when a third head
divides the lcm of the two strictly, with lcm(h_i, h_k) and lcm(h_k, h_j)
both differing from it (chain criterion).  The remaining S-polynomials,
built from the stored divisors, must all reduce to zero, and so must every
generator.  A pair or generator that the run itself reduced, against
divisors the minimal basis holds, has reduced to zero modulo that basis
already (lemma at ``buchberger``): it is certified, and only the others
are reduced again.  Heads, the Hilbert numerator, the GK-dimension, the
gcd and normal forms read this basis as it is.  A minimal basis has the
heads and the size of the reduced one, and the remainder of f modulo any
Groebner basis of I is the one element of f + I with no term in in(I)
(Cox, Little, O'Shea, 2.6), so every normal form is the one by the
reduced basis.  The reduced basis, the elements a caller sees, is made and
proved by the same criterion when first read (``GroebnerBasis.polys``); it
is unique (Cox, Little, O'Shea, Ideals, Varieties, and Algorithms, 2.7),
so a lifted basis reduces to the reduced basis over Q.

The Hilbert numerator of the singular quotient is computed once per
potential from the heads of its basis and cached beside it.  It is read off
the slices of the initial ideal by the exponent of z: one two-variable
staircase numerator per distinct z-exponent of the heads, summed over the
bands between them, with no recursion (proof at _hilbert_numerator)."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import groupby

from .complexes import koszul_component_degs, potential_memo
from .hilbert import HilbertSeries
from .linalg import assemble, kernel_basis, op_table, vector_to_polys
from .ring import (
    QQ,
    Polynomial,
    RingError,
    check_potential,
    mono_key,
    rational_copy,
)


def _entry(field, terms):
    """(k, k * terms) for the terms of a nonzero polynomial, as they enter
    the reduction loop: over Q the primitive integer multiple, k a positive
    Fraction; over Q(s) the terms as they are, k = 1"""
    if field != QQ:
        return 1, terms
    den = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = math.gcd(*ints.values())
    return Fraction(den, g), {m: c // g for m, c in ints.items()}


def _divisor(field, head, terms):
    """(head, lc, tail) of the nonzero polynomial with this leading monomial
    and these terms in the loop's form (integers over Q): over Q its
    primitive multiple with lc > 0, over Q(s) its monic multiple with lc the
    int 1"""
    if field != QQ:
        inv = field.one / terms[head]
        return head, 1, [(m, c * inv) for m, c in terms.items() if m != head]
    g = math.gcd(*terms.values())
    if terms[head] < 0:
        g = -g
    return head, terms[head] // g, [(m, c // g) for m, c in terms.items() if m != head]


class GroebnerBasis:
    """Groebner basis under the weighted-degree grevlex order.

    Construct through buchberger() or jacobian_basis(), from the divisors of
    a minimal basis: no head divides another, each tail as the run left it.
    Heads, the size, the Hilbert numerator, the gcd and normal forms read
    these divisors alone.  ``polys``, and so iteration and repr, is the reduced
    basis: monic elements, tails fully reduced.  It is built on first use,
    by inter-reduction proved as buchberger's result is (RingError if the
    proof fails), and cached."""

    __slots__ = ("weights", "field", "_divisors", "_polys")

    def __init__(self, divisors, weights, field):
        self._divisors = list(divisors)
        self.weights = weights
        self.field = field
        self._polys = None

    @property
    def polys(self):
        if self._polys is None:
            one = self.field.one
            # lc is 1 over Q(s), where the tail is monic already
            self._polys = tuple(
                Polynomial(self.weights, self.field,
                           {h: one, **{m: c if lc == 1 else Fraction(c, lc) for m, c in tail}})
                for h, lc, tail in _inter_reduce(self.weights, self.field, self._divisors))
        return self._polys

    def heads(self):
        return tuple(h for h, _, _ in self._divisors)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._divisors)

    def __repr__(self):
        return "GroebnerBasis(%s)" % (list(self.polys),)


def _reduce(weights, terms, divisors):
    """Full division of integer terms (any terms over Q(s)) by divisors in
    one pass over a working dict: pop the largest term, reduce it by the
    first divisor whose head divides it, or else move it to the remainder.
    A reduction only adds terms below the popped one, so this is the
    reduction sequence of restarting from the top after every step.

    Returns (remainder terms, scale): scale is the product of the step
    scalars lc/g, and the remainder is scale times the remainder over the
    field.  Terms enter the remainder largest first, so its first key is
    its head."""
    work = dict(terms)
    wx, wy, wz = weights.tuple
    # min-heap on the negated order key (degree, -z, -y, -x): largest first
    heap = [(-(wx * e0 + wy * e1 + wz * e2), e2, e1, e0) for e0, e1, e2 in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        _, e2, e1, e0 = heapq.heappop(heap)
        m = (e0, e1, e2)
        coef = work.pop(m, None)
        if coef is None:
            continue  # cancelled after it was queued
        for (h0, h1, h2), lc, tail in divisors:
            if h0 <= e0 and h1 <= e1 and h2 <= e2:
                if lc != 1:
                    # over Q only: scale by a = lc/g, and step by coef/g
                    g = math.gcd(coef, lc)
                    a, coef = lc // g, coef // g
                    if a != 1:
                        scale *= a
                        work = {t: c * a for t, c in work.items()}
                        rem = {t: c * a for t, c in rem.items()}
                q0, q1, q2 = e0 - h0, e1 - h1, e2 - h2
                for (t0, t1, t2), c in tail:
                    t = (t0 + q0, t1 + q1, t2 + q2)
                    old = work.get(t)
                    if old is None:
                        work[t] = -(c * coef)
                        d = wx * t[0] + wy * t[1] + wz * t[2]
                        heapq.heappush(heap, (-d, t[2], t[1], t[0]))
                        continue
                    s = old - c * coef
                    if s:
                        work[t] = s
                    else:
                        del work[t]
                break
        else:
            rem[m] = coef
    return rem, scale


def normal_form(f, basis):
    """remainder of full division of f by the basis, each term reduced by the
    first element whose head divides it; zero iff f lies in the ideal when the
    basis is a Groebner basis"""
    # reduction mixes their coefficients, so they must share weights and field;
    # a GroebnerBasis carries both, as every element has them
    if isinstance(basis, GroebnerBasis):
        f._check_compatible(basis)
        divisors = basis._divisors
    else:
        polys = [g for g in basis if g.terms]
        for g in polys:
            f._check_compatible(g)
        divisors = [_divisor(g.field, g.leading_monomial(), _entry(g.field, g.terms)[1])
                    for g in polys]
    if not f.terms:
        return f
    entry, terms = _entry(f.field, f.terms)
    rem, scale = _reduce(f.weights, terms, divisors)
    scale *= entry
    if scale != 1:
        rem = {m: c / scale for m, c in rem.items()}
    return Polynomial(f.weights, f.field, rem)


def _s_terms(di, dj):
    """terms of the S-polynomial of two divisors (head, lc, tail) with
    lcm(h_i, h_j) = L and g = gcd(lc_i, lc_j): the heads of
    (lc_j/g)(L/h_i) f_i and (lc_i/g)(L/h_j) f_j cancel by construction, so
    only the two scaled, shifted tails are built"""
    (hi, ci, ti), (hj, cj, tj) = di, dj
    g = math.gcd(ci, cj)
    ai, aj = cj // g, ci // g
    l0, l1, l2 = max(hi[0], hj[0]), max(hi[1], hj[1]), max(hi[2], hj[2])
    q0, q1, q2 = l0 - hi[0], l1 - hi[1], l2 - hi[2]
    out = {(t0 + q0, t1 + q1, t2 + q2): c if ai == 1 else c * ai for (t0, t1, t2), c in ti}
    q0, q1, q2 = l0 - hj[0], l1 - hj[1], l2 - hj[2]
    for (t0, t1, t2), c in tj:
        t = (t0 + q0, t1 + q1, t2 + q2)
        if aj != 1:
            c = c * aj
        old = out.get(t)
        if old is None:
            out[t] = -c
            continue
        s = old - c
        if s:
            out[t] = s
        else:
            del out[t]
    return out


def _critical_pairs(heads, certified=()):
    """index pairs (i, j), i < j, whose S-polynomials must reduce to zero for
    a set with these heads to be a Groebner basis.  A pair is dropped when
    its heads are coprime (product criterion), or when some third head h_k
    divides L = lcm(h_i, h_j) with lcm(h_i, h_k) != L != lcm(h_k, h_j)
    (chain criterion).  The chain is strict, so (i, k) and (k, j) have lcms
    properly dividing L, and induction on L under divisibility shows that
    dropping every such pair at once keeps the check a proof.  A pair in
    ``certified``, one whose S-polynomial is known to reduce to zero modulo
    the set, is dropped before the chain scan: it enters that induction as
    proved, the way a reduced pair does."""
    n = len(heads)
    pairs = []
    for i, (a0, a1, a2) in enumerate(heads):
        for j in range(i + 1, n):
            b0, b1, b2 = heads[j]
            if (not a0 or not b0) and (not a1 or not b1) and (not a2 or not b2):
                continue  # coprime: lcm = product
            if (i, j) in certified:
                continue
            l0, l1, l2 = a0 if a0 > b0 else b0, a1 if a1 > b1 else b1, a2 if a2 > b2 else b2
            # given h_k | L, lcm(h_i, h_k) != L iff h_i and h_k both fall short
            # of L in some coordinate, and likewise for lcm(h_k, h_j); a head
            # equal to h_i or h_j, k = i and k = j included, fails one of them
            for k0, k1, k2 in heads:
                if (k0 <= l0 and k1 <= l1 and k2 <= l2
                        and (a0 < l0 > k0 or a1 < l1 > k1 or a2 < l2 > k2)
                        and (b0 < l0 > k0 or b1 < l1 > k1 or b2 < l2 > k2)):
                    break
            else:
                pairs.append((i, j))
    return pairs


def _s_pairs_reduce_to_zero(weights, divisors, certified=()):
    """Buchberger's criterion over the critical pairs only: true iff the
    polynomials behind these divisors form a Groebner basis, given that the
    S-polynomial of each index pair in ``certified`` reduces to zero modulo
    them"""
    return not any(
        _reduce(weights, _s_terms(divisors[i], divisors[j]), divisors)[0]
        for i, j in _critical_pairs([h for h, _, _ in divisors], certified)
    )


def buchberger(gens):
    """minimal Groebner basis from a nonempty generator list, with the
    Gebauer-Moeller pair criteria and the normal selection strategy.

    Over Q it runs on primitive integer divisors end to end, with the
    fraction-free steps of the module docstring, and makes monic Fraction
    polynomials only of the reduced basis.  Each remainder is its rational
    one times a nonzero scalar, so the same remainders are zero, the same
    pairs are reduced, and the proofs below are exact.

    The result is proved, not sampled: every critical pair of the minimal
    basis, the pairs that neither the product criterion (coprime heads) nor
    the strict chain criterion drops (Buchberger, EUROSAM 1979;
    Becker-Weispfenning, Groebner Bases, 1993, 5.5), must reduce to zero,
    and so must every generator, or RingError is raised.  The first shows
    the result is a Groebner basis of the ideal it generates, the second
    that this ideal holds the generators'.  Its tails are inter-reduced,
    and the reduced basis proved by the same criterion, when
    ``GroebnerBasis.polys`` is first read.

    A reduction the run made already counts (``_certified``).  Lemma: let
    G be the minimal basis.  If the run reduced the S-polynomial of a pair
    of G, or a generator, against divisors that all lie in G, and its
    remainder was zero or is the one an element of G was made from, then it
    reduces to zero modulo G.  Proof: a divisor is never changed once made,
    so each step of that reduction is a step modulo G; a nonzero remainder
    r is a nonzero scalar times the divisor made from it, so one more step
    by that element of G takes r to zero.  The steps write the
    S-polynomial as a sum of multiples of elements of G with heads at or
    below its own head, so below the lcm of the pair, and that is all the
    chain criterion's induction needs of a pair.  So a certified pair is
    not reduced again and enters no chain scan, and a certified generator
    is not reduced again; every other critical pair and generator is."""
    gens = [g for g in gens if g.terms]
    if not gens:
        raise RingError("ideal needs at least one nonzero generator")
    for g in gens[1:]:
        gens[0]._check_compatible(g)
    rational = [rational_copy(g) for g in gens]
    if any(g is None for g in rational):
        return _basis(gens[0].weights, gens[0].field, [g.terms for g in gens], False)
    return _basis(gens[0].weights, gens[0].field,
                  [_entry(QQ, g.terms)[1] for g in rational], True)


def _basis(weights, field, entries, over_q):
    """the proved minimal basis over ``field`` of the generators with these
    loop entries: primitive integer terms when ``over_q``, run over Q and
    lifted to monic divisors over ``field``, else terms over ``field``"""
    run_field = QQ if over_q else field
    divisors, order, pair_used, gen_used = _run(weights, run_field, entries)
    minimal = [divisors[t] for t in order]
    _prove(weights, minimal, entries, *_certified(order, pair_used, gen_used))
    if run_field != field:
        minimal = [(h, 1, [(m, field.coerce(Fraction(c, lc))) for m, c in tail])
                   for h, lc, tail in minimal]
    return GroebnerBasis(minimal, weights, field)


def _run(weights, field, entries):
    """Buchberger's main loop over the generators' entries.  Returns
    (divisors, order, pair_used, gen_used): every divisor the run made, by
    index; the indices of the minimal basis, sorted by the monomial order;
    for each S-pair (i, j) it reduced, and for each generator by its
    number, the indices of the divisors that reduction ran against, with
    the index of the divisor made from its remainder when that was nonzero"""
    divisors = []
    gen_used = []
    for terms in entries:
        r = _reduce(weights, terms, divisors)[0]
        if r:
            divisors.append(_divisor(field, next(iter(r)), r))
        gen_used.append(range(len(divisors)))
    heads = [h for h, _, _ in divisors]
    wx, wy, wz = weights.tuple

    pairs = {}  # live pairs (i, j), i < j -> lcm of the heads
    queue = []  # (lcm degree, i, j); pairs dropped by the B criterion go stale
    active = ()  # indices whose head no later head divides
    reducers = []  # their divisors

    def update(k):
        nonlocal active, reducers
        k0, k1, k2 = heads[k]
        cand = []  # (t, lcm of heads t and k, whether they are coprime)
        still = []
        for t in active:
            a0, a1, a2 = heads[t]
            cand.append((t, (a0 if a0 > k0 else k0, a1 if a1 > k1 else k1, a2 if a2 > k2 else k2),
                         not (a0 and k0 or a1 and k1 or a2 and k2)))
            if a0 < k0 or a1 < k1 or a2 < k2:
                still.append(t)
        # M and F criteria on the new pairs: drop one when the lcm of a later
        # or a kept one divides its lcm.  Coprime pairs stay as witnesses
        # until the product criterion drops them
        kept = []
        for pos, c in enumerate(cand):
            l0, l1, l2 = c[1]
            for _, (m0, m1, m2), _ in [] if c[2] else cand[pos + 1:] + kept:
                if m0 <= l0 and m1 <= l1 and m2 <= l2:
                    break
            else:
                kept.append(c)
        # B criterion on the old pairs: h_k divides L, and lcm(h_i, h_k) and
        # lcm(h_j, h_k) differ from L, that is both heads fall short of L in
        # some coordinate where h_k does too
        dead = []
        for p, (l0, l1, l2) in pairs.items():
            if k0 <= l0 and k1 <= l1 and k2 <= l2:
                a0, a1, a2 = heads[p[0]]
                b0, b1, b2 = heads[p[1]]
                if ((a0 < l0 > k0 or a1 < l1 > k1 or a2 < l2 > k2)
                        and (b0 < l0 > k0 or b1 < l1 > k1 or b2 < l2 > k2)):
                    dead.append(p)
        for p in dead:
            del pairs[p]
        for t, lcm, coprime in kept:
            if not coprime:
                pairs[(t, k)] = lcm
                heapq.heappush(queue, (wx * lcm[0] + wy * lcm[1] + wz * lcm[2], t, k))
        # a new tuple per update, shared by the records of the pairs reduced
        # against it
        active = (*still, k)
        reducers = [divisors[t] for t in active]

    for k in range(len(divisors)):
        update(k)
    pair_used = {}
    while queue:
        # normal strategy: smallest lcm degree first, then index order
        _, i, j = heapq.heappop(queue)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce(weights, _s_terms(divisors[i], divisors[j]), reducers)[0]
        if r:
            pair_used[(i, j)] = (*active, len(divisors))
            divisors.append(_divisor(field, next(iter(r)), r))
            heads.append(divisors[-1][0])
            update(len(divisors) - 1)
        else:
            pair_used[(i, j)] = active

    # every remainder is reduced, so no head is a multiple of an earlier one,
    # and the active heads are those no other head divides: a minimal basis
    return divisors, sorted(active, key=lambda t: mono_key(weights, heads[t])), pair_used, gen_used


def _certified(order, pair_used, gen_used):
    """(pairs, generators) that the run reduced to zero modulo the minimal
    basis divisors[order] (lemma at ``buchberger``): the position pairs
    (p, q), p < q, of that basis and the generator numbers whose recorded
    reduction used only divisors of it"""
    final = set(order)
    pos = {t: p for p, t in enumerate(order)}
    pairs = set()
    for (i, j), used in pair_used.items():
        if i in final and j in final and final.issuperset(used):
            p, q = pos[i], pos[j]
            pairs.add((p, q) if p < q else (q, p))
    return pairs, {k for k, used in enumerate(gen_used) if final.issuperset(used)}


def _prove(weights, minimal, entries, pairs, gens):
    """Buchberger's criterion on the minimal basis and the membership of each
    generator, reducing only what the certificate (pairs, gens) of
    ``_certified`` does not cover; RingError if either fails"""
    if not _s_pairs_reduce_to_zero(weights, minimal, pairs):
        raise RingError("Groebner construction failed the S-pair criterion")
    if any(_reduce(weights, terms, minimal)[0]
           for k, terms in enumerate(entries) if k not in gens):
        raise RingError("Groebner construction lost a generator of the ideal")


def _inter_reduce(weights, field, divisors):
    """the divisors of the reduced basis from those of a minimal Groebner
    basis: each element reduced by the others.  No head divides another, so
    every element keeps its head and the list its order.  Proved as
    buchberger's result is, by the critical pairs: RingError unless each
    reduces to zero.  The heads are those of the minimal basis and each
    element lies in its ideal, so a Groebner basis with them generates it."""
    reduced = [_divisor(field, h, _reduce(weights, [(h, lc)] + tail,
                                          divisors[:pos] + divisors[pos + 1:])[0])
               for pos, (h, lc, tail) in enumerate(divisors)]
    if not _s_pairs_reduce_to_zero(weights, reduced):
        raise RingError("the reduced Groebner basis failed the S-pair criterion")
    return reduced


def jacobian_basis(omega):
    """Groebner basis of the ideal of partials, kept in the potential's memo"""
    return _groebner_basis(potential_memo(omega))


def _groebner_basis(memo):
    """the record's basis, from the partials of its potential's own terms
    (module docstring)"""
    if memo.groebner_basis is None:
        omega, entries = memo.omega, []
        rational = rational_copy(omega)
        terms = omega.terms if rational is None else _entry(QQ, rational.terms)[1]
        for part in ({(e0 - 1, e1, e2): c * e0 for (e0, e1, e2), c in terms.items() if e0},
                     {(e0, e1 - 1, e2): c * e1 for (e0, e1, e2), c in terms.items() if e1},
                     {(e0, e1, e2 - 1): c * e2 for (e0, e1, e2), c in terms.items() if e2}):
            if part:
                # over Q, omega is k P with k > 0 and P = terms primitive, so a
                # partial of P over its content is the entry _entry makes of omega's
                g = 1 if rational is None else math.gcd(*part.values())
                entries.append(part if g == 1 else {m: c // g for m, c in part.items()})
        if not entries:
            raise RingError("all partial derivatives vanish")
        memo.groebner_basis = _basis(omega.weights, omega.field, entries, rational is not None)
    return memo.groebner_basis


def _jacobian_numerator(memo):
    """Hilbert numerator of A/J, kept as a tuple of (degree, coefficient)"""
    if memo.hilbert_numerator is None:
        heads = _groebner_basis(memo).heads()
        memo.hilbert_numerator = tuple(_hilbert_numerator(memo.omega.weights, heads).items())
    return memo.hilbert_numerator


def _hilbert_numerator(weights, gens):
    """Laurent numerator {degree: coefficient} of A/I over
    (1 - t^a)(1 - t^b)(1 - t^c), I the monomial ideal generated by gens,
    read off the slices of I by the exponent of z.

    Proof.  x^u y^v z^k lies in I iff some generator x^p y^q z^r has
    r <= k and x^p y^q | x^u y^v, that is iff x^u y^v lies in I_k, the
    ideal of k[x,y] generated by the x^p y^q with r <= k.  So A/I is the
    direct sum of the z^k k[x,y]/I_k as graded spaces, and
    H(A/I) = sum_k t^(ck) H(k[x,y]/I_k).

    A monomial ideal of k[x,y] is a staircase: its minimal generators
    g_l = x^p_l y^q_l, l = 0..m, have p rising and q falling.  x^u y^v is
    a multiple of g_l iff p_l <= u and q_l <= v, which holds for the l of
    a run s..e of consecutive indices, and it is a multiple of
    x^p_(l+1) y^q_l, the lcm of g_l and g_(l+1), iff l and l+1 both lie
    in the run.  So the multiples of the g_l less those of the consecutive
    lcms count each monomial of the ideal (e - s + 1) - (e - s) = 1 times,
    and k[x,y]/I_k has the numerator N = 1 - sum_l t^deg(g_l)
    + sum_(l<m) t^deg(x^p_(l+1) y^q_l) over (1 - t^a)(1 - t^b); the zero
    ideal has N = 1.

    I_k changes only at the distinct z-exponents z_0 < ... < z_r of the
    generators: it is zero below z_0 and equals I_(z_i) on the band
    z_i <= k < z_(i+1), the last band unbounded.  With N_i the numerator
    of I_(z_i), N_(-1) = 1, and
    (1 - t^c) sum_(z_i <= k < z_(i+1)) t^(ck) = t^(c z_i) - t^(c z_(i+1)),
    the numerator of A/I over the three factors is
    (1 - t^(c z_0)) + sum_(i<r) (t^(c z_i) - t^(c z_(i+1))) N_i
    + t^(c z_r) N_r, which telescopes to
    1 + sum_i t^(c z_i) (N_i - N_(i-1)).  Repeated, redundant and unit
    generators change no staircase."""
    wx, wy, wz = weights.tuple
    out = {0: 1}
    prev = [(0, 1)]  # the numerator of the zero slice, below the first z-exponent
    stair = []  # the minimal x^p y^q of I_z, p rising
    for z, group in groupby(sorted(set(gens), key=lambda m: m[2]), key=lambda m: m[2]):
        points, stair, low = sorted(stair + [(m[0], m[1]) for m in group]), [], math.inf
        for p, q in points:
            if q < low:
                stair.append((p, q))
                low = q
        num = ([(0, 1)] + [(wx * p + wy * q, -1) for p, q in stair]
               + [(wx * p + wy * q, 1) for (_, q), (p, _) in zip(stair, stair[1:])])
        for d, e in num + [(d, -e) for d, e in prev]:
            out[wz * z + d] = out.get(wz * z + d, 0) + e
        prev = num
    return {d: e for d, e in out.items() if e}


def a_sing_hilbert(omega, bound):
    """Hilbert data of the singular quotient A/(partials of omega):
    ({d: dim for 0 <= d <= bound}, exact rational series)"""
    check_potential(omega)
    # a fresh series per call: its numerator is a mutable dict
    series = HilbertSeries(dict(_jacobian_numerator(potential_memo(omega))), omega.weights.tuple)
    return dict(enumerate(series.expand(0, bound))) if bound >= 0 else {}, series


# the nonempty sets of variables as bitmasks, bit v for x_v, and their
# sizes, largest first
_SUBSETS = ((7, 3), (3, 2), (5, 2), (6, 2), (1, 1), (2, 1), (4, 1))


def gkdim(omega):
    """GK-dimension of the singular quotient A/J, in {0,1,2,3}: dim A/J =
    dim A/in(J), the size of the largest set S of variables with no head of
    the Groebner basis of J a monomial in S alone (Cox, Little, O'Shea,
    Ideals, Varieties, and Algorithms, ch. 9), that is no head's support
    inside S.  When no nonempty S qualifies the answer is 0, for the unit
    ideal too, whose head 1 has the empty support."""
    check_potential(omega)
    supports = {(h[0] > 0) | (h[1] > 0) << 1 | (h[2] > 0) << 2
                for h in jacobian_basis(omega).heads()}
    for s, size in _SUBSETS:
        if all(m & ~s for m in supports):
            return size
    return 0


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

    h is 1 when deg h = 0; otherwise two routes give it.  First the
    monomial content m of the g, each variable's least exponent over all
    their terms: when deg m = deg h, h is m, and no matrix is built.
    Proof: m divides every g, so m | h; deg h = deg m, so h/m is a nonzero
    constant, and the monic h is m.  Otherwise h comes from two kernels
    (_gcd_from_koszul)."""
    check_potential(omega)
    memo, weights, field = potential_memo(omega), omega.weights, omega.field
    delta = -sum(d * c for d, c in _jacobian_numerator(memo))
    if not delta:
        return Polynomial.constant(weights, field.one, field)
    # the terms of the partial by x_v are the m - e_v, m a term of omega with
    # m_v > 0: the coefficient m_v c is nonzero in characteristic 0
    content = tuple(min(m[u] - (u == v) for m in omega.terms for v in range(3) if m[v])
                    for u in range(3))
    if weights.mono_degree(content) == delta:
        return Polynomial.monomial(weights, content, field.one, field)
    return _gcd_from_koszul(memo, delta)


def _gcd_from_koszul(memo, delta):
    """the monic gcd h of the nonzero partials g of the record's potential,
    of degree delta > 0, from two kernels.

    The Koszul map K2 -> K1, v -> v x g, has kernel A g', g' = g/h (module
    docstring of ``complexes``), first met at total degree
    d0 = 3n - (a+b+c) - delta, where it is the line through g'.  Its
    vector there is u = c g' for a scalar c, so with g_i the first nonzero
    partial the map (h', t) -> u_i h' - t g_i from degrees (delta, 0) to
    deg g_i has the one-dimensional kernel spanned by (h, c); ``monic``
    fixes the scale.  A kernel of any other dimension raises RingError."""
    weights, field = memo.omega.weights, memo.omega.field
    d0 = 3 * memo.omega.homogeneous_degree() - weights.n_default - delta
    u = _one_kernel_vector(weights, field, koszul_component_degs(memo.omega, d0)[2],
                           memo.koszul_matrix(2, d0))
    i = memo.first_partial
    g = memo.gradient.comps[i]
    table = op_table(field, [(0, 0, None, u[i]), (0, 1, None, -g)])
    degs = (delta, 0)
    h = _one_kernel_vector(weights, field, degs,
                           assemble(weights, degs, (g.homogeneous_degree(),), table))[0]
    return h.monic()
