"""Degree-truncated homology of two complexes built from a homogeneous
potential: the Poisson cochain complex on multiderivations and the Koszul
complex on the gradient; plus the vacancy / sealedness / ozone diagnostics.

Most ranks come from identities, not matrices; g = grad(O) is nonzero by
Euler's identity, in the domain k[x,y,z], and T_d = (v . g ; div v) on the
degree-d derivations.  Ozone: d1(v) = div(v) g - grad(v . g), so rank T_d
serves ozone and rgt and, memoised once per degree, d1 and d2 too; it
comes from the Hamiltonian block below, and T_d itself is assembled only
for the derivation basis.  Koszul: K3 -> K2, v0 -> v0 g, is injective.

Vacancy, for n = s = a+b+c: sum_i (-1)^i dim X^i_d = -[d = -s], as prod_i
(1 - t^(-w_i))/(1 - t^(w_i)) = -t^(-s), so dim X2_d = dim X1_d - #A_d +
#A_(d+s) - [d = -s].  The exact bivectors M2_d, the f g and the gradients,
number #A_(d+s) - [d = -s] + rank d0_d, as f g is a gradient iff curl(f g)
= d0(f) is zero (de Rham), and rank d2_d = rank T_d - #A_d (d2); so
vacancy_d = dim ker d2_d - dim M2_d = dim X1_d - rank T_d - rank d0_d,
ozone less Hamiltonians, and, as rank d1_d = rank T_d - dim PH0_d (d1),
PH1_d - PH0_d.  No M2 dimension is computed here.

d0: contracting df ^ dO = 0 with the Euler field gives n O df = k f dO for
a Casimir f of degree k > 0, so f^n / O^k is constant, and by unique
factorisation f is a scalar times a power of the primitive root R of O (O =
c R^r, r maximal).  So rank d0_d = #A_d - [d >= 0 and e | d], e = deg R.
And p = O/c has a monic q-th root just when q | r: R is the root for the
largest divisor q of n with one, or p.  ``_root`` builds it head first: the
weighted order is multiplicative, so head(R) = head(p)^(1/q), and with R
right above the head m of p - R^q, (R+t)^q - R^q has head q head(R)^(q-1) t
and the rest below m, so t = (coefficient of m / q) m / head(R)^(q-1), or no
root if an exponent is negative.  The head of p - R^q falls inside degree n,
so the loop ends; each step is forced, so even over the algebraic closure a
monic root is this one, over K.

K2: with h the gcd of the partials, of degree p, and g = h g', v x g =
h (v x g').  The coprime entries of g' generate the unit ideal or one of
depth >= 2, so H2(g') = 0 by depth sensitivity: ker K2 = A g', and rank
K2_d = dim K2_d - #A_{d-d0}, d0 = 3n - (a+b+c) - p, where p is at most the
least degree p_max of a nonzero partial.

d2: read as vector fields, -div(v x g) = -g . curl(v); curl maps X2_d onto
the divergence-free derivations of degree d, and div(f E) = (d+a+b+c) f for
the Euler field E, so div is onto A_d.  Hence rank d2_d = rank T_d - #A_d.

Rotations: with s = a+b+c, div(f E) = (d+s) f for f in A_d and E . g =
n O.  X1_d is zero unless d > -s, and then v - div(v) E/(d+s) is
divergence-free, so X1_d = A_d E + ker div.  ker div is curl X2_d (d2), the
span of the rotations r(u) = d_z u d_x - d_x u d_z, u in A_{d+a+c}, r'(u) =
d_z u d_y - d_y u d_z, u in A_{d+b+c}, and d_y u d_x - d_x u d_y; the last
is r(d_y U) - r'(d_x U) for U in A_{d+s} with d_z U = u, so r and r' span
it.  v . g maps r(u) to H(u) = g_x d_z u - g_z d_x u and r'(u) to H'(u) =
g_y d_z u - g_z d_y u, in A_{d+n}.  So the block [H | H'] of two sources
and one target carries every rank below:
- rank T_d = #A_d + rank [H | H'], as div is onto A_d;
- K1 at total degree d+n, v -> v . g on X1_d, has image O A_d + im [H | H'];
- on the kernel of the second row of B_e below, div v = u g_i, so v = u g_i
  E/(e+s) + r with r divergence-free, and rank B_e = #A_e + rank [O g_i A_u
  | H | H'], A_u the multipliers u;
- on the kernel of the second row of [T_d | c], c = (h, f), div v = -t f,
  so v . g + t h = t c' + r . g with c' = h - n f O/(d+s), and rank [T_d |
  c] = #A_d + rank [H | H' | c'].

d1: d1 = L T with L(h, f) = f g - grad(h), so ker d1_d = T_d^-1(ker L_d).
By Euler's identity (h, f) lies in ker L exactly when f is a Casimir (d0
f = 0) and h = n f O/(d+n).  So ker L_d is 0 in a degree with no Casimir,
and there rank d1_d = rank T_d.  Otherwise one vector c spans it: c =
(n f O, (d+n) f), f = R^(d/e) (d0), when d+n is not zero, and c =
(1, 0) when d = -n, as A_d is then 0 and grad h = 0 leaves the constants.
Then ker d1_d is the projection (v, t) -> v of the kernel of [T_d | c], c
its last column, and the projection is injective, as c is not zero; so
rank d1_d = rank [T_d | c] - 1 = #A_d + rank [H | H' | c'] - 1.  When n =
a+b+c, c' = 0 for the Casimir column: c lies in the image of T_d, and rank
d1_d = rank T_d - dim ker d0_d with no matrix.  Every nonzero kernel vector
has a nonzero v-part, and its first nonzero coordinate is that of its
v-part.  Under last-column pivots a column is free exactly when it is the
first nonzero coordinate of a kernel vector (``linalg``), so c's column is
a pivot and the free columns of [T_d | c] are those of d1_d.  The kernel
normal form is the one basis with a one in a free column and zeros in the
others; projected, it keeps that shape, so it is the kernel normal form of
d1_d (``derivation_kernel``), the one caller that assembles T_d, as the
normal form lives in X1_d.

Sealed: with e = d - n and g_i the first nonzero partial, the degree-d
Koszul 1-cycles v with div v in (g_i) are the projections of the kernel of
B_e(u, v) = (v . g ; div v - u g_i) on A_{e-n+w_i} + X1_e, and the
projection is injective, as k[x,y,z] is a domain.  Modulo them the cycles
with div v in J = (g) fill all of J_e / (g_i)_e: for f with d_i f = u_j the
cycle f (g_j e_i - g_i e_j), a Koszul boundary, has divergence u_j g_j -
(d_j f) g_i.  J_e is the image of K1, u -> u . g, so the cycles with div v
in J number dim X1_e + #A_u - rank B_e + rank K1 - #A_u, and sealed_d =
dim X1_e - rank B_e + rank K1 - rank K2, with K1 and K2 at total degree e
and d.

One elimination per sealed degree gives rank B_e, rank T_e and rank K1 at
total degree d: that of the block [O A_e | O g_i A_u | H | H'] into A_d,
its sources in that order.  O g_i A_u lies in O A_e, as g_i A_u lies in
A_e, so by Rotations its rank is rank K1 at d, the rank of its columns past
O A_e is rank B_e - #A_e, and that of its columns past the u block rank T_e
- #A_e.  ``linalg`` pivots each row on its last column, so the pivot rows
are a basis of the row space with distinct last columns.  A row-space
vector supported below a column j is a combination of them in which no
pivot row past j takes part, as the largest such pivot would survive; so
those vectors are exactly the span of the pivot rows below j.  They are the
kernel of the cut of the row space to the columns >= j, so the pivots in
columns >= j number rank B[:, >= j], over K = Q[s]/(m) too, where
``linalg.pivot_columns`` counts whole blocks of k Q-columns.  The sweep
runs up from degree 0 and reaches d - n before d, so the rank of K1 at
total degree e that sealed_d needs was read off the block of degree e
whenever X1 there is nonzero, and is 0 otherwise.

Ranks mod p.  Over K = Q[s]/(m), deg m <= 3, for a potential with an
s-part, each rank read eliminates its K-matrix once mod p, with s -> r
(``linalg``): [H | H'] for rank T_d, K1, K2 inside ``k2_window``, and the
sealed block.  The argument on cuts above holds over any field, so the
pivots mod p in the columns >= j number the rank over F_p of the cut to
those columns, and as a nonzero minor mod p lifts, each is a lower bound on
the rank of that cut over K.  The complex bounds each from above:
- rank T_d <= dim X1_d - rank d0 at d - n + s, as the Hamiltonians of
  degree d, the image of d0 there, lie in ker T_d; equality is ozone =
  Hamiltonians;
- rank K1 <= dim K1 - rank K2 at one total degree, as the Koszul boundaries
  lie in ker K1; equality is H1 = 0;
- rank K2 <= dim K2 - dim K3, as K3 -> K2 is injective into ker K2;
  equality is H2 = 0;
- rank B_e <= dim X1_e + rank K1_e - rank K2_d (Sealed), as sealed_d >= 0.
All four reads go through one, ``certified_ranks``: it reads the bounds of
a block's cuts, then keeps the counts mod p that meet them, each the rank
over K.  A block with any cut short of its bound is eliminated over K by
restriction of scalars, as is every later block of that potential, whose
bounds, as it is not isolated or p is unlucky, would mostly miss again;
so is a block whose bounds were read by a read that missed, and every
block where no listed prime serves, so no number depends on p.  The bounds
read only ranks the sweeps read anyway.  Rank [T_d | c], with its Casimir
column (``column_rank``), and the kernel bases stay exact, and a modulus of
degree 4 or more, whose irreducibility ``ExtensionField`` does not decide,
keeps every rank exact.

Every per-degree table sweeps a window of degrees from its lowest nonzero
slot up to the truncation bound D, and refuses, before it lists a monomial,
a window with no degree, as every flag over an empty table would hold
vacuously, or one whose maps would list too many monomials (``_window``).
The vacancy and sealed sweeps are generators, ``vacancy_degrees`` and
``sealed_degrees``, that rank a degree only when it is read: catalog verify
stops each at its sixth nonzero degree, the last its report prints, while a
"yes" verdict, the cohomology tables and the ``vacancy_check`` and
``sealed_k1_dims`` tables still sweep to D.  Past a sealed sweep's stop,
rank T_d comes from [H | H'] alone.  The maps of one degree, ``ozone_dim``
and ``derivation_kernel``, count the slices they list against the same
budget, and ``derivation_kernel`` the basis it returns (``_slice_budget``).

What depends on the potential alone, its gradient, tables, ranks by degree
and Groebner data, lives in one record per potential value
(``potential_memo``), and equal potentials parsed apart share it.  The
ranks by degree are methods of the record, so each public sweep or map
looks its record up once.  Each (immutable) table is shared by every
degree, built by ``table`` when a read first needs it and kept by (block,
field), the field the potential's or the record's ``reduction``; the
sealed table, with its products O and O g_i, is built only for the sealed
sweep.  A table over Q(s) whose coefficients have no s-part is made over
Q, and so are its matrices (``linalg`` docstring).  The record decides
once, on first read, whether its ranks go mod p (``reduction``), and stops
at its first miss."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .hilbert import closed_form_ph
from .linalg import assemble, kernel_basis, op_table, pivot_columns, rank, reduction
from .ring import QQ, Polynomial, RingError, check_potential, count_monomials, gradient


class DimsTable:
    """exact (index, degree) -> dimension table with its truncation bound"""

    __slots__ = ("dims", "bound")

    def __init__(self, dims, bound):
        self.dims = dict(dims)
        self.bound = bound

    def dim(self, i, d):
        return self.dims.get((i, d), 0)

    def row(self, i):
        return {d: v for (j, d), v in sorted(self.dims.items()) if j == i}

    def __repr__(self):
        return "DimsTable(bound=%d, %d entries)" % (self.bound, len(self.dims))


# ---------------------------------------------------------------------------
# the memo of each potential

# the most potentials whose records ``potential_memo`` keeps alive
MEMO_SIZE = 4


class _Memo:
    """the state one potential's invariants share, each piece built when
    first read: the gradient, operator tables by (block, field), the
    primitive root R of O and three degrees; rank [T_d | c] and rank T_d by
    d, the Koszul ranks by (i, d) and sealed_d by d, which its rank methods
    fill; the Groebner basis and Hilbert numerator of ``jacobian``.
    ``potential_memo`` keys records by value, so equal potentials parsed
    apart share one, and drops the least recently used past MEMO_SIZE.  The
    degree n is read only by the ranks, so the record of a polynomial that is
    not homogeneous, as ``poisson`` checks a potential tag with, still gives
    its gradient."""

    def __init__(self, omega):
        self.omega, self.groebner_basis, self.hilbert_numerator = omega, None, None
        self.column_ranks, self.t_ranks, self.koszul_ranks, self.sealed_dims = {}, {}, {}, {}
        self.tables = {}

    @cached_property
    def gradient(self):
        return gradient(self.omega)

    def table(self, block, field=None):
        """the operator table of a block over field, by default the
        potential's, built once per (block, field): K1, v -> v . g, and K2, v
        -> v x g, of the Koszul complex; H, [H | H'], and sealed, [O A_e | O
        g_i A_u | H | H'] (module docstring); and T = (v . g ; div v) on the
        derivations, sources 0..2"""
        field = self.omega.field if field is None else field
        key = block, field
        if key not in self.tables:
            g = self.gradient.comps
            if block in ("K1", "T"):
                terms = [(0, s, None, g[s]) for s in range(3)]
                terms += [(1, s, s, 1) for s in range(3)] if block == "T" else []
            elif block == "K2":
                # component k of v x g is g_{k+2} v_{k+1} - g_{k+1} v_{k+2}
                terms = [(k, (k + j) % 3, None, sign * g[(k - j) % 3])
                         for k in range(3) for j, sign in ((1, 1), (2, -1))]
            elif block == "H":
                terms = _hamiltonian_terms(g, 0)
            else:
                terms = [(0, 0, None, self.omega), (0, 1, None, self.omega * g[self.first_partial])]
                terms += _hamiltonian_terms(g, 2)
            self.tables[key] = op_table(field, terms)
        return self.tables[key]

    @cached_property
    def reduction(self):
        """the map s -> r onto F_p of the modular ranks, or None, which keeps
        every rank exact: over Q, where the potential has no s-part, where deg
        m > 3, or where no listed prime qualifies (``linalg.reduction``), and
        after the first miss (``certified_ranks``)"""
        field, coefs = self.omega.field, self.omega.terms.values()
        if field == QQ or field.degree > 3 or all(c.is_rational() for c in coefs):
            return None
        return reduction(field, math.lcm(*(q.denominator for c in coefs for q in c.coeffs)))

    @cached_property
    def first_partial(self):
        """the index i of g_i, the first nonzero partial"""
        return next(v for v, g in enumerate(self.gradient.comps) if g.terms)

    @cached_property
    def casimir_root(self):
        """R: the monic root of O/lc(O) of the largest order r | n it has (d0)"""
        p, n = self.omega.monic(), self.omega.homogeneous_degree()
        roots = (_root(p, r) for r in range(n, 1, -1) if n % r == 0)
        return next((root for root in roots if root is not None), p)

    @cached_property
    def casimir_degree(self):
        """e = deg R: the least positive degree with a Casimir (module docstring)"""
        return self.casimir_root.homogeneous_degree()

    @cached_property
    def k2_window(self):
        """the degrees 3n - (a+b+c) - p_max .. 3n - (a+b+c) of k2_kernel_degree"""
        weights, n = self.omega.weights, self.omega.homogeneous_degree()
        top = 3 * n - weights.n_default
        p_max = min(n - w for w, g in zip(weights.tuple, self.gradient.comps) if g.terms)
        return range(top - p_max, top + 1)

    @cached_property
    def k2_kernel_degree(self):
        """3n - (a+b+c) - deg gcd(g): the first degree where K2 has a kernel"""
        return next(d for d in self.k2_window
                    if self.koszul_rank(2, d) < _koszul_dim(self.omega, 2, d))

    def casimirs(self, d):
        """dim ker d0_d: 1 where a power of R has degree d, else 0"""
        return int(d == 0 or d > 0 and d % self.casimir_degree == 0)

    def cochain_rank(self, i, d):
        """rank of the degree-i differential on the degree-d slice of X^i: d0
        from the Casimir degree, d2 from rank T_d, and d1 from rank T_d or,
        where a Casimir column c need not lie in the image of T_d, from rank
        [T_d | c], memoised by d (module docstring)"""
        weights = self.omega.weights
        if _space_dim(weights, cochain_shifts(weights)[i], d) == 0:
            return 0
        if i == 2:
            return self.ozone_rank(d) - count_monomials(weights, d)
        casimirs = self.casimirs(d)
        if i == 0:
            return count_monomials(weights, d) - casimirs
        n = self.omega.homogeneous_degree()
        if d + n and (not casimirs or n == weights.n_default):
            return self.ozone_rank(d) - casimirs
        ranks = self.column_ranks
        if d not in ranks:
            ranks[d] = self.column_rank(d, self.casimir_column(d))
        return ranks[d] - 1

    def ph_dim(self, i, d):
        """dim PH^i_d: dim X^i_d less rank d^i at d and rank d^(i-1) at d - w,
        w = n - (a+b+c)"""
        weights = self.omega.weights
        dim = _space_dim(weights, cochain_shifts(weights)[i], d)
        if dim == 0:
            return 0
        w = self.omega.homogeneous_degree() - weights.n_default
        return (dim - (self.cochain_rank(i, d) if i < 3 else 0)
                - (self.cochain_rank(i - 1, d - w) if i > 0 else 0))

    def casimir_column(self, d):
        """c = (h, f) spanning ker L_d, up to a scalar, with f = R^(d/e), or
        None where ker L_d = 0 (module docstring); it calls no gradient"""
        n = self.omega.homogeneous_degree()
        if d == -n:
            return 1, 0
        if d < 0 or not self.casimirs(d):
            return None
        f = self.casimir_root ** (d // self.casimir_degree)
        # c / n
        return f * self.omega, Fraction(d + n, n) * f

    def ozone_rank(self, d):
        """rank of T_d: X1_d -> A_{d+n} + A_d, memoised by d, where the sealed
        blocks leave it; else off [H | H'], or 0 with no matrix where X1_d = 0"""
        ranks = self.t_ranks
        if d not in ranks:
            weights = self.omega.weights
            ranks[d] = self.hamiltonian_rank(d) if _space_dim(weights, weights.tuple, d) else 0
        return ranks[d]

    def certified_ranks(self, block, src, tgt, cuts, bounds):
        """the ranks of the block's matrix from the slices src into tgt past
        each column in cuts, its pivots there (module docstring).  While the
        record has a ``reduction``, the pivots are taken mod p, and the counts
        are kept when they equal bounds(), upper bounds on those ranks over
        K, which they then are.  A miss sets ``reduction`` to None, here
        alone, and the block is eliminated over K, as is every later block of
        the record: the bounds of a potential that is not isolated miss on
        most blocks, and each miss costs an elimination mod p and one over K"""
        if self.reduction is not None:
            bounds = bounds()  # a miss in reading them leaves this read exact
        while True:
            field = self.reduction
            pivots = pivot_columns(assemble(self.omega.weights, src, tgt, self.table(block, field)))
            ranks = [sum(c >= cut for c in pivots) for cut in cuts]
            if field is None or ranks == bounds:
                return ranks
            self.__dict__["reduction"] = None  # where cached_property keeps it

    def hamiltonian_rank(self, d):
        """#A_d + rank [H | H'] at degree d, which is rank T_d (module
        docstring), mod p where its bound ``t_bound`` certifies it"""
        weights = self.omega.weights
        lead = count_monomials(weights, d)
        (rank_h,) = self.certified_ranks(
            "H", _rotation_degrees(weights, d), [d + self.omega.homogeneous_degree()], [0],
            lambda: [self.t_bound(d) - lead])
        return lead + rank_h

    def column_rank(self, d, column):
        """rank [T_d | c] for the column c = (h, f): #A_d + rank [H | H' | c'],
        with c' = h - n f O/(d+s) on one more source, the monomial 1 (module
        docstring); c' = h where d + s = 0, as A_d = 0 there.  Always exact"""
        omega = self.omega
        weights = omega.weights
        n, s = omega.homogeneous_degree(), weights.n_default
        h, f = column
        reduced = h - f * omega * Fraction(n, d + s) if d + s else h
        field, terms = self.table("H")
        terms += op_table(omega.field, [(0, 2, None, reduced)], reduce=field == QQ)[1]
        src = _rotation_degrees(weights, d) + [0]
        return count_monomials(weights, d) + rank(assemble(weights, src, [d + n], (field, terms)))

    def t_bound(self, d):
        """dim X1_d - rank d0 at d - n + s, an upper bound on rank T_d, as the
        Hamiltonians of that degree lie in ker T_d"""
        weights = self.omega.weights
        w = self.omega.homogeneous_degree() - weights.n_default
        return _space_dim(weights, weights.tuple, d) - self.cochain_rank(0, d - w)

    def koszul_slices(self, i, d):
        """the source and target slices of K_i -> K_{i-1} at total degree d,
        refused over budget (``koszul_matrix``)"""
        if i not in (1, 2):
            raise RingError("koszul index out of range")
        degs = koszul_component_degs(self.omega, d)
        _slice_budget(self.omega, "koszul", d, degs[i] + degs[i - 1])
        return degs[i], degs[i - 1]

    def koszul_matrix(self, i, d):
        """matrix of K_i -> K_{i-1} at total degree d (``koszul_matrix``)"""
        return assemble(self.omega.weights, *self.koszul_slices(i, d), self.table("K%d" % i))

    def koszul_rank(self, i, d):
        """rank of K_i -> K_{i-1} at total degree d, memoised by (i, d), where the
        sealed blocks leave K1; K2 by Koszul depth; a matrix rank mod p where
        its bound, dim K1 - rank K2 or dim K2 - dim K3, certifies it (module
        docstring)"""
        ranks = self.koszul_ranks
        if (i, d) not in ranks:
            omega = self.omega
            dim = _koszul_dim(omega, i, d)
            if i == 2 and d < self.k2_window.start:
                ranks[i, d] = dim
            elif i == 2 and d >= self.k2_window.stop:
                ranks[i, d] = dim - count_monomials(omega.weights, d - self.k2_kernel_degree)
            elif not dim:
                ranks[i, d] = 0
            else:
                # rank K1 <= dim K1 - rank K2, rank K2 <= dim K2 - dim K3
                (ranks[i, d],) = self.certified_ranks(
                    "K%d" % i, *self.koszul_slices(i, d), [0], lambda: [dim - (
                        self.koszul_rank(2, d) if i == 1 else _koszul_dim(omega, 3, d))])
        return ranks[i, d]

    def sealed_ranks(self, e):
        """(rank K1 at total degree e+n, rank B_e, rank T_e) from one elimination
        of [O A_e | O g_i A_u | H | H'] into A_{e+n}: #A_e and its pivots, those
        past the O A_e columns, and those past the u columns (module
        docstring); mod p where the bounds of all three certify them"""
        weights = self.omega.weights
        n = self.omega.homogeneous_degree()
        u_deg = e - n + weights.tuple[self.first_partial]
        lead = count_monomials(weights, e)
        past_u = lead + count_monomials(weights, u_deg)

        def bounds():
            # rank K1 <= dim K1 - rank K2, rank B_e <= dim X1_e + rank K1_e -
            # rank K2, with K1 and K2 at total degree e + n, and rank T_e
            k2, x1 = self.koszul_rank(2, e + n), _koszul_dim(self.omega, 1, e + n)
            return [x1 - k2, x1 + self.koszul_rank(1, e) - k2 - lead, self.t_bound(e) - lead]

        src = [e, u_deg] + _rotation_degrees(weights, e)
        k1, rank_b, rank_t = self.certified_ranks("sealed", src, [e + n], [0, lead, past_u], bounds)
        return k1, lead + rank_b, lead + rank_t

    def sealed_dim(self, d):
        """sealed_d, memoised by d, from the block of degree e = d - n, which
        leaves rank K1 and rank T_e in the memos; K1 at degree d is X1 at
        degree e"""
        dims = self.sealed_dims
        if d not in dims:
            dim_v = _koszul_dim(self.omega, 1, d)
            if dim_v:
                e = d - self.omega.homogeneous_degree()
                self.koszul_ranks[1, d], rank_b, self.t_ranks[e] = self.sealed_ranks(e)
                dim_v += self.koszul_rank(1, e) - rank_b - self.koszul_rank(2, d)
            dims[d] = dim_v
        return dims[d]


potential_memo = lru_cache(maxsize=MEMO_SIZE)(_Memo)


# ---------------------------------------------------------------------------
# Poisson cochain complex


def cochain_shifts(weights):
    """component shifts of the multiderivation spaces X^0..X^3"""
    a, b, c = weights.tuple
    return ((0,), (a, b, c), (b + c, a + c, a + b), (a + b + c,))


def _root(p, r):
    """the monic r-th root of the monic p, or None (module docstring)"""
    lead, excess = zip(*(divmod(u, r) for u in p.leading_monomial()))
    if any(excess):
        return None
    root = Polynomial(p.weights, p.field, {lead: 1})
    while (rest := p - root ** r).terms:
        m = rest.leading_monomial()
        t = tuple(u - (r - 1) * v for u, v in zip(m, lead))  # m / head(R)^(r-1)
        if min(t) < 0:
            return None
        root += Polynomial(p.weights, p.field, {t: rest.terms[m] * Fraction(1, r)})
    return root


def _space_dim(weights, shifts, d):
    return sum(count_monomials(weights, d + s) for s in shifts)


def default_bound(n):
    """the default truncation bound for a potential of degree n: 3n+12"""
    return 3 * n + 12


# the most monomials of degrees 0..T that the maps of a window may reach
# (``_window``); the largest default window in the catalog holds 2,925
WINDOW_BUDGET = 250_000


def _window(omega, name, lo, bound):
    """the degrees lo..bound of a per-degree table of omega.  A window with
    no degree is refused, as every flag over it would hold vacuously, and so
    is one whose maps reach more than WINDOW_BUDGET monomials, counted over
    the degrees 0..T, T = max(D, n) + max(n, s) + max(0, s - n), with D the
    bound, n = deg omega and s = a+b+c; T = D + n when n = s <= D.  T bounds
    every slice a sweep lists, as, with d <= D:
    - X^3_d = A_{d+s} reaches D + s, and T_d has targets at d + n;
    - the sources of d_{i-1} into degree d sit at degree d - n + s, so their
      slices, T's targets included, reach D + max(s, 2s - n);
    - the Koszul slices at total degree d lie below d + max(0, s - n), and
      those of the K2 kernel search, run only when d passes 3n - s, below 2n.
    The count takes each column of x exponents in one step and stops at the
    budget, so it lists no monomial and makes at most WINDOW_BUDGET steps."""
    if bound < lo:
        raise RingError("empty %s window: truncation bound %d is below %d" % (name, bound, lo))
    n = omega.homogeneous_degree()
    a, b, c = omega.weights.tuple
    s = a + b + c
    top = max(bound, n) + max(n, s) + max(0, s - n)
    count = 0
    for k in range(top // c + 1):
        rest = top - c * k
        for j in range(rest // b + 1):
            count += (rest - b * j) // a + 1
            if count > WINDOW_BUDGET:
                raise RingError(
                    "truncation bound %d is over budget: degrees 0..%d hold more "
                    "than %d monomials" % (bound, top, WINDOW_BUDGET))
    return range(lo, bound + 1)


_SLICE_REFUSAL = "degree %d is over budget: the slices of its %s map hold more than %d monomials"


def _slice_budget(omega, name, d, degrees, basis=False):
    """refuse the degree-d map of omega whose slices have these degrees when
    they hold more than WINDOW_BUDGET monomials; with basis, the first five
    are X1_d and A_d, and the count adds (dim X1_d + 1 - #A_d) dim X1_d, a
    bound on the entries of the kernel basis of [T_d | c], as div maps onto
    A_d.  Like ``_window``'s, the count lists no monomial: with c the largest
    weight, those of degree t with z^k solve a i + b j = t - c k, whose
    solutions j form one residue class mod a/gcd(a, b); it stops there."""
    a, b, c = sorted(omega.weights.tuple)
    g = math.gcd(a, b)
    step = a // g
    inverse = pow(b // g, -1, step)
    count, sizes = 0, []
    for t in degrees:
        start = count
        for k in range(t // c + 1):
            r = t - c * k
            if r % g:
                continue
            j = r // g * inverse % step  # the least j with b j = r mod a
            if b * j <= r:
                count += (r - b * j) // (b * step) + 1
                if count > WINDOW_BUDGET:
                    raise RingError(_SLICE_REFUSAL % (d, name, WINDOW_BUDGET))
        sizes.append(count - start)
    if basis and count + (sum(sizes[:3]) + 1 - sizes[4]) * sum(sizes[:3]) > WINDOW_BUDGET:
        raise RingError(_SLICE_REFUSAL % (d, name, WINDOW_BUDGET))


def ph_dims(omega, bound):
    """Poisson cohomology dimensions PH^0..PH^3 per degree, down from
    -max(n, a+b+c) up to the bound: every cochain space below -(a+b+c) is
    zero"""
    n = check_potential(omega)
    degrees = _window(omega, "cohomology", -max(n, omega.weights.n_default), bound)
    memo = potential_memo(omega)
    return DimsTable({(i, d): memo.ph_dim(i, d) for i in range(4) for d in degrees}, bound)


def ph_closed_form_rows(omega, bound):
    """PH^0..PH^3 per degree beside their closed forms, from -max(n, a+b+c)
    (every cochain space below is zero) up to the bound.  Returns (rows,
    matches): a row holds degree, ph0..ph3 and, when n = a+b+c (the only
    degree the closed forms cover), closed0..closed3; matches maps ph0..ph3
    to whether the column equals its closed form, or is None when they do
    not apply."""
    table = ph_dims(omega, bound)
    degrees = list(table.row(0))
    weights = omega.weights
    n = omega.homogeneous_degree()
    applicable = n == weights.n_default
    closed = ([closed_form_ph(weights, i, n).expand(degrees[0], bound) for i in range(4)]
              if applicable else [])
    rows = []
    for k, d in enumerate(degrees):
        row = {"degree": d}
        row.update(("ph%d" % i, table.dim(i, d)) for i in range(4))
        row.update(("closed%d" % i, col[k]) for i, col in enumerate(closed))
        rows.append(row)
    if not applicable:
        return rows, None
    return rows, {"ph%d" % i: [r["ph%d" % i] for r in rows] == closed[i] for i in range(4)}


# ---------------------------------------------------------------------------
# vacancy, ozone, minimality


def vacancy_degrees(omega, bound):
    """(degree, dimension) of ``vacancy_check`` in rising degree, each
    degree ranked only when it is read; the window is checked at the call.
    At n = a+b+c the bound ``t_bound`` on rank T_d is dim X1_d - rank d0_d,
    so the vacancy is its slack"""
    n = check_potential(omega, "vacancy diagnostic requires degree a+b+c")
    memo = potential_memo(omega)
    return ((d, memo.t_bound(d) - memo.ozone_rank(d)) for d in _window(omega, "vacancy", -n, bound))


def vacancy_check(omega, bound):
    """per-degree upper-division dimensions: ker d2 modulo the exact
    bivectors M2, which is ozone less Hamiltonians, dim X1_d - rank T_d -
    rank d0_d, and PH1_d - PH0_d (module docstring); the potential is vacant
    up to the bound iff all zero"""
    return dict(vacancy_degrees(omega, bound))


def _rotation_degrees(weights, d):
    """the degrees d+a+c, d+b+c of the rotation potentials u, the sources of
    H and H' at degree d (module docstring)"""
    a, b, c = weights.tuple
    return [d + a + c, d + b + c]


def _hamiltonian_terms(g, first):
    """the terms of [H | H'], H(u) = g_x d_z u - g_z d_x u on source first
    and H'(u) = g_y d_z u - g_z d_y u on the next, into one target"""
    return [(0, first, 2, g[0]), (0, first, 0, -g[2]),
            (0, first + 1, 2, g[1]), (0, first + 1, 1, -g[2])]


def ozone_dim(omega, d):
    """dimension of the degree-d derivations v with v . g = 0 and div v = 0,
    the kernel of T_d = (v . g ; div v): the ozone space, the cocycles that
    kill the potential, as d1(v) = div(v) g - grad(v . g).  Refused before
    any monomial is listed when the slices of X1_d, A_d and [H | H'] are
    over budget (``_slice_budget``)."""
    n = check_potential(omega)
    a, b, c = omega.weights.tuple
    _slice_budget(omega, "ozone", d,
                  [d + a, d + b, d + c, d + n, d] + _rotation_degrees(omega.weights, d))
    return _space_dim(omega.weights, omega.weights.tuple, d) - potential_memo(omega).ozone_rank(d)


def derivation_kernel(omega, d):
    """the kernel normal form of d1 on the degree-d derivations, as vectors
    over the slices d+a, d+b, d+c of X1_d, read off T_d with no d1 matrix:
    the projection of the kernel of [T_d | c], c spanning ker L_d (module
    docstring).  Refused, before it lists a monomial, when its basis and the
    slices of [T_d | c], its f in A_d, are over budget (``_slice_budget``)."""
    n = check_potential(omega)
    weights = omega.weights
    degrees = [d + w for w in weights.tuple] + [d + n, d] + [0] * (d == -n or d >= 0)
    _slice_budget(omega, "derivation", d, degrees, basis=True)
    dim = _space_dim(weights, weights.tuple, d)
    if not dim:
        return []
    memo = potential_memo(omega)
    field, terms = memo.table("T")
    src, column = [d + w for w in weights.tuple], memo.casimir_column(d)
    if column is not None:
        terms += op_table(omega.field, [(t, 3, None, p) for t, p in enumerate(column)],
                          reduce=field == QQ)[1]
        src.append(0)
    return [v[:dim] for v in kernel_basis(assemble(weights, src, [d + n, d], (field, terms)))]


def ozone_vs_hamiltonian(omega, bound):
    """per-degree dimensions {d: (ozone, hamiltonian)}: derivations that are
    cocycles killing the potential, i.e. with v . g = 0 and div v = 0 (see
    ``ozone_dim``), vs the image of the hamiltonian map"""
    check_potential(omega, "ozone diagnostic requires degree a+b+c")
    memo, x1 = potential_memo(omega), omega.weights.tuple
    return {d: (_space_dim(omega.weights, x1, d) - memo.ozone_rank(d), memo.cochain_rank(0, d))
            for d in _window(omega, "ozone", -max(omega.weights.tuple), bound)}


# ---------------------------------------------------------------------------
# Koszul complex on the gradient


def koszul_component_degs(omega, d):
    """component degrees of K_0..K_3 at total degree d: K_i is X^i at
    degree d - i n"""
    n = omega.homogeneous_degree()
    shifts = cochain_shifts(omega.weights)
    return [[d - i * n + s for s in shifts[i]] for i in range(4)]


def koszul_matrix(omega, i, d):
    """matrix of the Koszul differential K_i -> K_{i-1} at total degree d,
    for i = 1, 2 (K3 -> K2 is injective and never assembled).  Refused
    before any monomial is listed when its slices are over budget
    (``_slice_budget``); any other i is refused before that count."""
    return potential_memo(omega).koszul_matrix(i, d)


def _koszul_dim(omega, i, d):
    weights = omega.weights
    return _space_dim(weights, cochain_shifts(weights)[i], d - i * omega.homogeneous_degree())


def koszul_dims(omega, bound):
    """Koszul homology dimensions H_0..H_3 per total degree; rank K3 is
    dim K3, as v0 -> v0 g is injective, so H_3 is zero"""
    check_potential(omega)
    memo, dims = potential_memo(omega), {}
    for d in _window(omega, "koszul", 0, bound):
        space = [_koszul_dim(omega, i, d) for i in range(4)]
        r1, r2 = memo.koszul_rank(1, d), memo.koszul_rank(2, d)
        dims[(0, d)] = space[0] - r1
        dims[(1, d)] = space[1] - r1 - r2
        dims[(2, d)] = space[2] - r2 - space[3]
        dims[(3, d)] = 0
    return DimsTable(dims, bound)


def sealed_degrees(omega, bound):
    """(degree, dimension) of ``sealed_k1_dims`` in rising degree, each
    degree's block eliminated only when it is read; the window is checked at
    the call"""
    check_potential(omega)
    memo = potential_memo(omega)
    return ((d, memo.sealed_dim(d)) for d in _window(omega, "sealed", 0, bound))


def sealed_k1_dims(omega, bound):
    """per-degree dimensions of sealed first Koszul homology: cycles whose
    divergence lies in the Jacobian ideal, modulo boundaries, from the rank
    of the block map B (module docstring).  Returns ({degree: dim}, all-zero
    flag).  Each degree's block leaves rank K1 and rank T_e in the memos."""
    out = dict(sealed_degrees(omega, bound))
    return out, all(v == 0 for v in out.values())
