"""Degree-truncated homology of two complexes built from a homogeneous
potential: the Poisson cochain complex on multiderivations and the Koszul
complex on the gradient; plus the exact-bivector space M2 and the vacancy /
sealedness / ozone diagnostics.

Most ranks come from identities, not matrices; g = grad(O) is nonzero by
Euler's identity, in the domain k[x,y,z], and T_d = (v . g ; div v) on the
degree-d derivations.  M2: f g is a gradient iff curl(f g) = d0(f) is zero,
as the weighted de Rham complex is exact.  Ozone: d1(v) = div(v) g -
grad(v . g), so T_d serves ozone and rgt, its table serves the sealed
block below and [T_d | c] for d1, and its rank, memoised once per degree
(read off that block where the block is eliminated), serves d1 and d2 too.
Koszul: K3 -> K2, v0 -> v0 g, is injective.

d0: contracting df ^ dO = 0 with the Euler field gives n O df = k f dO for
a Casimir f of degree k > 0, so f^n / O^k is constant, and by unique
factorisation f is a scalar times a power of the primitive root R of O (O =
c R^r, r maximal).  So rank d0_d = #A_d - [d >= 0 and e | d], e = deg R.

K2: with h the gcd of the partials, of degree p, and g = h g', v x g =
h (v x g').  The coprime entries of g' generate the unit ideal or one of
depth >= 2, so H2(g') = 0 by depth sensitivity: ker K2 = A g', and rank
K2_d = dim K2_d - #A_{d-d0}, d0 = 3n - (a+b+c) - p, where p is at most the
least degree p_max of a nonzero partial.

d2: read as vector fields, -div(v x g) = -g . curl(v); curl maps X2_d onto
the divergence-free derivations of degree d, and div(f E) = (d+a+b+c) f for
the Euler field E, so div is onto A_d.  Hence rank d2_d = rank T_d - #A_d.

d1: d1 = L T with L(h, f) = f g - grad(h), so ker d1_d = T_d^-1(ker L_d).
By Euler's identity (h, f) lies in ker L exactly when f is a Casimir (d0
f = 0) and h = n f O/(d+n).  So ker L_d is 0 in a degree with no Casimir,
and there rank d1_d = rank T_d.  Otherwise one vector c spans it: c =
(n f O, (d+n) f), f spanning ker d0_d, when d+n is not zero, and c =
(1, 0) when d = -n, as A_d is then 0 and grad h = 0 leaves the constants.
Then ker d1_d is the projection (v, t) -> v of the kernel of [T_d | c], c
its last column, and the projection is injective, as c is not zero; so
rank d1_d = rank [T_d | c] - 1.  When n = a+b+c, c is T(f E/(d+n)), E the
Euler field, so it lies in the image of T_d and rank d1_d = rank T_d -
dim ker d0_d with no matrix.  Every nonzero kernel vector has a nonzero
v-part, and its first nonzero coordinate is that of its v-part.  Under
last-column pivots a column is free exactly when it is the first nonzero
coordinate of a kernel vector (``linalg``), so c's column is a pivot and
the free columns of [T_d | c] are those of d1_d.  The kernel normal form
is the one basis with a one in a free column and zeros in the others;
projected, it keeps that shape, so it is the kernel normal form of d1_d
(``derivation_kernel``).  T_d comes from the sealed block's table and c
from a one-column table, with f = O^(d/n) where n divides d, as O is a
Casimir, and f read off ker d0_d otherwise.

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

The same elimination gives rank T_e, as T_e is B_e without its u columns,
which come first; B, T and [T | c] share one table, and one builder
(``_t_block``) assembles them, T_e with the u source at degree -1, which
has no monomial.  ``linalg`` pivots each row on its last column, so the
pivot rows are a basis of the row space with distinct last columns.  A
row-space vector supported below a column j is a combination of them in
which no pivot row past j takes part, as the largest such pivot would
survive; so those vectors are exactly the span of the pivot rows below j.
They are the kernel of the cut of the row space to the columns >= j, so
the pivots in columns >= j number rank B[:, >= j], over K = Q[s]/(m) too,
where ``linalg.pivot_columns`` counts whole blocks of k Q-columns.

Every per-degree table sweeps a window of degrees from its lowest nonzero
slot up to the truncation bound D, and refuses, before it lists a monomial,
a window with no degree, as every flag over an empty table would hold
vacuously, or one whose maps would list too many monomials (``_window``).
The maps of one degree, ``ozone_dim`` and ``derivation_kernel``, count the
slices they list against the same budget (``_slice_budget``).

Each operator table (d0, Koszul, ozone) depends only on the potential
and the index, so it is built once per potential, memoised beside the
ranks, and shared by every degree; ``op_table`` makes tables immutable for
that reason.  A table over Q(s) whose coefficients have no s-part is made
over Q, and so are its matrices (``linalg`` docstring)."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .hilbert import closed_form_ph
from .linalg import assemble, kernel_basis, op_table, pivot_columns, rank, vector_to_polys
from .ring import QQ, RingError, check_potential, count_monomials, gradient


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
# Poisson cochain complex


def cochain_shifts(weights):
    """component shifts of the multiderivation spaces X^0..X^3"""
    a, b, c = weights.tuple
    return ((0,), (a, b, c), (b + c, a + c, a + b), (a + b + c,))


@lru_cache(maxsize=1024)
def _d0_table(omega):
    """operator table of d0, f -> grad(f) x g, from the gradient g of the
    potential; the ranks of d1 and d2 come from T_d (module docstring)"""
    g = gradient(omega).comps
    # component k is g_{k+2} f_{k+1} - g_{k+1} f_{k+2} (indices mod 3)
    return op_table(omega.field, [(k, 0, (k + j) % 3, sign * g[(k - j) % 3])
                                  for k in range(3) for j, sign in ((1, 1), (2, -1))])


def _d0_matrix(omega, d):
    """matrix of d0 on A_d, mapping into the degree d+w slice of X^1"""
    weights = omega.weights
    w = omega.homogeneous_degree() - weights.n_default
    return assemble(weights, [d], [d + w + s for s in weights.tuple], _d0_table(omega))


@lru_cache(maxsize=65536)
def _cochain_rank(omega, i, d):
    """rank of the degree-i differential on the degree-d slice of X^i: d0
    from the Casimir degree, d2 from rank T_d, and d1 from rank T_d or,
    where a Casimir column c need not lie in the image of T_d, from rank
    [T_d | c] (module docstring)"""
    weights = omega.weights
    if _space_dim(weights, cochain_shifts(weights)[i], d) == 0:
        return 0
    if i == 2:
        return _ozone_rank(omega, d) - count_monomials(weights, d)
    casimirs = _casimirs(omega, d)
    if i == 0:
        return count_monomials(weights, d) - casimirs
    n = omega.homogeneous_degree()
    if d + n and (not casimirs or n == weights.n_default):
        return _ozone_rank(omega, d) - casimirs
    return rank(_t_block(omega, d, column=_casimir_column(omega, d))) - 1


def _casimirs(omega, d):
    """dim ker d0_d: 1 where a power of R has degree d, else 0"""
    return int(d == 0 or d > 0 and d % _casimir_degree(omega) == 0)


@lru_cache(maxsize=1024)
def _casimir_degree(omega):
    """e = deg R: the least divisor of n with a Casimir (module docstring)"""
    n = omega.homogeneous_degree()
    return next(e for e in range(1, n + 1) if n % e == 0 and (
        e == n or rank(_d0_matrix(omega, e)) < count_monomials(omega.weights, e)))


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
    - the Casimir search reaches 2n;
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


def _slice_budget(omega, name, d, degrees):
    """refuse the degree-d map of omega whose slices have these degrees when
    they hold more than WINDOW_BUDGET monomials.  Like ``_window``'s, the
    count lists no monomial: with c the largest weight, those of degree t
    with z^k solve a i + b j = t - c k, whose solutions j form one residue
    class mod a/gcd(a, b); it stops at the budget."""
    a, b, c = sorted(omega.weights.tuple)
    g = math.gcd(a, b)
    step = a // g
    inverse = pow(b // g, -1, step)
    count = 0
    for t in degrees:
        for k in range(t // c + 1):
            r = t - c * k
            if r % g:
                continue
            j = r // g * inverse % step  # the least j with b j = r mod a
            if b * j <= r:
                count += (r - b * j) // (b * step) + 1
                if count > WINDOW_BUDGET:
                    raise RingError(
                        "degree %d is over budget: the slices of its %s map hold more "
                        "than %d monomials" % (d, name, WINDOW_BUDGET))


def _ph_window(omega, bound):
    """the cohomology window, from -max(n, a+b+c): every cochain space
    below -(a+b+c) is zero"""
    n = check_potential(omega)
    return _window(omega, "cohomology", -max(n, omega.weights.n_default), bound)


def ph_dims(omega, bound):
    """Poisson cohomology dimensions PH^0..PH^3 per degree, down from
    -max(n, a+b+c) up to the bound"""
    degrees = _ph_window(omega, bound)
    weights = omega.weights
    w = omega.homogeneous_degree() - weights.n_default
    sh = cochain_shifts(weights)
    dims = {}
    for i in range(4):
        for d in degrees:
            dim_x = _space_dim(weights, sh[i], d)
            if dim_x == 0:
                dims[(i, d)] = 0
                continue
            r_out = _cochain_rank(omega, i, d) if i < 3 else 0
            r_in = _cochain_rank(omega, i - 1, d - w) if i > 0 else 0
            dims[(i, d)] = dim_x - r_out - r_in
    return DimsTable(dims, bound)


def ph_closed_form_rows(omega, bound):
    """PH^0..PH^3 per degree beside their closed forms, from -max(n, a+b+c)
    (every cochain space below is zero) up to the bound.  Returns (rows,
    matches): a row holds degree, ph0..ph3 and, when n = a+b+c (the only
    degree the closed forms cover), closed0..closed3; matches maps ph0..ph3
    to whether the column equals its closed form, or is None when they do
    not apply."""
    degrees = _ph_window(omega, bound)
    tab = ph_dims(omega, bound)
    weights = omega.weights
    n = omega.homogeneous_degree()
    applicable = n == weights.n_default
    closed = ([closed_form_ph(weights, i, n).expand(degrees.start, bound) for i in range(4)]
              if applicable else [])
    rows = []
    for d in degrees:
        row = {"degree": d}
        row.update(("ph%d" % i, tab.dim(i, d)) for i in range(4))
        row.update(("closed%d" % i, col[d - degrees.start]) for i, col in enumerate(closed))
        rows.append(row)
    if not applicable:
        return rows, None
    return rows, {"ph%d" % i: [r["ph%d" % i] for r in rows] == closed[i] for i in range(4)}


# ---------------------------------------------------------------------------
# exact bivectors M2, vacancy, ozone, minimality


def _m2_dim(omega, d):
    """dim M2_d: the gradients of degree d+a+b+c (a constant has none), plus
    the multiples f g from degree d-w, less the f g that are gradients.  Those
    are the f with d0(f) = 0, so the multiples add rank d0 at degree d-w."""
    weights = omega.weights
    abc = weights.a + weights.b + weights.c
    e = d - check_potential(omega) + abc
    grads = count_monomials(weights, d + abc) - (d == -abc)
    return grads + _cochain_rank(omega, 0, e)


def vacancy_check(omega, bound):
    """per-degree upper-division dimensions: ker of the top differential
    modulo M2, so dim X2_d - rank d2 - #A_{d+n} + [d = -n] - rank d0 at
    degree d; the potential is vacant up to the bound iff all zero"""
    n = check_potential(omega, "vacancy diagnostic requires degree a+b+c")
    x2 = cochain_shifts(omega.weights)[2]
    return {d: _space_dim(omega.weights, x2, d) - _cochain_rank(omega, 2, d) - _m2_dim(omega, d)
            for d in _window(omega, "vacancy", -n, bound)}


def _first_partial(omega):
    """the index i of g_i, the first nonzero partial"""
    return next(v for v in range(3) if not omega.partial(v).is_zero())


@lru_cache(maxsize=1024)
def _ozone_table(omega):
    """operator table of the sealed block B(u, v) = (v . g ; div v - u g_i):
    u on source 0, then T = (v . g ; div v) on the derivations v on sources
    1..3 (module docstring)"""
    g = gradient(omega).comps
    return op_table(omega.field, [(1, 0, None, -g[_first_partial(omega)])]
                    + [(0, s + 1, None, g[s]) for s in range(3)]
                    + [(1, s + 1, s, 1) for s in range(3)])


def _t_block(omega, d, u_deg=-1, column=None):
    """the map of the ozone table at degree d, into A_{d+n} + A_d: B_d with
    its u source at u_deg, T_d with it at the default -1, which has no
    monomial, and [T_d | c] given the column c = (h, f), on one more source,
    the monomial 1, over the field of T's table (module docstring)"""
    weights = omega.weights
    field, terms = _ozone_table(omega)
    src = [u_deg] + [d + w for w in weights.tuple]
    if column is not None:
        terms += op_table(omega.field, [(t, 4, None, p) for t, p in enumerate(column)],
                          reduce=field == QQ)[1]
        src.append(0)
    return assemble(weights, src, [d + omega.homogeneous_degree(), d], (field, terms))


@lru_cache(maxsize=1024)
def _t_ranks(omega):
    """the memo of rank T_d by degree d, one per potential: the sealed block
    fills it, and ``_ozone_rank`` the degrees it leaves out"""
    return {}


def _ozone_rank(omega, d):
    """rank of T_d: X1_d -> A_{d+n} + A_d, read off the sealed block where
    that was eliminated first, else from T_d alone; 0 where X1_d = 0, with
    no matrix"""
    ranks = _t_ranks(omega)
    r = ranks.get(d)
    if r is None:
        weights = omega.weights
        r = rank(_t_block(omega, d)) if _space_dim(weights, weights.tuple, d) else 0
        ranks[d] = r
    return r


def _ozone_dim(omega, d):
    return _space_dim(omega.weights, omega.weights.tuple, d) - _ozone_rank(omega, d)


def ozone_dim(omega, d):
    """dimension of the degree-d derivations v with v . g = 0 and div v = 0,
    the kernel of T_d = (v . g ; div v): the ozone space, the cocycles that
    kill the potential, as d1(v) = div(v) g - grad(v . g).  Refused before
    any monomial is listed when the slices of T_d are over budget
    (``_slice_budget``)."""
    n = check_potential(omega)
    a, b, c = omega.weights.tuple
    _slice_budget(omega, "ozone", d, (d + a, d + b, d + c, d + n, d))
    return _ozone_dim(omega, d)


def _casimir_column(omega, d):
    """c = (h, f) spanning ker L_d, up to a scalar, or None where ker L_d = 0
    (module docstring); it calls no gradient"""
    n = omega.homogeneous_degree()
    if d == -n:
        return 1, 0
    if d < 0 or not _casimirs(omega, d):
        return None
    if d % n == 0:
        f = omega ** (d // n)  # a Casimir, as O is one
    else:
        (coords,) = kernel_basis(_d0_matrix(omega, d))
        (f,) = vector_to_polys(omega.weights, omega.field, [d], coords)
    # c / n
    return f * omega, Fraction(d + n, n) * f


def derivation_kernel(omega, d):
    """the kernel normal form of d1 on the degree-d derivations, as vectors
    over the slices d+a, d+b, d+c of X1_d, read off T_d with no d1 matrix:
    the projection of the kernel of [T_d | c], c spanning ker L_d (module
    docstring).  Refused before any monomial is listed when the slices of
    d1 and T_d, and for d > 0 those of the Casimir search, are over budget
    (``_slice_budget``)."""
    n = check_potential(omega)
    weights = omega.weights
    degrees = [d + w for w in weights.tuple] + [d + n, d] + [d + n - w for w in weights.tuple]
    if d > 0:
        degrees += [e + t for e in range(1, n + 1) if n % e == 0
                    for t in (0, *(n - w for w in weights.tuple))]
    _slice_budget(omega, "derivation", d, degrees)
    dim = _space_dim(weights, weights.tuple, d)
    if not dim:
        return []
    return [v[:dim] for v in kernel_basis(_t_block(omega, d, column=_casimir_column(omega, d)))]


def ozone_vs_hamiltonian(omega, bound):
    """per-degree dimensions {d: (ozone, hamiltonian)}: derivations that are
    cocycles killing the potential, i.e. with v . g = 0 and div v = 0 (see
    ``ozone_dim``), vs the image of the hamiltonian map"""
    check_potential(omega, "ozone diagnostic requires degree a+b+c")
    return {d: (_ozone_dim(omega, d), _cochain_rank(omega, 0, d))
            for d in _window(omega, "ozone", -max(omega.weights.tuple), bound)}


# ---------------------------------------------------------------------------
# Koszul complex on the gradient


def koszul_component_degs(omega, d):
    """component degrees of K_0..K_3 at total degree d: K_i is X^i at
    degree d - i n"""
    n = omega.homogeneous_degree()
    shifts = cochain_shifts(omega.weights)
    return [[d - i * n + s for s in shifts[i]] for i in range(4)]


@lru_cache(maxsize=1024)
def _koszul_table(omega, i):
    """operator table of the Koszul differential K_i -> K_{i-1}"""
    g = gradient(omega).comps
    if i == 1:
        # v . g
        terms = [(0, s, None, g[s]) for s in range(3)]
    elif i == 2:
        # v x g: component k is g_{k+2} v_{k+1} - g_{k+1} v_{k+2}
        terms = [(k, (k + j) % 3, None, sign * g[(k - j) % 3])
                 for k in range(3) for j, sign in ((1, 1), (2, -1))]
    else:
        raise RingError("koszul index out of range")
    return op_table(omega.field, terms)


def koszul_matrix(omega, i, d):
    """matrix of the Koszul differential K_i -> K_{i-1} at total degree d,
    for i = 1, 2 (K3 -> K2 is injective and never assembled)"""
    degs = koszul_component_degs(omega, d)
    return assemble(omega.weights, degs[i], degs[i - 1], _koszul_table(omega, i))


def _koszul_dim(omega, i, d):
    weights = omega.weights
    return _space_dim(weights, cochain_shifts(weights)[i], d - i * omega.homogeneous_degree())


@lru_cache(maxsize=65536)
def _koszul_rank(omega, i, d):
    """rank of K_i -> K_{i-1} at total degree d, K2 by Koszul depth (module docstring)"""
    dim = _koszul_dim(omega, i, d)
    if i == 2 and d < _k2_window(omega).start:
        return dim
    if i == 2 and d >= _k2_window(omega).stop:
        return dim - count_monomials(omega.weights, d - _koszul_kernel_degree(omega))
    return rank(koszul_matrix(omega, i, d)) if dim else 0


@lru_cache(maxsize=1024)
def _k2_window(omega):
    """the degrees 3n - (a+b+c) - p_max .. 3n - (a+b+c), where d0 lies"""
    n = omega.homogeneous_degree()
    top = 3 * n - omega.weights.n_default
    p_max = min(n - w for v, w in enumerate(omega.weights.tuple) if not omega.partial(v).is_zero())
    return range(top - p_max, top + 1)


@lru_cache(maxsize=1024)
def _koszul_kernel_degree(omega):
    """d0 = 3n - (a+b+c) - deg gcd(g): the first degree where K2 has a kernel"""
    return next(d for d in _k2_window(omega)
                if _koszul_rank(omega, 2, d) < _koszul_dim(omega, 2, d))


def koszul_dims(omega, bound):
    """Koszul homology dimensions H_0..H_3 per total degree; rank K3 is
    dim K3, as v0 -> v0 g is injective, so H_3 is zero"""
    check_potential(omega)
    dims = {}
    for d in _window(omega, "koszul", 0, bound):
        space = [_koszul_dim(omega, i, d) for i in range(4)]
        r1, r2 = _koszul_rank(omega, 1, d), _koszul_rank(omega, 2, d)
        dims[(0, d)] = space[0] - r1
        dims[(1, d)] = space[1] - r1 - r2
        dims[(2, d)] = space[2] - r2 - space[3]
        dims[(3, d)] = 0
    return DimsTable(dims, bound)


def sealed_k1_dims(omega, bound):
    """per-degree dimensions of sealed first Koszul homology: cycles whose
    divergence lies in the Jacobian ideal, modulo boundaries, from the rank
    of the block map B (module docstring).  Returns ({degree: dim}, all-zero
    flag)."""
    n = check_potential(omega)
    weights = omega.weights
    w_i = weights.tuple[_first_partial(omega)]
    t_ranks = _t_ranks(omega)
    out = {}
    for d in _window(omega, "sealed", 0, bound):
        # K1 at degree d is X1 at degree e = d - n
        e = d - n
        dim_v = _koszul_dim(omega, 1, d)
        if not dim_v:
            out[d] = 0
            continue
        u_deg = e - n + w_i
        pivots = pivot_columns(_t_block(omega, e, u_deg))
        # rank T_e: the pivots past the u columns (module docstring)
        u_cols = count_monomials(weights, u_deg)
        t_ranks[e] = sum(c >= u_cols for c in pivots)
        out[d] = dim_v - len(pivots) + _koszul_rank(omega, 1, e) - _koszul_rank(omega, 2, d)
    return out, all(v == 0 for v in out.values())
