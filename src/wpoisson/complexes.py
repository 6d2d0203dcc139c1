"""Degree-truncated homology of three complexes built from a homogeneous
potential: the Poisson cochain complex on multiderivations, the Koszul complex
on the gradient, and the de Rham complex; plus the exact-bivector space M2 and
the vacancy / sealedness / ozone / minimality diagnostics."""

from __future__ import annotations

from functools import lru_cache

from .hilbert import closed_form_ph, euler_rhs
from .jacobian import jacobian_basis, normal_form
from .linalg import Matrix, rank
from .ring import (
    Polynomial,
    PolyVector,
    RingError,
    check_potential,
    count_monomials,
    cross,
    curl,
    div,
    dot,
    gradient,
    monomial_basis,
)


def assemble(weights, field, src_degs, tgt_degs, fn):
    """Exact sparse matrix of a graded linear map on the deterministic
    monomial bases.  fn maps a component-split list of polynomials to the
    target component list; outputs must respect the target degrees."""
    index = []
    offsets = []
    total_rows = 0
    for td in tgt_degs:
        tb = monomial_basis(weights, td)
        index.append({m: i for i, m in enumerate(tb)})
        offsets.append(total_rows)
        total_rows += len(tb)
    rows = [{} for _ in range(total_rows)]
    zero_poly = Polynomial.zero(weights, field)
    col = 0
    for ci, sd in enumerate(src_degs):
        for m in monomial_basis(weights, sd):
            vin = [zero_poly] * len(src_degs)
            vin[ci] = Polynomial.monomial(weights, m, 1, field)
            for ti, p in enumerate(fn(vin)):
                idx = index[ti]
                off = offsets[ti]
                for mm, coef in p.terms.items():
                    pos = idx.get(mm)
                    if pos is None:
                        raise RingError("graded map output escapes its degree slot")
                    rows[off + pos][col] = coef
            col += 1
    return Matrix(total_rows, col, rows, field)


def vector_to_polys(weights, field, degs, coords):
    """inverse of the assemble() column convention: coefficient vector over
    stacked monomial bases -> list of polynomials"""
    out = []
    pos = 0
    for d in degs:
        basis = monomial_basis(weights, d)
        terms = {}
        for m in basis:
            c = coords[pos]
            pos += 1
            if not field.is_zero(c):
                terms[m] = c
        out.append(Polynomial(weights, field, terms))
    if pos != len(coords):
        raise RingError("coefficient vector does not match the degree layout")
    return out


class DimsTable:
    """exact (index, degree) -> dimension table with its truncation bound"""

    __slots__ = ("dims", "bound", "min_degree")

    def __init__(self, dims, bound, min_degree):
        self.dims = dict(dims)
        self.bound = bound
        self.min_degree = dict(min_degree)

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


def cochain_apply(omega, i, comps):
    """the degree-i cochain differential applied to component polynomials"""
    return _cochain_apply(gradient(omega), i, comps)


def _cochain_apply(grad_o, i, comps):
    """cochain_apply with the gradient of the potential already computed"""
    if i == 0:
        return list(cross(gradient(comps[0]), grad_o).comps)
    if i == 1:
        v = PolyVector(*comps)
        lead = gradient(dot(v, grad_o))
        dv = div(v)
        return [dv * g - t for g, t in zip(grad_o.comps, lead.comps)]
    if i == 2:
        v = PolyVector(*comps)
        return [-div(cross(v, grad_o))]
    raise RingError("cochain index out of range")


def cochain_matrix(omega, i, d):
    """matrix of the degree-i differential on the degree-d slice of X^i,
    mapping into the degree d+w slice of X^{i+1}"""
    n = check_potential(omega)
    weights = omega.weights
    w = n - weights.a - weights.b - weights.c
    sh = cochain_shifts(weights)
    src = [d + s for s in sh[i]]
    tgt = [d + w + s for s in sh[i + 1]]
    grad_o = gradient(omega)
    return assemble(weights, omega.field, src, tgt, lambda v: _cochain_apply(grad_o, i, v))


def cochain_matrices(omega, d):
    """the three consecutive matrices starting at the degree-d slice of X^0;
    consecutive products are zero"""
    n = check_potential(omega)
    w = n - omega.weights.a - omega.weights.b - omega.weights.c
    return (
        cochain_matrix(omega, 0, d),
        cochain_matrix(omega, 1, d + w),
        cochain_matrix(omega, 2, d + 2 * w),
    )


@lru_cache(maxsize=65536)
def _cochain_rank(omega, i, d):
    return rank(cochain_matrix(omega, i, d))


def _space_dim(weights, shifts, d):
    return sum(count_monomials(weights, d + s) for s in shifts)


def ph_dims(omega, bound):
    """Poisson cohomology dimensions PH^0..PH^3 per degree, down from
    -(a+b+c) up to the bound"""
    n = check_potential(omega)
    weights = omega.weights
    w = n - weights.a - weights.b - weights.c
    sh = cochain_shifts(weights)
    dmin = -(weights.a + weights.b + weights.c)
    dims = {}
    for i in range(4):
        for d in range(dmin, bound + 1):
            dim_x = _space_dim(weights, sh[i], d)
            if dim_x == 0:
                dims[(i, d)] = 0
                continue
            r_out = _cochain_rank(omega, i, d) if i < 3 else 0
            r_in = _cochain_rank(omega, i - 1, d - w) if i > 0 else 0
            dims[(i, d)] = dim_x - r_out - r_in
    floors = {i: -max(sh[i]) for i in range(4)}
    return DimsTable(dims, bound, floors)


def ph_closed_form_rows(omega, bound):
    """PH^0..PH^3 per degree beside their closed forms, from -max(n, a+b+c)
    (every cochain space below is zero) up to the bound.  Returns (rows,
    matches): a row holds degree, ph0..ph3 and, when n = a+b+c (the only
    degree the closed forms cover), closed0..closed3; matches maps ph0..ph3
    to whether the column equals its closed form, or is None when they do
    not apply."""
    n = check_potential(omega)
    weights = omega.weights
    lo = -max(n, weights.n_default)
    if bound < lo:
        raise RingError("empty degree window: truncation bound %d is below %d" % (bound, lo))
    tab = ph_dims(omega, bound)
    applicable = n == weights.n_default
    closed = ([closed_form_ph(weights, i, n).expand(lo, bound) for i in range(4)]
              if applicable else [])
    rows = []
    for d in range(lo, bound + 1):
        row = {"degree": d}
        row.update(("ph%d" % i, tab.dim(i, d)) for i in range(4))
        row.update(("closed%d" % i, col[d - lo]) for i, col in enumerate(closed))
        rows.append(row)
    if not applicable:
        return rows, None
    return rows, {"ph%d" % i: [r["ph%d" % i] for r in rows] == closed[i] for i in range(4)}


# ---------------------------------------------------------------------------
# exact bivectors M2, vacancy, ozone, minimality


def _m2_matrix(omega, d):
    """columns: multiples of grad(O) from degree d-w, then gradients from
    degree d+a+b+c"""
    n = check_potential(omega)
    a, b, c = omega.weights.tuple
    w = n - a - b - c
    grad_o = gradient(omega)

    def fn(v):
        return [v[0] * g + h for g, h in zip(grad_o.comps, gradient(v[1]).comps)]

    return assemble(omega.weights, omega.field, [d - w, d + a + b + c],
                    [d + b + c, d + a + c, d + a + b], fn)


@lru_cache(maxsize=65536)
def _m2_dim(omega, d):
    return rank(_m2_matrix(omega, d))


def m2_dims(omega, bound):
    """dimensions of the exact-bivector space M2 per degree"""
    weights = omega.weights
    dmin = -(weights.a + weights.b + weights.c)
    return {d: _m2_dim(omega, d) for d in range(dmin, bound + 1)}


def vacancy_check(omega, bound):
    """per-degree upper-division dimensions: ker of the top differential
    modulo M2; the potential is vacant up to the bound iff all zero"""
    check_potential(omega, "vacancy diagnostic requires degree a+b+c")
    weights = omega.weights
    sh = cochain_shifts(weights)
    dmin = -(weights.a + weights.b + weights.c)
    out = {}
    for d in range(dmin, bound + 1):
        dim_x2 = _space_dim(weights, sh[2], d)
        if dim_x2 == 0:
            out[d] = 0
            continue
        ker = dim_x2 - _cochain_rank(omega, 2, d)
        out[d] = ker - _m2_dim(omega, d)
    return out


def ozone_vs_hamiltonian(omega, bound):
    """per-degree dimensions {d: (ozone, hamiltonian)}: derivations that are
    cocycles killing the potential, vs the image of the hamiltonian map"""
    n = check_potential(omega, "ozone diagnostic requires degree a+b+c")
    weights = omega.weights
    grad_o = gradient(omega)
    sh = cochain_shifts(weights)
    out = {}
    for d in range(-(max(weights.tuple)), bound + 1):
        dim_x1 = _space_dim(weights, sh[1], d)
        if dim_x1 == 0:
            out[d] = (0, 0)
            continue
        src = [d + s for s in sh[1]]
        tgt = [d + s for s in sh[2]] + [d + n]

        def stacked(v):
            top = _cochain_apply(grad_o, 1, v)
            return top + [dot(PolyVector(*v), grad_o)]

        m = assemble(weights, omega.field, src, tgt, stacked)
        od = dim_x1 - rank(m)
        hd = _cochain_rank(omega, 0, d)
        out[d] = (od, hd)
    return out


def ph1_minimality_check(omega, bound):
    """per-degree booleans: does PH^1 look like a free rank-one module over
    the subalgebra generated by the potential"""
    n = check_potential(omega)
    table = ph_dims(omega, bound)
    out = {}
    for d in range(-(max(omega.weights.tuple)), bound + 1):
        expected = 1 if d >= 0 and d % n == 0 else 0
        out[d] = table.dim(1, d) == expected
    return out


# ---------------------------------------------------------------------------
# Koszul complex on the gradient


def koszul_component_degs(omega, d):
    n = omega.homogeneous_degree()
    a, b, c = omega.weights.tuple
    return (
        [d],
        [d - n + a, d - n + b, d - n + c],
        [d - 2 * n + b + c, d - 2 * n + a + c, d - 2 * n + a + b],
        [d - 3 * n + a + b + c],
    )


def _koszul_matrix(omega, i, d):
    """matrix of the Koszul differential K_i -> K_{i-1} at total degree d"""
    weights = omega.weights
    grad_o = gradient(omega)
    degs = koszul_component_degs(omega, d)
    if i == 1:
        fn = lambda v: [dot(PolyVector(*v), grad_o)]
    elif i == 2:
        fn = lambda v: list(cross(PolyVector(*v), grad_o).comps)
    elif i == 3:
        fn = lambda v: [v[0] * g for g in grad_o.comps]
    else:
        raise RingError("koszul index out of range")
    return assemble(weights, omega.field, degs[i], degs[i - 1], fn)


@lru_cache(maxsize=65536)
def _koszul_rank(omega, i, d):
    return rank(_koszul_matrix(omega, i, d))


def koszul_dims(omega, bound):
    """Koszul homology dimensions H_0..H_3 per total degree"""
    check_potential(omega)
    weights = omega.weights
    dims = {}
    for d in range(0, bound + 1):
        degs = koszul_component_degs(omega, d)
        space = [sum(count_monomials(weights, e) for e in degs[i]) for i in range(4)]
        r = [0] * 4
        for i in (1, 2, 3):
            r[i] = _koszul_rank(omega, i, d) if space[i] else 0
        dims[(0, d)] = space[0] - r[1]
        dims[(1, d)] = space[1] - r[1] - r[2]
        dims[(2, d)] = space[2] - r[2] - r[3]
        dims[(3, d)] = space[3] - r[3]
    floors = {0: 0, 1: 0, 2: 0, 3: 0}
    return DimsTable(dims, bound, floors)


def sealed_k1_dims(omega, bound):
    """per-degree dimensions of sealed first Koszul homology: cycles whose
    divergence vanishes in the singular quotient, modulo boundaries.
    Returns ({degree: dim}, all-zero flag)."""
    n = check_potential(omega)
    weights = omega.weights
    grad_o = gradient(omega)
    gb = jacobian_basis(omega)
    out = {}
    for d in range(0, bound + 1):
        degs = koszul_component_degs(omega, d)
        dim_k1 = sum(count_monomials(weights, e) for e in degs[1])
        if dim_k1 == 0:
            out[d] = 0
            continue
        tgt = [d, d - n]

        def cycle_and_seal(v):
            vec = PolyVector(*v)
            return [dot(vec, grad_o), normal_form(div(vec), gb)]

        stacked = assemble(weights, omega.field, degs[1], tgt, cycle_and_seal)
        sealed = dim_k1 - rank(stacked)
        boundary = _koszul_rank(omega, 2, d) if sum(
            count_monomials(weights, e) for e in degs[2]
        ) else 0
        out[d] = sealed - boundary
    return out, all(v == 0 for v in out.values())


# ---------------------------------------------------------------------------
# de Rham complex


def derham_exactness_check(weights, bound, field=None):
    """rank check that the weighted de Rham complex is exact apart from the
    constants in degree zero; true is the only healthy answer"""
    from .ring import QQ

    field = field or QQ
    a, b, c = weights.tuple
    one_forms = [-a, -b, -c]
    two_forms = [-b - c, -a - c, -a - b]

    def gradmap(v):
        return list(gradient(v[0]).comps)

    def curlmap(v):
        return list(curl(PolyVector(*v)).comps)

    def divmap(v):
        return [div(PolyVector(*v))]

    for d in range(0, bound + 1):
        dim_a = count_monomials(weights, d)
        dim_1 = sum(count_monomials(weights, d + s) for s in one_forms)
        dim_2 = sum(count_monomials(weights, d + s) for s in two_forms)
        dim_3 = count_monomials(weights, d - a - b - c)
        rank_g = rank(assemble(weights, field, [d], [d + s for s in one_forms], gradmap))
        rank_c = rank(
            assemble(
                weights, field, [d + s for s in one_forms], [d + s for s in two_forms], curlmap
            )
        )
        rank_d = rank(
            assemble(weights, field, [d + s for s in two_forms], [d - a - b - c], divmap)
        )
        if dim_a - rank_g != (1 if d == 0 else 0):
            return False
        if dim_1 - rank_c != rank_g:
            return False
        if dim_2 - rank_d != rank_c:
            return False
        if rank_d != dim_3:
            return False
    return True


# ---------------------------------------------------------------------------
# Euler characteristic of the truncated cochain complex


def euler_characteristic_check(omega, bound):
    """verify that the alternating sum of cohomology dimensions matches the
    closed rational function forced by additivity of Hilbert series"""
    n = check_potential(omega)
    weights = omega.weights
    w = n - weights.a - weights.b - weights.c
    pad = 3 * abs(w)
    table = ph_dims(omega, bound + pad)
    rhs = euler_rhs(weights, n)
    lo = -(weights.a + weights.b + weights.c) - pad
    coeffs = rhs.expand(lo, bound)
    for e in range(lo, bound + 1):
        lhs = sum((-1) ** i * table.dim(i, e + i * w) for i in range(4))
        if lhs != coeffs[e - lo]:
            return False
    return True
