"""Test-local reference matrices: every graded map evaluated column by
column on Polynomials, independently of the operator tables, plus the
matrices whose ranks the package now derives from identities (the M2 map,
the cochain maps d0, d1 and d2, d1 stacked over v . grad(O), the Koszul
maps K2 -> K1 and K3 -> K2, and the cycle condition over div v reduced
modulo the Jacobian ideal, whose rank the package now takes from a block map).  The operator
tables of d1, with its Hessian terms, and d2 live here too: the package
derives both ranks from the (v . grad(O) ; div v) map, with one more
column for a Casimir, and assembles neither.  So does the pairwise
gcd fold, which sweeps degrees where the package reads deg gcd off the
Hilbert numerator, Bigatti's pivot recursion for that numerator, which the
package now reads off the z-slices of the initial ideal, and the lcm-table
scan of the critical pairs, which the package now makes coordinate by
coordinate, and the eager inter-reduction of a minimal Groebner basis,
which the package now makes when the reduced basis is first read.
Last, the Poisson layer at the level of its definitions: the bracket by
components, the jacobiator from three brackets, the modular
derivation from the divergences of the Hamiltonians, the twist by
components and the determinant by cofactors, which the package now reads
off the vector field P = ({y,z}, {z,x}, {x,y}); and the automorphism test
by the gradient of the composed potential, where the package checks the
generator brackets.  And the graded derivations commuting with the
bracket as the kernel of the assembled d1 matrix, which the package now
reads off (v . grad(O) ; div v) with one more column for a Casimir.

Beside them, the checks and tables that only the tests call: the de Rham
exactness check, the alternating-sum (Euler characteristic) identity of a
cohomology table, the M2 table, the standard monomials outside a set of
heads, the bracket-compatible derivations in negative degree, and the top
degree that the maps of a truncation window reach."""

from functools import lru_cache
from itertools import combinations

from wpoisson import complexes, gradient, normal_form, rank
from wpoisson.complexes import _cochain_rank, _m2_dim, _window, ph_dims
from wpoisson.hilbert import _laurent_sub, _product_one_minus
from wpoisson.jacobian import jacobian_basis
from wpoisson.linalg import Matrix, assemble, kernel_basis, op_table, vector_to_polys
from wpoisson.poisson import PoissonStructure
from wpoisson.ring import (QQ, Polynomial, PolyVector, RingError, check_potential,
                           count_monomials, cross, curl, div, dot, mono_key, monomial_basis)

from closed_forms import euler_rhs


def mono_mul(m1, m2):
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def mono_divides(m1, m2) -> bool:
    return m1[0] <= m2[0] and m1[1] <= m2[1] and m1[2] <= m2[2]


def mono_lcm(m1, m2):
    return (max(m1[0], m2[0]), max(m1[1], m2[1]), max(m1[2], m2[2]))


def reference_assemble(weights, field, src_degs, tgt_degs, fn):
    """the callback assembler: evaluate fn on every source monomial as a
    component list of Polynomials and read the output terms"""
    index, offsets, total = [], [], 0
    for td in tgt_degs:
        tb = monomial_basis(weights, td)
        index.append({m: i for i, m in enumerate(tb)})
        offsets.append(total)
        total += len(tb)
    rows = [{} for _ in range(total)]
    zero = Polynomial.zero(weights, field)
    col = 0
    for ci, sd in enumerate(src_degs):
        for m in monomial_basis(weights, sd):
            vin = [zero] * len(src_degs)
            vin[ci] = Polynomial.monomial(weights, m, 1, field)
            for ti, p in enumerate(fn(vin)):
                for mm, coef in p.terms.items():
                    pos = index[ti].get(mm)
                    if pos is None:
                        raise RingError("graded map output escapes its degree slot")
                    rows[offsets[ti] + pos][col] = coef
            col += 1
    return Matrix.restricted(total, col, restrict(field, rows), field)


def field_powers(field):
    """the basis 1, s, ..., s^(k-1) of the field over Q, k = deg m (just 1
    over Q)"""
    powers = [field.one]
    for _ in range(field.degree - 1):
        powers.append(powers[-1] * field.generator)
    return powers


def restrict(field, rows):
    """restriction of scalars of field-valued dict rows, by products of
    field elements and independently of ``ExtensionField.block``: over
    Q[s]/(m), deg m = k, Q-row i*k+u and Q-column j*k+t hold the s^u
    coefficient of M_ij * s^t; over Q the rows as they are"""
    if field == QQ:
        return rows
    k = field.degree
    powers = field_powers(field)
    out = []
    for row in rows:
        block = [{} for _ in range(k)]
        for j, c in row.items():
            for t, p in enumerate(powers):
                for u, q in enumerate((field.coerce(c) * p).coeffs):
                    if q:
                        block[u][j * k + t] = q
        out += block
    return out


def reference_cochain(grad_o, i, comps):
    if i == 0:
        return list(cross(gradient(comps[0]), grad_o).comps)
    v = PolyVector(*comps)
    if i == 1:
        lead = gradient(dot(v, grad_o))
        dv = div(v)
        return [dv * g - t for g, t in zip(grad_o.comps, lead.comps)]
    return [-div(cross(v, grad_o))]


def cochain2_table(omega):
    """operator table of the degree-2 cochain differential -div(v x g): the
    Hessian terms cancel (indices mod 3)"""
    g = gradient(omega).comps
    return op_table(omega.field, [(0, (k + 2) % 3, k, g[(k + 1) % 3]) for k in range(3)]
                    + [(0, (k + 1) % 3, k, -g[(k + 2) % 3]) for k in range(3)])


@lru_cache(maxsize=1024)
def cochain1_table(omega):
    """operator table of the degree-1 cochain differential div(v) g -
    grad(v . g): the d_k v_k terms cancel, and the Hessian terms stay
    (indices mod 3)"""
    g = gradient(omega).comps
    return op_table(omega.field,
                    [(k, s, s, g[k]) for k in range(3) for s in range(3) if s != k]
                    + [(k, s, k, -g[s]) for k in range(3) for s in range(3) if s != k]
                    + [(k, s, None, -g[s].partial(k)) for k in range(3) for s in range(3)])


def _cochain_table(omega, i):
    """the package's table for d0, ours for d1 and d2"""
    if i == 0:
        return complexes._d0_table(omega)
    return cochain1_table(omega) if i == 1 else cochain2_table(omega)


def _cochain_degs(omega, i, d):
    """source and target component degrees of the degree-i cochain
    differential on the degree-d slice of X^i"""
    w = omega.homogeneous_degree() - omega.weights.n_default
    sh = complexes.cochain_shifts(omega.weights)
    return [d + s for s in sh[i]], [d + w + s for s in sh[i + 1]]


def cochain_matrix(omega, i, d):
    """matrix of the degree-i cochain differential on the degree-d slice of
    X^i from the operator tables: the package's for d0, ours for d1 and d2"""
    return assemble(omega.weights, *_cochain_degs(omega, i, d), _cochain_table(omega, i))


def derivations_by_d1(s, d):
    """the degree-d derivations commuting with the bracket of a
    potential-tagged structure, as the kernel normal form of the assembled
    d1 matrix on the degree-d slice of X^1"""
    weights = s.weights
    degs = [d + w for w in weights.tuple]
    if not any(count_monomials(weights, e) for e in degs):
        return []
    return [PolyVector(*vector_to_polys(weights, s.field, degs, coords))
            for coords in kernel_basis(cochain_matrix(s.potential, 1, d))]


def cochain_matrices(omega, d):
    """the three consecutive cochain matrices starting at the degree-d slice
    of X^0; consecutive products are zero"""
    w = omega.homogeneous_degree() - omega.weights.n_default
    return tuple(cochain_matrix(omega, i, d + i * w) for i in range(3))


def cochain_apply(omega, i, comps):
    """the degree-i cochain differential applied to component polynomials
    through its operator table.  A table over Q[s]/(m), deg m = k, is
    restricted to Q: a term on (t*k+u, s*k+c) takes the s^c coordinate of
    source component s, a polynomial over Q, to the s^u coordinate of
    target component t."""
    weights, field = omega.weights, omega.field
    table_field, table = _cochain_table(omega, i)
    k = table_field.degree
    powers = field_powers(table_field)
    out = [Polynomial.zero(weights, field)] * len(complexes.cochain_shifts(weights)[i + 1])
    for t, s, v, coefs in table:
        (t, u), (s, c) = divmod(t, k), divmod(s, k)
        src = comps[s] if table_field == QQ else Polynomial(
            weights, field, {m: a.coeffs[c] for m, a in comps[s].terms.items()})
        src = src if v is None else src.partial(v)
        coef = Polynomial(weights, field, {m: q * powers[u] for m, q in coefs})
        out[t] = out[t] + src * coef
    return out


def _first_nonzero(g):
    return next(gk for gk in g.comps if not gk.is_zero())


def reference_maps(omega):
    """the fn closure of every graded map, by name"""
    g = gradient(omega)
    return {
        "cochain0": lambda v: reference_cochain(g, 0, v),
        "cochain1": lambda v: reference_cochain(g, 1, v),
        "cochain2": lambda v: reference_cochain(g, 2, v),
        # multiples of grad(O), then gradients
        "m2": lambda v: [v[0] * gk + h for gk, h in zip(g.comps, gradient(v[1]).comps)],
        "koszul1": lambda v: [dot(PolyVector(*v), g)],
        "koszul2": lambda v: list(cross(PolyVector(*v), g).comps),
        "koszul3": lambda v: [v[0] * gk for gk in g.comps],
        # the cochain differential d1 stacked over the derivation's value on O
        "d1_over_dot": lambda v: reference_cochain(g, 1, v) + [dot(PolyVector(*v), g)],
        "ozone": lambda v: [dot(PolyVector(*v), g), div(PolyVector(*v))],
        # the cycle condition over div v, reduced modulo the Jacobian ideal
        "sealed": lambda v: [dot(PolyVector(*v), g),
                             normal_form(div(PolyVector(*v)), jacobian_basis(omega))],
        # the same condition modulo the first nonzero partial g_i alone, as
        # the image of a multiplier u, the first source
        "sealed_block": lambda v: [dot(PolyVector(*v[1:]), g),
                                   div(PolyVector(*v[1:])) - v[0] * _first_nonzero(g)],
        "grad": lambda v: list(gradient(v[0]).comps),
        "curl": lambda v: list(curl(PolyVector(*v)).comps),
        "div": lambda v: [div(PolyVector(*v))],
    }


def cochain_rank(omega, i, d, maps=None):
    """rank of the degree-i cochain differential on the degree-d slice of
    X^i, evaluated column by column"""
    return _rank(omega, "cochain%d" % i, *_cochain_degs(omega, i, d), maps)


def _rank(omega, name, src, tgt, maps=None):
    fn = (maps or reference_maps(omega))[name]
    return rank(reference_assemble(omega.weights, omega.field, src, tgt, fn))


def m2_rank(omega, d, maps=None):
    """dim M2_d as the rank of the multiples of grad(O) from degree d-w
    next to the gradients from degree d+a+b+c"""
    a, b, c = omega.weights.tuple
    w = omega.homogeneous_degree() - a - b - c
    return _rank(omega, "m2", [d - w, d + a + b + c], [d + b + c, d + a + c, d + a + b], maps)


def d1_rank_and_ozone_kernel(omega, d, maps=None):
    """rank of the cochain differential d1 on the degree-d derivations, and
    the dimension of those that are cocycles killing O, from one evaluation
    of d1 stacked over v . grad(O): d1 is its top rows"""
    a, b, c = omega.weights.tuple
    w = omega.homogeneous_degree() - a - b - c
    src = [d + a, d + b, d + c]
    d1_tgt = [d + w + b + c, d + w + a + c, d + w + a + b]
    dim = sum(count_monomials(omega.weights, e) for e in src)
    if not dim:
        return 0, 0
    fn = (maps or reference_maps(omega))["d1_over_dot"]
    stacked = reference_assemble(omega.weights, omega.field, src,
                                 d1_tgt + [d + a + b + c + w], fn)
    top = sum(count_monomials(omega.weights, e) for e in d1_tgt)
    d1 = Matrix.restricted(top, stacked.cols, stacked.entries[:top * omega.field.degree],
                           omega.field)
    return rank(d1), dim - rank(stacked)


def sealed_dims(omega, top, maps=None):
    """sealed Koszul H1 per degree up to top: dim X1 less the rank of the
    cycle condition stacked over the normal form of div v modulo the
    Jacobian ideal, less the rank of K2 -> K1"""
    n = omega.homogeneous_degree()
    out = {}
    for d in range(top + 1):
        degs = complexes.koszul_component_degs(omega, d)
        dim_k1, dim_k2 = (sum(count_monomials(omega.weights, e) for e in degs[i]) for i in (1, 2))
        cycles = dim_k1 - _rank(omega, "sealed", degs[1], [d, d - n], maps) if dim_k1 else 0
        boundary = koszul2_rank(omega, degs, maps) if dim_k2 else 0
        out[d] = cycles - boundary
    return out


def koszul2_rank(omega, degs, maps=None):
    """rank of K2 -> K1, v -> v x grad(O), from the Koszul degrees of one
    total degree (``complexes.koszul_component_degs``)"""
    return _rank(omega, "koszul2", degs[2], degs[1], maps)


def koszul3_rank(omega, degs, maps=None):
    """rank of K3 -> K2, v0 -> v0 grad(O), from the Koszul degrees of one
    total degree (``complexes.koszul_component_degs``)"""
    return _rank(omega, "koszul3", degs[3], degs[2], maps)


def gcd_by_fold(omega):
    """gcd of the nonzero partial derivatives, monic, by a pairwise fold
    that never looks at the Jacobian ideal.  For homogeneous f, g of degrees
    p >= q with gcd h, the graded map (u, v) -> u f - v g from degrees
    (e, e+p-q) to e+p first has a kernel at e = q - deg h, spanned by
    (g/h, f/h); the sweep over e stops by e = q, where (g, f) is in the
    kernel.  The kernel vector there is u = c g/h for some scalar c, so the
    map (h', t) -> u h' - t g from degrees (deg h, 0) to q has the
    one-dimensional kernel spanned by (h, c)."""
    check_potential(omega)
    weights, field = omega.weights, omega.field
    grads = [g for g in gradient(omega).comps if g.terms]
    h = grads[0]
    for g in grads[1:]:
        f, g = sorted((h, g), key=Polynomial.homogeneous_degree, reverse=True)
        p, q = f.homogeneous_degree(), g.homogeneous_degree()
        table = op_table(field, [(0, 0, None, f), (0, 1, None, -g)])
        for e in range(q + 1):
            kernel = kernel_basis(assemble(weights, (e, e + p - q), (e + p,), table))
            if kernel:
                break
        u = vector_to_polys(weights, field, (e, e + p - q), kernel[0])[0]
        table = op_table(field, [(0, 0, None, u), (0, 1, None, -g)])
        kernel = kernel_basis(assemble(weights, (q - e, 0), (q,), table))
        h = vector_to_polys(weights, field, (q - e, 0), kernel[0])[0]
    return h.monic()


def bigatti_numerator(weights, gens):
    """Laurent numerator {degree: coefficient} of A modulo a monomial ideal,
    by Bigatti's pivot recursion HN(I) = HN(I + (p)) + t^deg(p) HN(I : p).
    Each step minimalises the generators.  When none involves two variables
    they are pure powers and HN(I) is the product of (1 - t^deg m).
    Otherwise the pivot is p = x_v^e, with v the variable in the most mixed
    generators and e the median exponent of x_v among them."""
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
    num = bigatti_numerator(weights, minimal + [p])
    colon = bigatti_numerator(weights, [tuple(max(m[i] - p[i], 0) for i in range(3))
                                        for m in minimal])
    shift = weights.mono_degree(p)
    return _laurent_sub(num, {d + shift: -c for d, c in colon.items()})


def critical_pairs_by_lcm_table(heads):
    """the critical pairs (i, j), i < j, of a head list from the n x n table
    of lcms: a pair is dropped when its heads are coprime, or when a third
    head h_k divides L = lcm(h_i, h_j) with lcm(h_i, h_k) != L != lcm(h_k, h_j)"""
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


def eager_reduced_basis(gb):
    """the reduced Groebner basis from the minimal one a GroebnerBasis
    holds, eagerly, as the package made it before it reduced tails on first
    read: each element reduced by all the others and made monic, over the
    basis's own field.  The heads must divide none of each other."""
    heads = gb.heads()
    assert not any(i != j and mono_divides(a, b)
                   for i, a in enumerate(heads) for j, b in enumerate(heads)), heads
    polys = [Polynomial(gb.weights, gb.field, {h: lc, **dict(tail)})
             for h, lc, tail in gb._divisors]
    return tuple(normal_form(p, polys[:i] + polys[i + 1:]).monic() for i, p in enumerate(polys))


def bracket_by_components(s, f, g):
    """{f, g} as the sum over the generator pairs of the 2 x 2 minors of the
    gradients times the generator brackets"""
    fx, fy, fz = gradient(f).comps
    gx, gy, gz = gradient(g).comps
    return ((fx * gy - fy * gx) * s.pxy
            + (fy * gz - fz * gy) * s.pyz
            + (fz * gx - fx * gz) * s.pzx)


def jacobiator_by_brackets(s):
    """{x,{y,z}} + {y,{z,x}} + {z,{x,y}}"""
    x, y, z = s.variables()
    return (bracket_by_components(s, x, s.pyz) + bracket_by_components(s, y, s.pzx)
            + bracket_by_components(s, z, s.pxy))


def hamiltonian_by_brackets(s, f):
    """{f, -} by its values on x, y, z"""
    return PolyVector(*(bracket_by_components(s, f, v) for v in s.variables()))


def modular_by_divergences(s):
    """u -> -div({u, -}) on the generators"""
    return PolyVector(*(-div(hamiltonian_by_brackets(s, v)) for v in s.variables()))


def twist_by_components(s, delta):
    """the structure {x_i, x_j} + E(x_i) delta(x_j) - delta(x_i) E(x_j), E
    the Euler derivation"""
    a, b, c = s.weights.tuple
    x, y, z = s.variables()
    dx, dy, dz = delta.comps
    return PoissonStructure(s.pxy + (a * x) * dy - dx * (b * y),
                            s.pyz + (b * y) * dz - dy * (c * z),
                            s.pzx + (c * z) * dx - dz * (a * x))


def determinant_by_cofactors(images):
    """det of the Jacobian matrix, expanded along its first row"""
    j = [[p.partial(i) for i in range(3)] for p in images]
    return (j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
            - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
            + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]))


def is_automorphism_by_gradient(omega, phi):
    """whether phi is a Poisson automorphism of the bracket of omega on A,
    by the chain rule: grad(omega o phi) = D(phi)^T (grad(omega) o phi), and
    the generator brackets are kept exactly when that is J(phi) grad(omega)
    with J(phi) invertible; an automorphism's J is a unit, a constant in k*"""
    det = determinant_by_cofactors(phi)
    if set(det.terms) != {(0, 0, 0)}:
        return False
    composed = omega.substitute(phi)
    return all(composed.partial(i) == det * omega.partial(i) for i in range(3))


def derham_exactness_check(weights, bound):
    """rank check that the weighted de Rham complex is exact apart from the
    constants in degree zero; true is the only healthy answer"""
    a, b, c = weights.tuple
    one_forms = [-a, -b, -c]
    two_forms = [-b - c, -a - c, -a - b]
    gradmap = op_table(QQ, [(k, 0, k, 1) for k in range(3)])
    # curl(v): component k is d_{k+1} v_{k+2} - d_{k+2} v_{k+1}
    curlmap = op_table(QQ, [(k, (k + 2) % 3, (k + 1) % 3, 1) for k in range(3)]
                    + [(k, (k + 1) % 3, (k + 2) % 3, -1) for k in range(3)])
    divmap = op_table(QQ, [(0, s, s, 1) for s in range(3)])

    if bound < 0:
        raise RingError("empty de Rham window: truncation bound %d is below 0" % bound)
    for d in range(bound + 1):
        dim_a = count_monomials(weights, d)
        dim_1 = sum(count_monomials(weights, d + s) for s in one_forms)
        dim_2 = sum(count_monomials(weights, d + s) for s in two_forms)
        dim_3 = count_monomials(weights, d - a - b - c)
        rank_g = rank(assemble(weights, [d], [d + s for s in one_forms], gradmap))
        rank_c = rank(assemble(weights, [d + s for s in one_forms], [d + s for s in two_forms],
                               curlmap))
        rank_d = rank(assemble(weights, [d + s for s in two_forms], [d - a - b - c], divmap))
        if dim_a - rank_g != (1 if d == 0 else 0):
            return False
        if dim_1 - rank_c != rank_g:
            return False
        if dim_2 - rank_d != rank_c:
            return False
        if rank_d != dim_3:
            return False
    return True


def euler_characteristic_check(omega, bound):
    """verify that the alternating sum of cohomology dimensions matches the
    closed rational function forced by additivity of Hilbert series"""
    n = check_potential(omega)
    weights = omega.weights
    w = n - weights.a - weights.b - weights.c
    pad = 3 * abs(w)
    degrees = _window(omega, "Euler characteristic", -weights.n_default - pad, bound)
    table = ph_dims(omega, bound + pad)
    coeffs = euler_rhs(weights, n).expand(degrees.start, bound)
    for e in degrees:
        lhs = sum((-1) ** i * table.dim(i, e + i * w) for i in range(4))
        if lhs != coeffs[e - degrees.start]:
            return False
    return True


def window_top(omega, bound):
    """T = max(D, n) + max(n, s) + max(0, s - n), s = a+b+c: the top degree
    that the maps of a per-degree window at bound D reach, written out apart
    from ``complexes._window``, which budgets the monomials of 0..T"""
    n, s = omega.homogeneous_degree(), omega.weights.n_default
    return max(bound, n) + max(n, s) + max(0, s - n)


def m2_dims(omega, bound):
    """dimensions of the exact-bivector space M2 per degree, from
    #A_{d+a+b+c} - [d = -(a+b+c)] + rank d0 at degree d-w"""
    check_potential(omega)
    return {d: _m2_dim(omega, d) for d in _window(omega, "M2", -omega.weights.n_default, bound)}


def standard_monomials(weights, heads, d):
    """monomials of degree d outside the monomial ideal generated by heads"""
    return [m for m in monomial_basis(weights, d) if not any(mono_divides(h, m) for h in heads)]


def negative_degree_pd_dims(omega):
    """dimensions of the bracket-compatible derivations in each negative
    degree down to -max(a,b,c), below which all generator values vanish:
    dim X1_d - rank d1_d, the kernel of the condition that
    ``graded_derivation_space`` solves"""
    check_potential(omega, "diagnostic needs a potential of degree a+b+c")
    weights = omega.weights
    return {d: sum(count_monomials(weights, d + w) for w in weights.tuple)
            - _cochain_rank(omega, 1, d) for d in range(-max(weights.tuple), 0)}
