"""Exact linear algebra over the coefficient field, and the one assembler
that turns an operator table into a matrix.

There is one matrix representation: a sparse ``Matrix`` whose ``entries``
hold one ``{col: nonzero rational}`` dict per row over Q, and one
elimination loop, ``_echelon``, over Q, with one beside it over F_p for the
ranks mod p (below), both behind ``pivot_columns``.  It takes the nonzero
rows shortest first and reduces each on its last (largest) column against
the pivot rows found so far; no global pivot search.  A row is cleared to
coprime integers once, on entry, updates are fraction-free (Bareiss-style
cross-multiplication by the cofactors of the gcd), and each new pivot row
is divided by its content.  ``kernel_basis`` back-substitutes the same way:
it takes the pivot rows in increasing pivot order, clears the other pivot
columns of each with the reduced rows before it, which hold only their own
pivot and free columns, divides the result by its content, and makes one
Fraction per kernel coordinate, at the end.  Over Q, ``assemble`` makes int
rows for an integer potential and hands them to ``Matrix.restricted`` as
they are; a row of ints enters elimination as a copy divided by the one gcd
of its values, with no denominators to clear, and a Fraction sends its row
to the denominators.  ``assemble`` writes each term of an operator table
straight into the row dict of its target monomial, adding to the entry in
its column and deleting an entry that cancels to zero, so no other dict or
key stands between a table and its matrix.

A matrix over K = Q[s]/(m), deg m = k, reaches the same loop by restriction
of scalars: its ``entries`` hold k rows over Q per row over K, Q-row i*k+u
and Q-column j*k+t holding the s^u coefficient of M_ij * s^t, that is each
entry as the k x k rational block of multiplication by it on the basis 1,
s, ..., s^(k-1) (``ExtensionField.block``).  The restriction happens once,
where the entries are made: ``Matrix`` expands K-valued rows, and
``assemble`` writes the Q-rows of a map straight from an operator table
that ``op_table`` restricted once per table, so neither assembly nor
elimination multiplies in K.  The layout, and so the kernel normal form, is
the one a separate pass over each matrix made before.

An operator table carries its field, and ``op_table`` makes it Q when no
coefficient has an s-part, so its matrices are assembled over Q, k = 1.
That changes no number: a matrix with rational entries has the same rank
over K as over Q, as its minors are rational, and its kernel over K is the
K-span of its kernel over Q.  So both have the same free columns under
last-column pivots, and the kernel normal form, the one kernel basis with a
one in a free column and zeros in the others, is the rational one.  Kernel
vectors reach the caller's field through ``vector_to_polys``.

The kernel over Q of the restriction is the kernel over K read as
Q-vectors, a K-subspace.  Under last-column pivots a column is free exactly
when it is the first nonzero coordinate of some kernel vector.  If a kernel
vector has its first nonzero entry in column j, multiplying it by the
inverse of that entry times s^t gives one whose first nonzero Q-coordinate
is j*k+t, for every t: each block of k Q-columns is all free or all pivot.
The pivot columns over K (``pivot_columns``) are the pivot blocks, so the
K-rank is the Q-rank over k, and the Q-kernel vector with its one at j*k is
the K-kernel vector with its one at j.  A partial block of pivots can only
come from a zero divisor, that is a reducible m, and is refused.

Last-column pivots make the free columns the earliest ones the row space
allows, so a kernel basis depends only on the matrix, not on the order of
elimination.  They were chosen over leftmost pivots, which free the latest
columns instead and so change the kernel bases the tests pin, such as the
degree-0 derivations [x, y, 2z], [0, x, -3y^2] of x^2*z+x*y^3 on (1,1,2).

Ranks mod p, for the rank reads of ``complexes`` over K, deg m <= 3.
``reduction`` takes the first of the fixed PRIMES that divides no
denominator of the potential and at which m has a root r, found once per
modulus and prime by one splitting method for degrees 2 and 3; ``op_table``
over that ``Reduction`` maps each coefficient to its residue under s -> r,
so ``assemble`` builds the image of the K-matrix in F_p, k = 1, and
``pivot_columns`` eliminates it by ``_echelon``'s last-column rule in a
loop of its own, ``_echelon_mod``, so the loop over Q has no branch for
it.  The map Z_(p)[s]/(m) -> F_p, s -> r, is a ring homomorphism, as m is
monic with integer coefficients and m(r) = 0 mod p, and every entry lies
in its domain, as no denominator is divisible by p and products of such
entries reduced mod m keep that.  It maps each minor of the matrix to the
same minor of the image, so a nonzero minor mod p comes from a nonzero
minor over K, and the rank mod p is at most the rank over K.  It is only a
lower bound: ``complexes`` keeps it where an exact upper bound meets it,
and otherwise eliminates over K as above.  So no result depends on the
primes, only the time taken.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .ring import QQ, ExtElem, ExtensionField, Polynomial, RingError, monomial_basis


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries, field=QQ):
        """``entries`` is a list of ``rows`` dicts ``{col: value}``; values are
        coerced into the field and zeros are dropped.  Each value is stored as
        its k x k block (module docstring), k = 1 over Q; whole values are
        stored as ints, as in ``op_table``."""
        if rows < 0 or cols < 0:
            raise RingError("negative matrix dimensions")
        if len(entries) != rows:
            raise RingError("row count does not match declared dimensions")
        k = field.degree
        qrows = []
        for row in entries:
            if not isinstance(row, dict):
                raise RingError("matrix rows must be {column: value} dicts")
            clean = [{} for _ in range(k)]
            for c, v in row.items():
                if not (isinstance(c, int) and 0 <= c < cols):
                    raise RingError("column index %r out of range" % (c,))
                for u, brow in enumerate(field.block(v)):
                    clean[u].update((c * k + t, q) for t, q in enumerate(brow) if q)
            qrows += clean
        self.rows, self.cols, self.entries, self.field = rows, cols, qrows, field

    @classmethod
    def restricted(cls, rows: int, cols: int, entries, field):
        """the matrix with these ``entries``, taken unchecked: k*rows dicts of
        nonzero ints and Fractions over Q-columns 0..k*cols-1, in block layout"""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries, m.field = rows, cols, entries, field
        return m

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)


def _coprime_ints(row):
    """a new dict: the row scaled to coprime integers (scaling never changes
    rank or kernel).  A row of ints, as ``assemble`` makes for an integer
    potential, has no denominators to clear: one gcd of its values, which
    refuses a Fraction with a TypeError, divides a copy of it, since
    elimination consumes the dict it is given."""
    try:
        g = math.gcd(*row.values())
    except TypeError:
        den = math.lcm(*(v.denominator for v in row.values()))
        return _divide_content({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    return dict(row) if g == 1 else {c: v // g for c, v in row.items()}


def _divide_content(row):
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _echelon(rows):
    """Echelon form over Q as ``{pivot col: row}``; every pivot row is a
    coprime integer dict with its pivot at its largest column."""
    pivots = {}
    for row in sorted((r for r in rows if r), key=len):
        row = _coprime_ints(row)
        while row:
            c = max(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _divide_content(row)
                break
            row = _clear(row, prow, c)
    return pivots


def _clear(row, prow, c):
    """row, with its entry in column c popped, less the multiple of the
    pivot row prow that clears c, fraction-free: both are scaled by the
    cofactors of the gcd of their entries in c"""
    v = row.pop(c)
    p = prow[c]
    g = math.gcd(p, v)
    p, v = p // g, v // g
    if p != 1:
        row = {j: p * u for j, u in row.items()}
    for j, pv in prow.items():
        if j == c:
            continue
        nv = row.get(j, 0) - v * pv
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)
    return row


def _echelon_mod(rows, p):
    """Echelon form over F_p as ``{pivot col: row}``, by the last-column rule
    of ``_echelon``: the rows shortest first, each reduced mod p on entry and
    then on its last column against monic pivot rows"""
    pivots = {}
    for row in sorted((r for r in rows if r), key=len):
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = max(row)
            prow = pivots.get(c)
            if prow is None:
                inverse = pow(row[c], -1, p)
                pivots[c] = {j: u * inverse % p for j, u in row.items()}
                break
            v = row.pop(c)
            for j, u in prow.items():
                if j != c:
                    u = (row.get(j, 0) - v * u) % p
                    if u:
                        row[j] = u
                    else:
                        row.pop(j, None)
    return pivots


def _pivots(matrix: Matrix):
    """echelon form of the entries: mod p over a ``Reduction``, and otherwise
    over Q, where over Q[s]/(m), deg m = k, a partial block of k pivot
    Q-columns means m is reducible"""
    if isinstance(matrix.field, Reduction):
        return _echelon_mod(matrix.entries, matrix.field.p)
    k = matrix.field.degree
    pivots = _echelon(matrix.entries)
    if k > 1 and len({c // k for c in pivots}) * k != len(pivots):
        raise RingError("modulus is not coprime with the element; m reducible?")
    return pivots


def pivot_columns(matrix: Matrix):
    """the set of pivot columns over the matrix's field: over Q[s]/(m), deg
    m = k, the columns whose block of k Q-columns is pivot; over a
    ``Reduction``, k = 1, those mod p"""
    k = matrix.field.degree
    return {c // k for c in _pivots(matrix)}


def rank(matrix: Matrix) -> int:
    return len(pivot_columns(matrix))


def kernel_basis(matrix: Matrix):
    """Exact basis of the right null space; each vector v satisfies Mv = 0.
    Vectors are lists over the field (Fractions over Q), one per free column,
    with a one in that column and zeros in the other free columns.  Over
    Q[s]/(m) these are the Q-kernel vectors whose free Q-column is the first
    of its block, each run of k coordinates read back as one element.  The
    back-substitution runs on the coprime integer pivot rows (module
    docstring), and each kernel coordinate is one Fraction, made last.  A
    matrix over a ``Reduction`` has ranks only, and is refused."""
    field = matrix.field
    if isinstance(field, Reduction):
        raise RingError("no kernel basis over %r: a reduction mod p gives ranks only" % (field,))
    k = field.degree
    pivots = _pivots(matrix)
    reduced = {}
    for c in sorted(pivots):
        row = pivots[c]
        for j in [j for j in row if j in reduced]:
            row = _clear(row, reduced[j], j)
        reduced[c] = _divide_content(row)
    width = matrix.cols * k
    zero = field.zero
    basis = []
    for free in range(0, width, k):
        if free in pivots:
            continue
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for c, row in reduced.items():
            if free in row:
                v[c] = Fraction(-row[free], row[c])
        if field != QQ:
            # zero blocks share one element, as the rational zeros do
            v = [ExtElem._exact(field, v[j:j + k]) if any(v[j:j + k]) else zero
                 for j in range(0, width, k)]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# ranks mod p

# the primes of ``reduction``, tried in this order; all odd
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
          2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399)

# (modulus, p) -> a root of the modulus mod p, or None, found on first use
_ROOTS = {}


class Reduction(namedtuple("Reduction", "field p r")):
    """the ring map Z_(p)[s]/(m) -> F_p, s -> r, r a root of m mod p, as the
    field of an operator table (``op_table``) and of its matrices, k = 1:
    ``block`` maps a value of the source field to its residue"""

    degree = 1
    __slots__ = ()

    def block(self, v):
        """the 1 x 1 matrix of v's residue: its s-coefficients, each a
        numerator times the inverse of its denominator, at s = r"""
        p, out = self.p, 0
        for q in reversed(self.field.coerce(v).coeffs):
            out = (out * self.r + q.numerator * pow(q.denominator, -1, p)) % p
        return ((out,),)

    def __repr__(self):
        return "F_%d (s -> %d)" % (self.p, self.r)


def reduction(field, denominator):
    """the map s -> r onto F_p for the first of PRIMES that does not divide
    ``denominator``, the one of a potential's coefficients, and at which the
    modulus of field has a root r; None when no listed prime qualifies"""
    for p in PRIMES:
        if denominator % p == 0:
            continue
        key = field.modulus, p
        if key not in _ROOTS:
            _ROOTS[key] = _root_mod(key[0], p)
        if _ROOTS[key] is not None:
            return Reduction(field, p, _ROOTS[key])
    return None


def _root_mod(modulus, p):
    """a root of the monic integer polynomial modulus mod the odd prime p, or
    None: the product g of the distinct linear factors of m is gcd(m, s^p -
    s), and gcd(g, (s + a)^((p-1)/2) - 1), for a = 0, 1, ... in turn, splits
    g until one factor is left (Cantor-Zassenhaus, von zur Gathen and
    Gerhard, "Modern Computer Algebra", ch. 14)"""
    m = [int(c) % p for c in modulus]
    g = _poly_gcd(m, _poly_sub(_poly_powmod([0, 1], p, m, p), [0, 1], p), p)
    a = 0
    while len(g) > 2:
        h = _poly_gcd(g, _poly_sub(_poly_powmod([a, 1], (p - 1) // 2, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            g = h
        a += 1
    return -g[0] % p if len(g) == 2 else None


# polynomials over F_p: coefficient lists, lowest degree first, with no
# trailing zero


def _poly_rem(a, b, p):
    a = list(a)
    inverse = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q, shift = a[-1] * inverse % p, len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - q * c) % p
        while a and not a[-1]:
            a.pop()
    return a


def _poly_sub(a, b, p):
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(max(len(a), len(b)))]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_powmod(a, e, m, p):
    """a^e mod the monic m"""
    out, a = [1], _poly_rem(a, m, p)
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, m, p)
        a, e = _poly_mulmod(a, a, m, p), e >> 1
    return out


def _poly_mulmod(a, b, m, p):
    prod = [0] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return _poly_rem([c % p for c in prod], m, p)


def _poly_gcd(a, b, p):
    """the monic gcd of a and b, a nonzero"""
    while b:
        a, b = b, _poly_rem(a, b, p)
    inverse = pow(a[-1], -1, p)
    return [c * inverse % p for c in a]


# ---------------------------------------------------------------------------
# operator tables and the assembler


def op_table(field, terms, reduce=True):
    """(field, table): the operator table for ``assemble`` from (target,
    source, var, coef) terms, coef a Polynomial or a constant over field,
    and the field it is over: Q when field is some K and no coefficient has
    an s-part (module docstring), unless ``reduce`` is false, which keeps it
    over field so that its terms may join a table over field.  The table is
    restricted to Q here, once: over K = Q[s]/(m), deg m = k, a term becomes
    the terms (t*k+u, s*k+c, var, q), q the s^u coefficients of coef * s^c
    (``ExtensionField.block``); over Q, k = 1, and over a ``Reduction``, k
    = 1 and each coefficient becomes its residue mod p.  Zero values are
    dropped and whole ones stored as ints.  Each coefficient is the tuple of
    its (monomial, value) items, so a table is immutable and may be shared."""
    coefs = [p.terms if isinstance(p, Polynomial) else {(0, 0, 0): field.coerce(p)}
             for _, _, _, p in terms]
    if (reduce and isinstance(field, ExtensionField)
            and all(c.is_rational() for cs in coefs for c in cs.values())):
        field, coefs = QQ, [{m: c.coeffs[0] for m, c in cs.items()} for cs in coefs]
    k = field.degree
    table = []
    for (t, s, v, _), cs in zip(terms, coefs):
        blocks = [(m, field.block(c)) for m, c in cs.items()]
        for u in range(k):
            for c in range(k):
                q = tuple((m, b[u][c]) for m, b in blocks if b[u][c])
                if q:
                    table.append((t * k + u, s * k + c, v, q))
    return field, tuple(table)


def assemble(weights, src_degs, tgt_degs, table):
    """Exact sparse matrix of a graded first-order linear differential
    operator on the deterministic monomial bases, one column per source
    monomial, over the field of its ``op_table`` table.  The table lists
    the operator's terms (target, source, var, coefs), restricted to Q:
    target component ``target`` gains coef * m * d/d(var) of source
    component ``source``, or coef * m times the source itself when var is
    None, for every monomial m -> coef in ``coefs``.  Over K = Q[s]/(m),
    deg m = k, component t*k+u is the s^u coordinate of component t; K-row
    i and K-column j come out as Q-rows i*k+u and Q-columns j*k+t, the
    block layout of ``Matrix`` (so kernels are unchanged), in int and
    Fraction arithmetic alone.  Each Q-target slot maps its monomials to
    their row dicts; term by term, over the source monomials of the term's
    source slot, each coefficient is added in place at its row and column,
    and an entry whose sum cancels to 0 is deleted, so no zero is stored.
    An output outside its target slot's monomials is refused: outputs must
    respect the target degrees."""
    field, table = table
    k = field.degree
    rows, targets = [], []
    for td in tgt_degs:
        basis = monomial_basis(weights, td)
        block = [{} for _ in range(len(basis) * k)]
        rows += block
        targets += [dict(zip(basis, block[u::k])) for u in range(k)]
    col, sources = 0, []
    for sd in src_degs:
        basis = monomial_basis(weights, sd)
        sources += [(basis, range(col + c, col + len(basis) * k, k)) for c in range(k)]
        col += len(basis) * k
    for t, s, v, coefs in table:
        target = targets[t].get
        basis, cols = sources[s]
        for m, j in zip(basis, cols):
            if v is None:
                f = 1
                m0, m1, m2 = m
            else:
                f = m[v]
                if not f:
                    continue
                m0, m1, m2 = m[:v] + (f - 1,) + m[v + 1:]
            for (q0, q1, q2), c in coefs:
                row = target((m0 + q0, m1 + q1, m2 + q2))
                if row is None:
                    raise RingError("graded map output escapes its degree slot")
                c = row.get(j, 0) + (c if f == 1 else c * f)
                if c:
                    row[j] = c
                else:
                    del row[j]
    return Matrix.restricted(len(rows) // k, col // k, rows, field)


def vector_to_polys(weights, field, degs, coords):
    """inverse of the assemble() column convention: coefficient vector over
    stacked monomial bases -> list of polynomials over field"""
    out = []
    pos = 0
    for d in degs:
        basis = monomial_basis(weights, d)
        terms = {}
        for m in basis:
            c = coords[pos]
            pos += 1
            if c:
                terms[m] = c
        out.append(Polynomial(weights, field, terms))
    if pos != len(coords):
        raise RingError("coefficient vector does not match the degree layout")
    return out
