"""Exact linear algebra over the coefficient field.

There is one matrix representation: a sparse ``Matrix`` whose ``entries``
hold one ``{col: nonzero rational}`` dict per row over Q, and one
elimination loop, ``_echelon``, over Q.  It takes the nonzero rows shortest
first and reduces each on its last (largest) column against the pivot rows
found so far; no global pivot search.  A row is cleared to coprime integers
once, on entry, updates are fraction-free (Bareiss-style cross-multiplication
by the cofactors of the gcd), and each new pivot row is divided by its
content.  Over Q, ``assemble`` makes int rows for an integer potential and
hands them to ``Matrix.restricted`` as they are; a row of ints enters
elimination as a copy divided by its content, with no denominators to clear.

A matrix over K = Q[s]/(m), deg m = k, reaches the same loop by restriction
of scalars: its ``entries`` hold k rows over Q per row over K, Q-row i*k+u
and Q-column j*k+t holding the s^u coefficient of M_ij * s^t, that is each
entry as the k x k rational block of multiplication by it on the basis 1,
s, ..., s^(k-1) (``ExtensionField.block``).  The restriction happens once,
where the entries are made: ``Matrix`` expands K-valued rows, and
``complexes.assemble`` writes the Q-rows of a map straight from an operator
table that ``complexes.op_table`` restricted once per table, so neither
assembly nor elimination multiplies in K.  The layout, and so the kernel
normal form, is the one a separate pass over each matrix made before.  A
map whose coefficients have no s-part never reaches this layout:
``complexes`` assembles it over Q, k = 1, with the same rank and kernel
normal form (the ``complexes`` docstring).

The kernel over Q of the restriction is the kernel over K read as
Q-vectors, a K-subspace.  Under last-column pivots a column is free exactly
when it is the first nonzero coordinate of some kernel vector.  If a kernel vector has its first nonzero entry in column j,
multiplying it by the inverse of that entry times s^t gives one whose first
nonzero Q-coordinate is j*k+t, for every t: each block of k Q-columns is all
free or all pivot.  The K-rank is the Q-rank over k, and the Q-kernel vector
with its one at j*k is the K-kernel vector with its one at j.  A partial
block of pivots can only come from a zero divisor, that is a reducible m,
and is refused.

Last-column pivots make the free columns the earliest ones the row space
allows, so a kernel basis depends only on the matrix, not on the order of
elimination.  They were chosen over leftmost pivots, which free the latest
columns instead and so change the kernel bases the tests pin, such as the
degree-0 derivations [x, y, 2z], [0, x, -3y^2] of x^2*z+x*y^3 on (1,1,2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import QQ, ExtElem, RingError


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries, field=QQ):
        """``entries`` is a list of ``rows`` dicts ``{col: value}``; values are
        coerced into the field and zeros are dropped.  Over Q a value may be an
        ``int`` or a ``Fraction``; ints are kept as they are.  Over K each
        value is stored as its k x k block (module docstring)."""
        if rows < 0 or cols < 0:
            raise RingError("negative matrix dimensions")
        if len(entries) != rows:
            raise RingError("row count does not match declared dimensions")
        rational = field == QQ
        k = field.degree
        qrows = []
        for row in entries:
            if not isinstance(row, dict):
                raise RingError("matrix rows must be {column: value} dicts")
            clean = [{} for _ in range(k)]
            for c, v in row.items():
                if not (isinstance(c, int) and 0 <= c < cols):
                    raise RingError("column index %r out of range" % (c,))
                if rational:
                    v = v if type(v) is int else field.coerce(v)
                    if v:
                        clean[0][c] = v
                    continue
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
    potential, has no denominators to clear and is only copied, since
    elimination consumes the dict it is given."""
    if all(type(v) is int for v in row.values()):
        return _divide_content(dict(row))
    den = math.lcm(*(v.denominator for v in row.values()))
    return _divide_content({c: v.numerator * (den // v.denominator) for c, v in row.items()})


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
    return pivots


def _pivots(matrix: Matrix):
    """(echelon form over Q, k) of the entries, k = deg m Q-columns per
    column over Q[s]/(m) (k = 1 over Q); there a partial block of pivots
    means m is reducible."""
    k = matrix.field.degree
    pivots = _echelon(matrix.entries)
    if k > 1 and len({c // k for c in pivots}) * k != len(pivots):
        raise RingError("modulus is not coprime with the element; m reducible?")
    return pivots, k


def rank(matrix: Matrix) -> int:
    pivots, k = _pivots(matrix)
    return len(pivots) // k


def kernel_basis(matrix: Matrix):
    """Exact basis of the right null space; each vector v satisfies Mv = 0.
    Vectors are lists over the field (Fractions over Q), one per free column,
    with a one in that column and zeros in the other free columns.  Over
    Q[s]/(m) these are the Q-kernel vectors whose free Q-column is the first
    of its block, each run of k coordinates read back as one element."""
    field = matrix.field
    pivots, k = _pivots(matrix)
    reduced = {}
    for c in sorted(pivots):
        row = pivots[c]
        p = row[c]
        row = {j: Fraction(v, p) for j, v in row.items()}
        for j in [j for j in row if j in reduced]:
            f = row.pop(j)
            for i, u in reduced[j].items():
                if i == j:
                    continue
                nv = row.get(i, 0) - f * u
                if nv:
                    row[i] = nv
                else:
                    row.pop(i, None)
        reduced[c] = row
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
                v[c] = -row[free]
        if field != QQ:
            # zero blocks share one element, as the rational zeros do
            v = [ExtElem._exact(field, v[j:j + k]) if any(v[j:j + k]) else zero
                 for j in range(0, width, k)]
        basis.append(v)
    return basis
