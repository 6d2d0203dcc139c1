"""Exact linear algebra over the coefficient field.

There is one matrix representation: a sparse ``Matrix`` whose ``entries``
hold one ``{col: nonzero value}`` dict per row.  One elimination loop,
``_echelon``, serves both coefficient fields.  It takes the nonzero rows
shortest first and reduces each on its last (largest) column against the
pivot rows found so far; no global pivot search.  Over Q a row is cleared to
coprime integers once, on entry, updates are fraction-free (Bareiss-style
cross-multiplication by the cofactors of the gcd), and each new pivot row is
divided by its content.  Over an extension field pivot rows are scaled to a
unit pivot and updates use field division.

Last-column pivots make the free columns the earliest ones the row space
allows, so a kernel basis depends only on the matrix, not on the order of
elimination.  They were chosen over leftmost pivots, which free the latest
columns instead and so change the kernel bases the tests pin, such as the
degree-0 derivations [x, y, 2z], [0, x, -3y^2] of x^2*z+x*y^3 on (1,1,2).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import QQ, RingError


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries, field=QQ):
        """``entries`` is a list of ``rows`` dicts ``{col: value}``; values are
        coerced into the field and zeros are dropped.  Over Q a value may be an
        ``int`` or a ``Fraction``; ints are kept as they are."""
        if rows < 0 or cols < 0:
            raise RingError("negative matrix dimensions")
        if len(entries) != rows:
            raise RingError("row count does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = []
        rational = field == QQ
        for row in entries:
            if not isinstance(row, dict):
                raise RingError("matrix rows must be {column: value} dicts")
            clean = {}
            for c, v in row.items():
                if not (isinstance(c, int) and 0 <= c < cols):
                    raise RingError("column index %r out of range" % (c,))
                if not (rational and type(v) is int):
                    v = field.coerce(v)
                if not field.is_zero(v):
                    clean[c] = v
            self.entries.append(clean)

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)


def _coprime_ints(row):
    """the row scaled to coprime integers (scaling never changes rank or
    kernel)"""
    den = 1
    for v in row.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    return _divide_content(ints)


def _divide_content(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def _echelon(matrix: Matrix):
    """Echelon form as ``{pivot col: row}``; every pivot row has its pivot at
    its largest column.  Over Q the rows are coprime integer dicts, over an
    extension field they have pivot one."""
    rational = matrix.field == QQ
    pivots = {}
    for row in sorted((r for r in matrix.entries if r), key=len):
        row = _coprime_ints(row) if rational else dict(row)
        while row:
            c = max(row)
            prow = pivots.get(c)
            if prow is None:
                if rational:
                    pivots[c] = _divide_content(row)
                else:
                    inv = matrix.field.one / row[c]
                    pivots[c] = {j: v * inv for j, v in row.items()}
                break
            v = row.pop(c)
            if rational:
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


def rank(matrix: Matrix) -> int:
    return len(_echelon(matrix))


def kernel_basis(matrix: Matrix):
    """Exact basis of the right null space; each vector v satisfies Mv = 0.
    Vectors are lists over the field (Fractions over Q), one per free column,
    with a one in that column and zeros in the other free columns."""
    field = matrix.field
    pivots = _echelon(matrix)
    reduced = {}
    for c in sorted(pivots):
        row = pivots[c]
        if field == QQ:
            p = row[c]
            row = {j: Fraction(v, p) for j, v in row.items()}
        for j in [j for j in row if j in reduced]:
            f = row.pop(j)
            for k, u in reduced[j].items():
                if k == j:
                    continue
                nv = row.get(k, 0) - f * u
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        reduced[c] = row
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        v = [field.zero] * matrix.cols
        v[free] = field.one
        for c, row in reduced.items():
            if free in row:
                v[c] = -row[free]
        basis.append(v)
    return basis


def in_column_span(matrix: Matrix, v):
    """Decide whether v lies in the column span; on success also return
    witness coefficients w with M w = v."""
    if len(v) != matrix.rows:
        raise RingError("vector length does not match row count")
    field = matrix.field
    vv = [field.coerce(u) for u in v]
    if all(field.is_zero(u) for u in vv):
        return True, [field.zero] * matrix.cols
    n = matrix.cols
    aug = Matrix(matrix.rows, n + 1,
                 [{**row, n: u} for row, u in zip(matrix.entries, vv)], field)
    for k in kernel_basis(aug):
        if not field.is_zero(k[n]):
            return True, [-(u / k[n]) for u in k[:n]]
    return False, None
