"""Test-local reference elimination over Q[s]/(m): the unit-pivot loop that
``linalg`` ran over an extension field before it restricted scalars to Q.
Rows are taken shortest first and reduced on their last column against
pivot rows scaled to pivot one, with field division; a zero-divisor pivot
raises from ``ExtensionField.inverse``.  A matrix is given as its list of
K-valued dict rows, as ``linalg.Matrix`` takes them, with its column count
and field; values are coerced and zeros dropped on entry."""


def reference_echelon(field, rows):
    one = field.one
    rows = [{j: field.coerce(v) for j, v in row.items() if not field.is_zero(v)} for row in rows]
    pivots = {}
    for row in sorted((r for r in rows if r), key=len):
        row = dict(row)
        while row:
            c = max(row)
            prow = pivots.get(c)
            if prow is None:
                inv = one / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            v = row.pop(c)
            for j, pv in prow.items():
                if j == c:
                    continue
                nv = row.get(j, 0) - v * pv
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
    return pivots


def reference_rank(field, rows):
    return len(reference_echelon(field, rows))


def reference_kernel_basis(field, cols, rows):
    pivots = reference_echelon(field, rows)
    reduced = {}
    for c in sorted(pivots):
        row = dict(pivots[c])
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
    for free in range(cols):
        if free in pivots:
            continue
        v = [field.zero] * cols
        v[free] = field.one
        for c, row in reduced.items():
            if free in row:
                v[c] = -row[free]
        basis.append(v)
    return basis
