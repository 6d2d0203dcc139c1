"""Exact linear algebra over the coefficient fields."""

import copy
import random
from fractions import Fraction

import pytest

from wpoisson import (ExtensionField, Matrix, QQ, Weights, kernel_basis, linalg,
                      parse_poly, rank)
from wpoisson.linalg import vector_to_polys
from wpoisson.ring import ExtElem, RingError

from reference_linalg import reference_kernel_basis, reference_rank
from reference_maps import cochain_matrices, field_powers


def _rows(grid):
    """dict rows of a dense grid, for readable test matrices"""
    return [{j: v for j, v in enumerate(row)} for row in grid]


def test_rank_simple():
    m = Matrix(2, 3, _rows([[1, 2, 3], [2, 4, 6]]))
    assert rank(m) == 1
    m2 = Matrix(3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert rank(m2) == 3


def test_rank_zero_and_empty():
    assert rank(Matrix(2, 2, _rows([[0, 0], [0, 0]]))) == 0
    assert rank(Matrix(0, 3, [])) == 0
    assert rank(Matrix(3, 0, [{}, {}, {}])) == 0


def test_kernel_basis_annihilates():
    m = Matrix(2, 4, _rows([[1, 2, 3, 4], [0, 1, 1, 1]]))
    ker = kernel_basis(m)
    assert len(ker) == 4 - rank(m)
    for v in ker:
        for row in m.entries:
            s = sum(x * v[j] for j, x in row.items())
            assert s == 0


def test_kernel_of_injective_map_trivial():
    m = Matrix(3, 2, _rows([[1, 0], [0, 1], [1, 1]]))
    assert kernel_basis(m) == []


def test_rank_nullity_rational_entries():
    m = Matrix(3, 3, _rows([
        [Fraction(1, 2), Fraction(1, 3), 0],
        [Fraction(1, 4), Fraction(1, 6), 0],
        [0, 0, 5],
    ]))
    assert rank(m) == 2
    assert len(kernel_basis(m)) == 1


def test_rank_over_extension_field():
    f = ExtensionField([1, 0, 1])
    s = f.generator
    m = Matrix(2, 2, _rows([[f.one, s], [s, -f.one]]), field=f)
    # second row is s times the first, so the rank drops
    assert rank(m) == 1
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * f.one + v[1] * s == f.zero


def test_large_rank_exactness():
    # Hilbert-like matrix entries stress exact arithmetic; floats would
    # misjudge this rank
    n = 8
    m = Matrix(n, n, _rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]))
    assert rank(m) == n
    assert kernel_basis(m) == []


def test_constructor_checks_shape_and_columns():
    m = Matrix(2, 2, [{1: 2, 0: 0}, {0: 3}])
    assert m.entries == [{1: 2}, {0: 3}]
    assert m.rows == 2 and m.cols == 2
    with pytest.raises(RingError):
        Matrix(2, 2, [{2: 1}, {}])
    with pytest.raises(RingError):
        Matrix(1, 2, [{-1: 1}])
    with pytest.raises(RingError):
        Matrix(2, 2, [{0: 1}])


# ---------------------------------------------------------------------------
# independent oracle: sympy's exact DomainMatrix (test-only dependency)


def _random_sparse(rng, field, gens=()):
    """a random sparse matrix whose entries are rationals plus small integer
    multiples of gens"""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    grid = []
    for _ in range(rows):
        row = {}
        for j in range(cols):
            if rng.random() < 0.35:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                row[j] = v + sum(rng.randint(-2, 2) * g for g in gens) if gens else v
        grid.append(row)
    # repeat a combination of rows now and then so the rank drops
    if rows > 2 and rng.random() < 0.5:
        a, b = grid[0], grid[1]
        grid[-1] = {j: a.get(j, 0) * 2 - b.get(j, 0) for j in set(a) | set(b)}
    return Matrix(rows, cols, grid, field), grid


def _check_against_sympy(m, grid, dom, to_dom):
    """rank and kernel of m against sympy on grid, the field-valued rows m
    was built from"""
    from sympy.polys.matrices import DomainMatrix

    zero = dom.zero
    dense = [[to_dom(m.field.coerce(row[j])) if j in row else zero for j in range(m.cols)]
             for row in grid]
    dm = DomainMatrix(dense, (m.rows, m.cols), dom)
    ker = kernel_basis(m)
    assert rank(m) == dm.rank()
    assert len(ker) == m.cols - dm.rank()
    for v in ker:
        for row in grid:
            assert m.field.is_zero(sum((x * v[j] for j, x in row.items()), m.field.zero))


def test_rank_and_kernel_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    QQs = sympy.QQ
    rng = random.Random(20240817)
    for _ in range(150):
        _check_against_sympy(*_random_sparse(rng, QQ), QQs,
                             lambda v: QQs(v.numerator, v.denominator))


def _check_extension_against_sympy(modulus, root, seed, cases):
    """random matrices over Q[s]/(modulus) against sympy's algebraic field
    Q(root), where root is a root of the modulus"""
    sympy = pytest.importorskip("sympy")
    dom = sympy.QQ.algebraic_field(root)
    gen = dom.from_sympy(root)
    f = ExtensionField(modulus)

    def to_dom(v):
        return sum((dom.convert(sympy.QQ(c.numerator, c.denominator)) * gen ** i
                    for i, c in enumerate(v.coeffs)), dom.zero)

    rng = random.Random(seed)
    for _ in range(cases):
        _check_against_sympy(*_random_sparse(rng, f, field_powers(f)[1:]), dom, to_dom)


def test_rank_and_kernel_match_sympy_over_gaussian_field():
    sympy = pytest.importorskip("sympy")
    _check_extension_against_sympy([1, 0, 1], sympy.I, 7, 60)


def test_rank_and_kernel_match_sympy_over_eisenstein_field():
    sympy = pytest.importorskip("sympy")
    omega = sympy.Rational(-1, 2) + sympy.sqrt(3) * sympy.I / 2
    _check_extension_against_sympy([1, 1, 1], omega, 8, 60)


def test_rank_and_kernel_match_sympy_over_cubic_field():
    sympy = pytest.importorskip("sympy")
    _check_extension_against_sympy([-2, 0, 0, 1], sympy.cbrt(2), 9, 40)


def test_cochain_matrices_match_sympy():
    sympy = pytest.importorskip("sympy")
    QQs = sympy.QQ
    om = parse_poly("x^3+y^3+z^3+x*y*z", Weights(1, 1, 1))
    for d in (0, 2, 4):
        for m in cochain_matrices(om, d):
            _check_against_sympy(m, m.entries, QQs, lambda v: QQs(v.numerator, v.denominator))


# ---------------------------------------------------------------------------
# restriction of scalars against the unit-pivot elimination it replaced


_MODULI = ([1, 1, 1], [1, 0, 1], [-2, 0, 0, 1], [-3, 1])


def _random_ext_matrix(rng, f):
    """random sparse matrix over f with zero rows and rows that are
    K-multiples of earlier rows; may have no rows or no columns"""
    def elem():
        return (f.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                + sum(rng.randint(-2, 2) * p for p in field_powers(f)[1:]))

    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    grid = []
    for _ in range(rows):
        pick = rng.random()
        if pick < 0.1:
            grid.append({})
        elif pick < 0.35 and grid:
            c = elem()
            grid.append({j: v * c for j, v in rng.choice(grid).items()})
        else:
            grid.append({j: elem() for j in range(cols) if rng.random() < 0.45})
    return cols, grid


@pytest.mark.parametrize("modulus", _MODULI, ids=["s^2+s+1", "s^2+1", "s^3-2", "s-3"])
def test_extension_elimination_matches_unit_pivot_reference(modulus):
    f = ExtensionField(modulus)
    rng = random.Random(1968 + len(modulus))
    cases = [(0, []), (0, [{}, {}, {}]), (3, [{}, {}])]
    cases += [_random_ext_matrix(rng, f) for _ in range(80)]
    for cols, grid in cases:
        m = Matrix(len(grid), cols, grid, f)
        assert rank(m) == reference_rank(f, grid)
        ker = kernel_basis(m)
        assert ker == reference_kernel_basis(f, cols, grid)
        assert all(isinstance(u, ExtElem) for v in ker for u in v)


def test_reducible_modulus_zero_divisor_pivot_refused():
    # s^4+4 = (s^2+2s+2)(s^2-2s+2) has no integer root and no repeated
    # factor, so ExtensionField takes it, and s^2+2s+2 is a zero divisor
    f = ExtensionField([4, 0, 0, 0, 1])
    s = f.generator
    grid = [{0: s * s + s + s + f.coerce(2)}]
    m = Matrix(1, 1, grid, f)
    with pytest.raises(RingError, match="reducible"):
        rank(m)
    with pytest.raises(RingError, match="reducible"):
        kernel_basis(m)
    # the unit pivot it replaced refused the same matrix
    with pytest.raises(RingError):
        reference_rank(f, grid)


# ---------------------------------------------------------------------------
# contracts of the integer fast paths: ints skip the denominator step in
# Matrix and in elimination, which must still copy and still validate


def _entry_cases():
    """matrices over Q with int, Fraction and mixed rows, and over
    Q(s); rows of content 1 and above, and rows that reduce to zero"""
    f = ExtensionField([1, 1, 1])
    s = f.generator
    ints = [{0: 1, 2: 3}, {0: 2, 2: 6}, {1: 4, 2: 2}, {0: 5, 1: 1, 2: 2}, {1: 6}]
    return [
        pytest.param(Matrix(5, 3, ints), id="int"),
        pytest.param(Matrix(3, 3, [{0: Fraction(1, 2), 2: Fraction(3, 4)},
                                   {0: Fraction(1, 3), 2: Fraction(1, 2)},
                                   {1: Fraction(2, 5), 2: Fraction(1)}]), id="fraction"),
        pytest.param(Matrix(4, 3, [{0: 1, 2: Fraction(1, 2)}, {0: 2, 2: 1},
                                   {0: Fraction(4), 1: 3}, {1: Fraction(-3, 7), 2: 2}]),
                     id="mixed"),
        pytest.param(Matrix(3, 3, [{0: s + 1, 2: f.coerce(2)}, {0: 2 * s + 2, 2: 4 * s},
                                   {1: s, 2: f.coerce(Fraction(1, 2))}], f), id="extension"),
    ]


@pytest.mark.parametrize("m", _entry_cases())
def test_rank_and_kernel_leave_entries_unchanged(m):
    before = copy.deepcopy(m.entries)
    rows = list(m.entries)
    rank(m)
    kernel_basis(m)
    assert m.entries == before
    assert all(a is b for a, b in zip(m.entries, rows))


def test_constructor_validates_every_column_and_drops_zero_ints():
    for bad in ("0", 1.0, None, -1, 3):
        with pytest.raises(RingError, match="column index"):
            Matrix(1, 3, [{0: 1, bad: 2}])
        with pytest.raises(RingError, match="column index"):
            Matrix(1, 3, [{bad: Fraction(1, 2)}])
    m = Matrix(3, 3, [{0: 0, 1: 5, 2: 0}, {2: Fraction(0)}, {0: Fraction(2), 1: -7}])
    assert m.entries == [{1: 5}, {}, {0: 2, 1: -7}]
    assert type(m.entries[0][1]) is int and type(m.entries[2][0]) is int
    # over Q(s)/(s^2+s+1) each value is its 2 x 2 block: 2 is twice the
    # identity, and s takes 1 to s and s to s^2 = -1 - s
    f = ExtensionField([1, 1, 1])
    assert Matrix(1, 2, [{0: 0, 1: 2}], f).entries == [{2: 2}, {3: 2}]
    assert Matrix(1, 1, [{0: f.generator}], f).entries == [{1: -1}, {0: 1, 1: -1}]


def _representations(rng):
    """one random integer matrix as int rows, as Fraction rows, and as
    mixed rows, some scaled by a non-integer rational: one row space"""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    grid = [{j: rng.randint(-6, 6) for j in range(cols) if rng.random() < 0.4}
            for _ in range(rows)]
    if rows > 2:
        grid[-1] = {j: 3 * grid[0].get(j, 0) - grid[1].get(j, 0)
                    for j in set(grid[0]) | set(grid[1])}
    fractions = [{j: Fraction(v) for j, v in row.items()} for row in grid]
    # rows of ints and Fractions, scaled by i+1, or Fraction rows scaled by 1/(i+2)
    mixed = [{j: Fraction(v * (i + 1)) if (i + j) % 2 else v * (i + 1) for j, v in row.items()}
             if i % 3 else {j: Fraction(v, i + 2) for j, v in row.items()}
             for i, row in enumerate(grid)]
    return [Matrix(rows, cols, g) for g in (grid, fractions, mixed)]


def test_int_fraction_and_mixed_rows_give_one_rank_and_kernel():
    rng = random.Random(1968)
    for _ in range(150):
        ms = _representations(rng)
        assert len({rank(m) for m in ms}) == 1
        assert all(kernel_basis(m) == kernel_basis(ms[0]) for m in ms[1:])


def test_int_fraction_and_mixed_rows_match_sympy():
    sympy = pytest.importorskip("sympy")
    QQs = sympy.QQ
    rng = random.Random(1968)
    for _ in range(150):
        for m in _representations(rng):
            _check_against_sympy(m, m.entries, QQs, lambda v: QQs(v.numerator, v.denominator))


def test_rows_of_ints_fractions_and_whole_fractions_match_the_reference():
    """a row of ints enters elimination through one gcd, which a Fraction
    refuses, Fraction(n, 1) included, sending the row to its denominators:
    rows of each kind and rows mixing all three against the unit-pivot
    reference"""
    rng = random.Random(2718)
    kinds = {"int": lambda v: v, "whole": Fraction,
             "proper": lambda v: Fraction(v, rng.randint(2, 5))}
    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        grid = []
        for _ in range(rows):
            pick = rng.choice(["int", "whole", "mixed"])
            grid.append({j: kinds[rng.choice(list(kinds)) if pick == "mixed" else pick](
                rng.randint(-6, 6)) for j in range(cols) if rng.random() < 0.5})
        if rows > 2:
            grid[-1] = {j: 2 * grid[0].get(j, 0) - grid[1].get(j, 0)
                        for j in set(grid[0]) | set(grid[1])}
        m = Matrix(rows, cols, grid)
        assert rank(m) == reference_rank(QQ, grid)
        assert kernel_basis(m) == reference_kernel_basis(QQ, cols, grid)


def _planted(rng, grid, cols, scalar):
    """grid with 1-3 rows appended, each an earlier row plus a scalar in a
    new last column: back-substitution cancels every other entry of such a
    row to zero, and its column is zero in every kernel vector"""
    for k in range(rng.randint(1, 3)):
        row = dict(rng.choice(grid))
        row[cols + k] = scalar()
        grid.append(row)
    return cols + k + 1


def test_kernel_basis_back_substitution_matches_the_reference():
    """seeded sparse rank-deficient matrices over Q, of int, Fraction and
    Fraction(n, 1) entries, and over Q[s]/(s^2+s+1), with planted rows whose
    back-substitution cancels to zero, against the unit-pivot reference"""
    rng = random.Random(3003)
    f = ExtensionField([1, 1, 1])
    kinds = [lambda v: v, Fraction, lambda v: Fraction(v, rng.randint(2, 5))]

    def ext(v):
        return f.coerce(Fraction(v, rng.randint(1, 3))) + rng.randint(-2, 2) * f.generator

    for field, entries in [(QQ, kind) for kind in kinds] + [(QQ, None), (f, ext)]:
        for _ in range(60):
            rows, cols = rng.randint(2, 8), rng.randint(2, 8)
            kind = entries or (lambda v: rng.choice(kinds)(v))
            grid = [{j: kind(rng.randint(-6, 6)) for j in range(cols) if rng.random() < 0.4}
                    for _ in range(rows - 1)]
            # the last row a combination of two: the rank is below the row count
            grid.append({j: 2 * grid[0].get(j, 0) - 3 * grid[-1].get(j, 0)
                         for j in set(grid[0]) | set(grid[-1])})
            width = _planted(rng, grid, cols, lambda: kind(rng.randint(1, 5)))
            m = Matrix(len(grid), width, grid, field)
            assert rank(m) == reference_rank(field, grid) < len(grid)
            ker = kernel_basis(m)
            assert ker == reference_kernel_basis(field, width, grid)
            assert all(not v[j] for v in ker for j in range(cols, width))


def test_every_matrix_refusal_names_its_fault():
    with pytest.raises(RingError, match="^negative matrix dimensions$"):
        Matrix(-1, 2, [])
    with pytest.raises(RingError, match=r"^matrix rows must be \{column: value\} dicts$"):
        Matrix(1, 1, [[1]])
    # degree 1 on (1,1,1) has three monomials, so four coordinates do not fit
    with pytest.raises(RingError, match="^coefficient vector does not match the degree layout$"):
        vector_to_polys(Weights(1, 1, 1), QQ, [1], [0, 1, 0, 0])


def test_kernel_basis_refuses_a_matrix_over_a_reduction_whose_ranks_it_keeps():
    """a matrix over F_p (s -> r) has ranks mod p only: ``kernel_basis``
    refuses it before eliminating, and ``rank`` and ``pivot_columns`` read it"""
    image = linalg.reduction(ExtensionField([1, 1, 1]), 1)
    m = Matrix(2, 3, [{0: 1, 1: 2}, {1: 1, 2: 5}], image)
    with pytest.raises(RingError, match=r"^no kernel basis over F_%d \(s -> %d\): a reduction "
                                        r"mod p gives ranks only$" % (image.p, image.r)):
        kernel_basis(m)
    assert (rank(m), linalg.pivot_columns(m)) == (2, {1, 2})
