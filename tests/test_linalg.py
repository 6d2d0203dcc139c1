"""Exact linear algebra over the coefficient fields."""

import random
from fractions import Fraction

import pytest

from wpoisson import (ExtensionField, Matrix, QQ, Weights, in_column_span,
                      kernel_basis, parse_poly, rank)
from wpoisson import complexes
from wpoisson.ring import RingError


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


def test_in_column_span():
    m = Matrix(3, 2, _rows([[1, 0], [0, 1], [1, 1]]))
    hit, witness = in_column_span(m, [2, 3, 5])
    assert hit and witness == [2, 3]
    miss, none_witness = in_column_span(m, [1, 1, 3])
    assert not miss and none_witness is None
    hit0, witness0 = in_column_span(m, [0, 0, 0])
    assert hit0 and witness0 == [0, 0]


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


def _random_sparse(rng, field, gen):
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    grid = []
    for _ in range(rows):
        row = {}
        for j in range(cols):
            if rng.random() < 0.35:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                row[j] = v + rng.randint(-2, 2) * gen if gen is not None else v
        grid.append(row)
    # repeat a combination of rows now and then so the rank drops
    if rows > 2 and rng.random() < 0.5:
        a, b = grid[0], grid[1]
        grid[-1] = {j: a.get(j, 0) * 2 - b.get(j, 0) for j in set(a) | set(b)}
    return Matrix(rows, cols, grid, field)


def _check_against_sympy(m, dom, to_dom):
    from sympy.polys.matrices import DomainMatrix

    zero = dom.zero
    dense = [[to_dom(row[j]) if j in row else zero for j in range(m.cols)]
             for row in m.entries]
    dm = DomainMatrix(dense, (m.rows, m.cols), dom)
    ker = kernel_basis(m)
    assert rank(m) == dm.rank()
    assert len(ker) == m.cols - dm.rank()
    for v in ker:
        for row in m.entries:
            assert m.field.is_zero(sum((x * v[j] for j, x in row.items()), m.field.zero))


def test_rank_and_kernel_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    QQs = sympy.QQ
    rng = random.Random(20240817)
    for _ in range(150):
        m = _random_sparse(rng, QQ, None)
        _check_against_sympy(m, QQs, lambda v: QQs(v.numerator, v.denominator))


def test_rank_and_kernel_match_sympy_over_gaussian_field():
    sympy = pytest.importorskip("sympy")
    dom = sympy.QQ.algebraic_field(sympy.I)
    i = dom.from_sympy(sympy.I)
    f = ExtensionField([1, 0, 1])

    def to_dom(v):
        a, b = (dom.convert(sympy.QQ(c.numerator, c.denominator)) for c in v.coeffs)
        return a + b * i

    rng = random.Random(7)
    for _ in range(60):
        _check_against_sympy(_random_sparse(rng, f, f.generator), dom, to_dom)


def test_cochain_matrices_match_sympy():
    sympy = pytest.importorskip("sympy")
    QQs = sympy.QQ
    om = parse_poly("x^3+y^3+z^3+x*y*z", Weights(1, 1, 1))
    for d in (0, 2, 4):
        for m in complexes.cochain_matrices(om, d):
            _check_against_sympy(m, QQs, lambda v: QQs(v.numerator, v.denominator))
