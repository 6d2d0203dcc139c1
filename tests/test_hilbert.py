"""Rational Hilbert series: expansion and the closed forms the cohomology
tables are checked against."""

import pytest

from wpoisson import Weights
from wpoisson.hilbert import HilbertSeries, closed_form_ph
from wpoisson.ring import RingError

from closed_forms import closed_form_koszul_h1, closed_form_lph2, euler_rhs


def _shift(h, shift):
    return HilbertSeries({d + shift: c for d, c in h.numerator.items()}, h.denominator)


def test_expand_geometric():
    h = HilbertSeries({0: 1}, (3,))
    assert h.expand(0, 9) == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert h.expand(-2, 1) == [0, 0, 1, 0]


def test_expand_polynomial_numerator():
    h = HilbertSeries({-1: 2, 4: -1})
    assert h.expand(-2, 5) == [0, 2, 0, 0, 0, 0, -1, 0]
    shifted = _shift(HilbertSeries({0: 1}, (2,)), 2)
    assert shifted.expand(0, 6) == [0, 0, 1, 0, 1, 0, 1]


def test_free_ring_series():
    h = HilbertSeries({0: 1}, Weights(1, 1, 2).tuple)
    assert h.expand(0, 4) == [1, 2, 4, 6, 9]
    h235 = HilbertSeries({0: 1}, Weights(2, 3, 5).tuple)
    assert h235.expand(0, 10) == [1, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4]


def test_closed_form_ph_low_indices_are_center_series():
    w = Weights(1, 2, 3)
    for i in (0, 1):
        h = closed_form_ph(w, i)
        assert h.expand(0, 13) == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0]


def test_closed_form_ph_index2_unit_weights():
    got = closed_form_ph(Weights(1, 1, 1), 2).expand(-3, 9)
    assert got == [0, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2]


def test_closed_form_ph_index3_matches_top_component():
    # top cohomology carries the A_sing pattern shifted by -(a+b+c)
    got = closed_form_ph(Weights(1, 1, 1), 3).expand(-3, 9)
    assert got == [1, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2]


def test_closed_form_ph_rejects_bad_index():
    with pytest.raises(RingError):
        closed_form_ph(Weights(1, 1, 1), 4)


def test_closed_form_lph2_bounded_piece():
    got = closed_form_lph2(Weights(1, 1, 2), 4).expand(-4, 10)
    assert got == [0, 2, 3, 2, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2, 3]


def test_closed_form_lph2_requires_degree_above_weights():
    with pytest.raises(RingError):
        closed_form_lph2(Weights(1, 2, 3), 3)


def test_closed_form_koszul_h1_4_4():
    h = closed_form_koszul_h1(4, 4)
    ex = h.expand(0, 64)
    nonzero = {d for d, v in enumerate(ex) if v}
    assert nonzero == {24, 32, 40, 48, 56, 64}
    assert all(ex[d] == 1 for d in nonzero)


def test_closed_form_koszul_h1_6_3():
    # c' = 18 - 9 = 9, numerator degree 27
    h = closed_form_koszul_h1(6, 3)
    ex = h.expand(0, 54)
    nonzero = {d for d, v in enumerate(ex) if v}
    assert nonzero == {27, 36, 45, 54}


def test_closed_form_koszul_h1_rejects_small_weights():
    with pytest.raises(RingError):
        closed_form_koszul_h1(3, 2)


def test_euler_rhs_balanced_degree():
    # at n = a+b+c the whole alternating sum collapses to -t^{-n}
    got = euler_rhs(Weights(1, 1, 1), 3).expand(-6, 2)
    assert got == [0, 0, 0, -1, 0, 0, 0, 0, 0]
    got123 = euler_rhs(Weights(1, 2, 3), 6).expand(-8, 0)
    assert got123 == [0, 0, -1, 0, 0, 0, 0, 0, 0]


def test_euler_rhs_positive_twist():
    got = euler_rhs(Weights(1, 1, 1), 4).expand(-7, 0)
    assert got == [0, -1, -3, -3, -1, 0, 0, 0]


def test_every_series_refusal_names_its_fault():
    with pytest.raises(RingError, match="^denominator exponents must be positive$"):
        HilbertSeries({0: 1}, (1, 0))
    with pytest.raises(RingError, match="^empty expansion window$"):
        HilbertSeries({0: 1}, (1,)).expand(2, 1)
    with pytest.raises(RingError, match="^potential degree must be positive$"):
        closed_form_ph(Weights(1, 1, 1), 0, 0)
