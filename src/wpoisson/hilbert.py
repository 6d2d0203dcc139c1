"""Exact rational Hilbert series: Laurent numerator over a multiset of
(1 - t^e) denominator factors, truncated expansion, and closed forms."""

from __future__ import annotations

from .ring import RingError, Weights


def _laurent_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for d, c in q.items():
        s = out.get(d, 0) - c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


class HilbertSeries:
    """numerator: {degree: int} Laurent polynomial; denominator: sorted tuple
    of positive integers e, one (1 - t^e) factor per entry."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: dict, denominator=()):
        self.numerator = {int(d): int(c) for d, c in numerator.items() if c}
        den = tuple(sorted(int(e) for e in denominator))
        if any(e <= 0 for e in den):
            raise RingError("denominator exponents must be positive")
        self.denominator = den

    def expand(self, d_min: int, d_max: int):
        """Exact integer coefficients of the Laurent expansion on [d_min, d_max]."""
        if d_min > d_max:
            raise RingError("empty expansion window")
        if not self.numerator:
            return [0] * (d_max - d_min + 1)
        lo = min(self.numerator)
        # after factoring t^lo out of the numerator the series is an ordinary
        # power series; expand each 1/(1-t^e) geometrically up to the window top
        top = d_max - lo
        if top < 0:
            return [0] * (d_max - d_min + 1)
        coeffs = [0] * (top + 1)
        for d, c in self.numerator.items():
            if d - lo <= top:
                coeffs[d - lo] += c
        for e in self.denominator:
            # multiply by 1/(1-t^e): prefix-sum with stride e
            for i in range(e, top + 1):
                coeffs[i] += coeffs[i - e]
        out = []
        for d in range(d_min, d_max + 1):
            idx = d - lo
            out.append(coeffs[idx] if 0 <= idx <= top else 0)
        return out


def _product_one_minus(exponents) -> dict:
    out = {0: 1}
    for e in exponents:
        # times 1 - t^e, the zero polynomial when e = 0
        out = _laurent_sub(out, {d + e: c for d, c in out.items()})
    return out


def closed_form_ph(weights: Weights, i: int, n=None) -> HilbertSeries:
    """Closed-form Hilbert series of the i-th Poisson cohomology for a
    potential of degree n with all the regularity the balanced irreducible
    case enjoys.  Default n = a + b + c."""
    a, b, c = weights.tuple
    n0 = a + b + c
    if n is None:
        n = n0
    if i not in (0, 1, 2, 3):
        raise RingError("cohomology index must be 0..3")
    if n <= 0:
        raise RingError("potential degree must be positive")
    if i in (0, 1):
        return HilbertSeries({0: 1}, (n,))
    top = _product_one_minus((n - a, n - b, n - c))
    if i == 3:
        return HilbertSeries({d - n0: cc for d, cc in top.items()}, (n, a, b, c))
    # i == 2: (1/t^{a+b+c}) * (top/((1-t^n)(1-t^a)(1-t^b)(1-t^c)) - 1)
    full_den = _product_one_minus((n, a, b, c))
    num = _laurent_sub(top, full_den)
    return HilbertSeries({d - n0: cc for d, cc in num.items()}, (n, a, b, c))
