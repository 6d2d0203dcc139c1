"""Test-local closed forms: the lower Poisson cohomology LPH^2, the
Poisson cohomology of an isolated potential of any degree (Pichereau,
"Poisson (co)homology and isolated singularities", J. Algebra 299, 2006),
the first Koszul homology of the x*y*z + g(x,y) family, and the rational
function the alternating sum of a cohomology table telescopes to."""

from wpoisson import HilbertSeries, RingError, closed_form_ph
from wpoisson.hilbert import _product_one_minus


def closed_form_lph2(weights, n):
    """LPH^2 = dim M2 - rank d1 per degree, for a potential of degree n
    above every weight"""
    if n <= max(weights.tuple):
        raise RingError("potential degree must exceed every weight")
    return closed_form_ph(weights, 2, n)


def _one_minus_product(exponents):
    """prod (1 - t^e) as a {degree: coefficient} dict"""
    out = {0: 1}
    for e in exponents:
        step = dict(out)
        for d, c in out.items():
            step[d + e] = step.get(d + e, 0) - c
        out = {d: c for d, c in step.items() if c}
    return out


def isolated_ph(weights, n):
    """PH^0..PH^3 of an isolated potential of degree n != a+b+c.  With the
    Milnor series J = prod (1 - t^(n-w))/(1 - t^w) and s = a+b+c:
    PH^0 = 1/(1-t^n), PH^1 = 0, PH^2 = t^-s (J-1)/(1-t^n) and
    PH^3 = t^-s J/(1-t^n)."""
    s = sum(weights.tuple)
    top = _one_minus_product(n - w for w in weights.tuple)
    below = _one_minus_product(weights.tuple)
    minus_one = dict(top)
    for d, c in below.items():
        minus_one[d] = minus_one.get(d, 0) - c
    den = (n,) + weights.tuple
    return [HilbertSeries({0: 1}, (n,)),
            HilbertSeries({}),
            HilbertSeries({d - s: c for d, c in minus_one.items()}, den),
            HilbertSeries({d - s: c for d, c in top.items()}, den)]


def closed_form_koszul_h1(a_p, b_p):
    """First Koszul homology of the x*y*z + g(x,y) family, in the regrading
    where x, y carry a_p, b_p: t^(c'+a'b') / (1 - t^c') with
    c' = a'b' - a' - b'.  Requires a', b' >= 3."""
    if a_p < 3 or b_p < 3:
        raise RingError("regraded weights must both be at least 3")
    c_p = a_p * b_p - a_p - b_p
    return HilbertSeries({c_p + a_p * b_p: 1}, (c_p,))


def euler_rhs(weights, n):
    """The rational function every truncated Poisson-cohomology table must
    telescope to: -(1/t^{3w+a+b+c}) (1-t^{w+a})(1-t^{w+b})(1-t^{w+c})
    / ((1-t^a)(1-t^b)(1-t^c)) with w = n-a-b-c."""
    a, b, c = weights.tuple
    w = n - a - b - c
    num = _product_one_minus((w + a, w + b, w + c))
    shift = -(3 * w + a + b + c)
    return HilbertSeries({d + shift: -cc for d, cc in num.items()}, (a, b, c))
