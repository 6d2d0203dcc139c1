"""Test-local closed forms: the lower Poisson cohomology LPH^2, and the
Poisson cohomology of an isolated potential of any degree (Pichereau,
"Poisson (co)homology and isolated singularities", J. Algebra 299, 2006)."""

from wpoisson import HilbertSeries, RingError, closed_form_ph


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
