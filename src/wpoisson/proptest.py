"""Seeded randomized property suites.

Four independent suites, each checking an algebraic law on generated inputs:
bracket antisymmetry and the Leibniz rule, rank plus nullity against column
count, curl of a gradient vanishing, and text round-tripping.  Deterministic
for a fixed seed; used both by the test suite and the `selftest` subcommand.
"""

import random
from fractions import Fraction

from .ring import (
    ExtensionField,
    Polynomial,
    QQ,
    Weights,
    curl,
    gradient,
    monomial_basis,
)
from .linalg import Matrix, kernel_basis, rank
from .textio import format_poly, parse_poly
from .poisson import bracket, from_potential

WEIGHT_POOL = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 2), (2, 3, 5), (1, 1, 3)]


def _random_coef(rng):
    num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_polynomial(rng, weights, max_degree=9, max_terms=4):
    """Random nonzero polynomial, not necessarily homogeneous."""
    f = Polynomial.zero(weights)
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree)
        basis = monomial_basis(weights, d)
        if not basis:
            continue
        m = rng.choice(basis)
        f = f + Polynomial.monomial(weights, m, _random_coef(rng))
    if f.is_zero():
        f = Polynomial.constant(weights, Fraction(1))
    return f


def random_homogeneous(rng, weights, degree):
    basis = monomial_basis(weights, degree)
    f = Polynomial.zero(weights)
    if not basis:
        return f
    for m in rng.sample(basis, k=min(len(basis), rng.randint(1, 3))):
        f = f + Polynomial.monomial(weights, m, _random_coef(rng))
    return f


def suite_bracket_laws(seed, cases):
    """{f,g} = -{g,f} and {f, g*h} = g*{f,h} + {f,g}*h for potential brackets."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        weights = Weights(*rng.choice(WEIGHT_POOL))
        n = weights.n_default + rng.randint(0, 2)
        omega = random_homogeneous(rng, weights, n)
        if omega.is_zero():
            omega = (Polynomial.variable(weights, "x")
                     * Polynomial.variable(weights, "y")
                     * Polynomial.variable(weights, "z"))
        s = from_potential(omega)
        f = random_polynomial(rng, weights, max_degree=6, max_terms=3)
        g = random_polynomial(rng, weights, max_degree=6, max_terms=3)
        h = random_polynomial(rng, weights, max_degree=4, max_terms=2)
        anti = bracket(s, f, g) + bracket(s, g, f)
        leib = bracket(s, f, g * h) - g * bracket(s, f, h) - bracket(s, f, g) * h
        if not anti.is_zero() or not leib.is_zero():
            failures += 1
    return failures


def suite_rank_nullity(seed, cases):
    """rank(M) + dim ker(M) equals the column count; every other case is
    over Q[s]/(s^2+s+1), whose elimination restricts scalars to Q."""
    rng = random.Random(seed)
    w = ExtensionField([1, 1, 1]).generator  # a primitive cube root of unity
    failures = 0
    for case in range(cases):
        over_q = case % 2 == 0
        rows = rng.randint(0, 7)
        cols = rng.randint(0, 7)
        grid = [{j: _random_coef(rng) if over_q else _random_coef(rng) + _random_coef(rng) * w
                 for j in range(cols) if rng.random() < 0.45}
                for _ in range(rows)]
        m = Matrix(rows, cols, grid, QQ if over_q else w.field)
        ker = kernel_basis(m)
        if rank(m) + len(ker) != cols:
            failures += 1
            continue
        # every reported kernel vector must annihilate the rows drawn
        for vec in ker:
            img = [sum(v * vec[j] for j, v in row.items()) for row in grid]
            if any(v != 0 for v in img):
                failures += 1
                break
    return failures


def suite_curl_grad(seed, cases):
    """curl(grad f) = 0 for random polynomials."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        weights = Weights(*rng.choice(WEIGHT_POOL))
        f = random_polynomial(rng, weights, max_degree=10, max_terms=5)
        c = curl(gradient(f))
        if not (c.f1.is_zero() and c.f2.is_zero() and c.f3.is_zero()):
            failures += 1
    return failures


def suite_roundtrip(seed, cases):
    """parse(format(f)) = f, and formatting is idempotent through a parse."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        weights = Weights(*rng.choice(WEIGHT_POOL))
        f = random_polynomial(rng, weights, max_degree=12, max_terms=6)
        text = format_poly(f)
        back = parse_poly(text, weights)
        if back != f or format_poly(back) != text:
            failures += 1
    return failures


SUITES = [
    ("bracket-laws", suite_bracket_laws),
    ("rank-nullity", suite_rank_nullity),
    ("curl-grad", suite_curl_grad),
    ("parse-format-roundtrip", suite_roundtrip),
]


def run_all_suites(seed=20240817, cases=100):
    """Run the four suites; returns [(name, cases, failures)]."""
    outcomes = []
    for offset, (name, fn) in enumerate(SUITES):
        outcomes.append((name, cases, fn(seed + offset, cases)))
    return outcomes
