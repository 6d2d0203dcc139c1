"""Seeded randomized property suites.

Four laws, each checking one generated case of an algebraic identity:
bracket antisymmetry and the Leibniz rule, rank plus nullity against column
count, curl of a gradient vanishing, and text round-tripping.  One runner,
``run_all_suites``, draws every case and counts the failures.  Deterministic
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


def bracket_laws(rng, case):
    """{f,g} = -{g,f} and {f, g*h} = g*{f,h} + {f,g}*h for a potential
    bracket; a degree n >= a+b+c has a monomial on every pool triple, so the
    potential is never zero"""
    weights = Weights(*rng.choice(WEIGHT_POOL))
    n = weights.n_default + rng.randint(0, 2)
    s = from_potential(random_homogeneous(rng, weights, n))
    f = random_polynomial(rng, weights, max_degree=6, max_terms=3)
    g = random_polynomial(rng, weights, max_degree=6, max_terms=3)
    h = random_polynomial(rng, weights, max_degree=4, max_terms=2)
    anti = bracket(s, f, g) + bracket(s, g, f)
    leib = bracket(s, f, g * h) - g * bracket(s, f, h) - bracket(s, f, g) * h
    return anti.is_zero() and leib.is_zero()


_CUBE_ROOT = ExtensionField([1, 1, 1]).generator  # a primitive cube root of unity


def rank_nullity(rng, case):
    """rank(M) + dim ker(M) equals the column count, and every kernel vector
    annihilates the rows drawn; odd cases are over Q[s]/(s^2+s+1), whose
    elimination restricts scalars to Q"""
    over_q = case % 2 == 0
    rows = rng.randint(0, 7)
    cols = rng.randint(0, 7)
    grid = [{j: _random_coef(rng) if over_q else _random_coef(rng) + _random_coef(rng) * _CUBE_ROOT
             for j in range(cols) if rng.random() < 0.45}
            for _ in range(rows)]
    m = Matrix(rows, cols, grid, QQ if over_q else _CUBE_ROOT.field)
    ker = kernel_basis(m)
    return rank(m) + len(ker) == cols and all(
        sum(v * vec[j] for j, v in row.items()) == 0 for vec in ker for row in grid)


def curl_grad(rng, case):
    """curl(grad f) = 0"""
    weights = Weights(*rng.choice(WEIGHT_POOL))
    c = curl(gradient(random_polynomial(rng, weights, max_degree=10, max_terms=5)))
    return c.f1.is_zero() and c.f2.is_zero() and c.f3.is_zero()


def roundtrip(rng, case):
    """parse(format(f)) = f, and formatting is idempotent through a parse"""
    weights = Weights(*rng.choice(WEIGHT_POOL))
    f = random_polynomial(rng, weights, max_degree=12, max_terms=6)
    text = format_poly(f)
    back = parse_poly(text, weights)
    return back == f and format_poly(back) == text


SUITES = [
    ("bracket-laws", bracket_laws),
    ("rank-nullity", rank_nullity),
    ("curl-grad", curl_grad),
    ("parse-format-roundtrip", roundtrip),
]


def run_all_suites(seed=20240817, cases=100):
    """Check each law on ``cases`` cases drawn from random.Random(seed + k)
    for suite k; returns [(name, cases, failures)]."""
    outcomes = []
    for offset, (name, law) in enumerate(SUITES):
        rng = random.Random(seed + offset)
        outcomes.append((name, cases, sum(not law(rng, case) for case in range(cases))))
    return outcomes
