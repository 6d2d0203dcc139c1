"""The randomized suites themselves: generators, determinism, and a law
that fails every case of its own suite, and only that suite, when the
function it checks is broken."""

import random

import pytest
from click.testing import CliRunner

from wpoisson import PolyVector, Weights, linalg, poisson, proptest, ring, textio
from wpoisson.cli import main

from work_counts import spy


def test_random_homogeneous_is_homogeneous():
    rng = random.Random(7)
    for w in (Weights(1, 1, 1), Weights(1, 2, 3), Weights(2, 3, 5)):
        for d in range(0, 12):
            f = proptest.random_homogeneous(rng, w, d)
            assert f.is_zero() or (f.is_homogeneous() and f.degree() == d)


def test_random_polynomial_degree_bound():
    rng = random.Random(11)
    for _ in range(50):
        f = proptest.random_polynomial(rng, Weights(1, 2, 2), max_degree=7)
        assert f.degree() <= 7


def test_suites_deterministic_under_seed():
    first = proptest.run_all_suites(seed=123, cases=20)
    second = proptest.run_all_suites(seed=123, cases=20)
    assert first == second
    assert [name for name, _, _ in first] == [
        "bracket-laws", "rank-nullity", "curl-grad", "parse-format-roundtrip"]


def _curl_plus_one(real):
    def call(v):
        c = real(v)
        return PolyVector(c.f1 + 1, c.f2, c.f3)
    return call


# suite -> (owner, name, wrap): the function its law checks, broken
_BROKEN = {
    "bracket-laws": (poisson, "bracket", lambda real: lambda *a: real(*a) + 1),
    "rank-nullity": (linalg, "rank", lambda real: lambda m: real(m) + 1),
    "curl-grad": (ring, "curl", _curl_plus_one),
    "parse-format-roundtrip": (textio, "format_poly", lambda real: lambda f: real(f) + "+1"),
}


@pytest.mark.parametrize("suite", list(_BROKEN))
def test_a_broken_law_fails_its_own_suite_and_selftest_exits_1(suite):
    assert proptest.run_all_suites(seed=5, cases=7) == [
        (name, 7, 0) for name, _ in proptest.SUITES]
    with spy(*_BROKEN[suite]):
        outcomes = proptest.run_all_suites(seed=5, cases=7)
        res = CliRunner().invoke(main, ["selftest", "--cases", "3"], catch_exceptions=False)
    assert outcomes == [(name, 7, 7 if name == suite else 0) for name, _ in proptest.SUITES]
    assert res.exit_code == 1
    assert "ok: False" in res.stdout
