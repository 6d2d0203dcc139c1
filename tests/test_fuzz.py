"""A seeded command-line fuzzer: valid and malformed --weights, --field,
--potential, --map/--inverse and --max-degree values over the subcommands
that take them, and --xi on verify-aut, the --pxy/--pyz/--pzx components
of the structure commands and selftest's --cases and --seed.  Every case
must exit 0, 1 or 2 and print no traceback; a case that exits 2 prints one
``error:`` line, or click's usage block ending in one ``Error:`` line.  A
case that exits 0 or 1 in ``--format json`` exits 1 exactly when the flag
its command checks is false in its report.
``catalog verify`` cases draw --filter by entry id and by type, --checks
subsets and bounds, and must pass or be refused.
Cases are bounded by counts, not by a clock: small weights, degrees and
bounds, and bounds far past the window budget, which are refused before
anything is listed."""

import json
import random

import pytest
from click.testing import CliRunner

from wpoisson import catalog, complexes
from wpoisson.cli import main

VARS = "xyz"
WEIGHTS = [(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 3), (1, 2, 2), (2, 3, 3), (1, 3, 3)]
COEFFS = ["", "", "", "-", "2*", "-3*", "1/2*", "-5/3*"]
EXT_COEFFS = ["s*", "(1+s)*", "-s*", "(2-s)*"]
FIELDS = {"rationals": "rationals", "Q": "rationals", "s^2+s+1": "ext", "s^2 + 1": "ext"}
BAD_FIELDS = ["s^2-1", "s", "2*s^2+1", "s^40+1", "s^2+s+1+q", "s^2+", "t^2+1",
              "s^99999999999999999999+1", "s^2+1000001", "-s^2+1"]
BAD_WEIGHTS = ["1,1", "1,1,1,1", "0,1,1", "-1,1,1", "a,b,c", "", "1,,1", "1.5,1,1",
               "1;1;1", "9999999,1,1", "1,1,99999999999999999999"]
BAD_BOUNDS = ["abc", "1.5", "", "1e3", "--", "0x10"]
# the window budget refuses these bounds before a monomial is listed
HUGE_BOUNDS = ["10000000", "99999999999999999999", "-10000000"]
# a letter outside ASCII, and a digit that is not decimal: int() refuses it
NOISE = "xyzs0123456789+-*^/()  q_;>é²"
BOUND_COMMANDS = ["cohomology", "koszul", "sealed", "vacancy", "ozone"]
# a type filter selects 3 to 84 entries, so its cases take small bounds only
BAD_FILTERS = ["type:", "type:x", "table:999", "weights:1,1", ""]
BAD_CHECKS = ["", ",", "rgt,,gk", "vacancy,nope", "all", "Sealed"]
PLAIN_COMMANDS = ["rgt", "gkdim", "singularity", "jacobi", "modular"]
STRUCTURE_COMMANDS = ["bracket", "jacobi", "modular"]
COMPONENTS = ["--pxy", "--pyz", "--pzx"]
XI_VALUES = ["0", "1", "-2", "1/2", "-3/4", "5/3", "0.5", "1e2", "-1e-3", "1_000"]
# malformed text and zero denominators are usage errors; the last three are
# past the 10^6 guard, which refuses them before a power of ten is expanded
BAD_XI = ["", "abc", "1/", "/2", "1//2", "x", "1/0", "0/0", "-3/0", "2000000",
          "-1/1000001", "1e999999", "1e-9999999", "99999999999999999999"]
SMALL_CASES = ["1", "2", "3"]
BAD_CASES = ["0", "-1", "abc", "", "1.5", "0x10", "10001", "100000000",
             "99999999999999999999"]
SEEDS = ["0", "1", "-7", "20240817", "99999999999999999999", "abc", "", "1.5"]
# the reported flag that each checking command reads its exit code off;
# every other command exits 0 when it reports
CHECKED_FLAGS = {"jacobi": "is_zero", "modular": "is_zero", "verify-aut": "passed",
                 "catalog-verify": "ok", "selftest": "ok"}


def _mutate(rng, text):
    """text with one or two characters inserted, deleted or cut after"""
    for _ in range(rng.randint(1, 2)):
        at = rng.randint(0, len(text))
        how = rng.random()
        if how < 0.5:
            text = text[:at] + rng.choice(NOISE) + text[at:]
        elif how < 0.85:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


def _monomials(weights, d):
    a, b, c = weights
    return [(i, j, (d - a * i - b * j) // c)
            for i in range(d // a + 1) for j in range((d - a * i) // b + 1)
            if (d - a * i - b * j) % c == 0]


def _mono_text(m):
    parts = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(VARS, m) if e]
    return "*".join(parts) or "1"


def _poly_text(rng, weights, d, ext):
    mons = _monomials(weights, d)
    coeffs = COEFFS + EXT_COEFFS if ext else COEFFS
    chosen = rng.sample(mons, min(len(mons), rng.randint(1, 4)))
    text = "+".join(rng.choice(coeffs) + _mono_text(m) for m in chosen)
    return text.replace("+-", "-") or "0"


def _potential(rng, weights, ext):
    n = sum(weights)
    d = rng.choice([max(weights), n, n, n + 1, 2 * n])
    kind = rng.random()
    if kind < 0.7:
        return _poly_text(rng, weights, d, ext)
    if kind < 0.8:  # not homogeneous
        return _poly_text(rng, weights, d, ext) + "+" + _poly_text(rng, weights, d + 1, ext)
    if kind < 0.85:
        return rng.choice(["0", "1", "x-x", "s", "(x+y+z)^100000", "x^1000001"])
    return _mutate(rng, _poly_text(rng, weights, d, ext))


def _map(rng, weights, ext):
    """a map text: the identity, or each generator to a sum of monomials of
    its own weight (a graded map) or of another weight, with a generator
    left out or repeated, or a mutated text"""
    if rng.random() < 0.2:
        return "x->x; y->y; z->z"
    entries = []
    for v, w in zip(VARS, weights):
        d = w if rng.random() < 0.8 else w + 1
        entries.append("%s->%s" % (v, _poly_text(rng, weights, d, ext)))
    rng.shuffle(entries)
    kind = rng.random()
    if kind < 0.1:
        entries.pop()
    elif kind < 0.15:
        entries.append(entries[0])
    text = rng.choice(["; ", ";", " ; "]).join(entries)
    return _mutate(rng, text) if rng.random() < 0.25 else text


def _case(rng):
    """one argument list"""
    field_text = rng.choice(list(FIELDS) if rng.random() < 0.85 else BAD_FIELDS)
    ext = FIELDS.get(field_text) == "ext"
    weights = rng.choice(WEIGHTS)
    weights_text = ",".join(map(str, weights)) if rng.random() < 0.9 else rng.choice(BAD_WEIGHTS)
    common = ["-w", weights_text, "--potential", _potential(rng, weights, ext)]
    if field_text != "rationals" or rng.random() < 0.2:
        common += ["--field", field_text]
    kind = rng.random()
    if kind < 0.35:
        args = [rng.choice(PLAIN_COMMANDS)] + common
    elif kind < 0.65:
        args = [rng.choice(BOUND_COMMANDS)] + common
        bound = rng.random()
        if bound < 0.1:
            pass  # the default bound, 3n+12
        elif bound < 0.75:
            args += ["--max-degree", str(rng.randint(-2, 8))]
        elif bound < 0.9:
            args += ["--max-degree", rng.choice(HUGE_BOUNDS)]
        else:
            args += ["--max-degree", rng.choice(BAD_BOUNDS)]
    elif kind < 0.95:
        args = ["verify-aut"] + common + ["--map", _map(rng, weights, ext)]
        if rng.random() < 0.3:
            args += ["--inverse", _map(rng, weights, ext)]
    else:
        args = ["bracket"] + common + ["--f", _poly_text(rng, weights, 1, ext),
                                       "--g", _mutate(rng, "x*y")]
    fmt = rng.random()
    if fmt < 0.2:
        args += ["--format", rng.choice(["json", "csv", "table"])]
    elif fmt < 0.5 and args[0] in CHECKED_FLAGS:
        args += ["--format", "json"]
    return args


def _format(args):
    """the --format a case runs in: click takes the last one given"""
    at = [i for i, a in enumerate(args) if a == "--format"]
    return args[at[-1] + 1] if at else "table"


def _check(args, res):
    what = "wpoisson %s" % " ".join(repr(a) for a in args)
    exc = res.exception
    assert exc is None or isinstance(exc, SystemExit), "%s raised %r" % (what, exc)
    assert res.exit_code in (0, 1, 2), what
    assert "Traceback" not in res.stdout + res.stderr, what
    if res.exit_code != 2:
        if _format(args) == "json":
            doc = json.loads(res.stdout)
            flag = CHECKED_FLAGS.get(doc["command"])
            failed = flag is not None and doc["results"][flag] is False
            assert res.exit_code == (1 if failed else 0), what
        return
    assert res.stdout == "", what
    lines = res.stderr.splitlines()
    # the error names its reason
    assert not lines[-1].endswith(": "), what
    if lines[0].startswith("error: "):
        assert len(lines) == 1, what
    else:
        assert lines[0].startswith("Usage: ") and lines[-1].startswith("Error: "), what
        assert sum(line.startswith("Error: ") for line in lines) == 1, what


def _structure_case(rng):
    """a structure command on --pxy/--pyz/--pzx: all three, some missing,
    mutated, or beside --potential"""
    weights = rng.choice(WEIGHTS)
    n = sum(weights)
    args = [rng.choice(STRUCTURE_COMMANDS), "-w", ",".join(map(str, weights))]
    # {x_i, x_j} has degree n - w_k for a potential of degree n
    for name, w in zip(COMPONENTS, reversed(weights)):
        if rng.random() < 0.85:
            text = _poly_text(rng, weights, n - w, False)
            args += [name, _mutate(rng, text) if rng.random() < 0.15 else text]
    if rng.random() < 0.15:
        args += ["--potential", _potential(rng, weights, False)]
    if args[0] == "bracket":
        args += ["--f", rng.choice(VARS), "--g", _mutate(rng, "x*y")]
    elif rng.random() < 0.5:
        args += ["--format", "json"]
    return args


def _xi_case(rng):
    """verify-aut on a potential's fiber Omega = xi, with or without the
    inverse map the quotient check requires; the map is mostly the
    identity, its own inverse, so that most cases reach --xi"""
    weights = rng.choice(WEIGHTS)
    identity = "x->x; y->y; z->z"
    phi = identity if rng.random() < 0.6 else _map(rng, weights, False)
    args = ["verify-aut", "-w", ",".join(map(str, weights)),
            "--potential", _poly_text(rng, weights, sum(weights), False), "--map", phi]
    if rng.random() < 0.85:
        args += ["--inverse", phi if phi == identity else _map(rng, weights, False)]
    xi = rng.choice(XI_VALUES if rng.random() < 0.5 else BAD_XI)
    args += ["--xi", _mutate(rng, xi) if rng.random() < 0.15 else xi]
    return args + ["--format", "json"] if rng.random() < 0.5 else args


def _selftest_case(rng):
    """selftest with a small, malformed or over-limit --cases and a --seed"""
    args = ["selftest"]
    if rng.random() < 0.9:
        args += ["--cases", rng.choice(SMALL_CASES if rng.random() < 0.5 else BAD_CASES)]
    if rng.random() < 0.7:
        args += ["--seed", rng.choice(SEEDS)]
    return args


OPTION_CASES = [_structure_case, _xi_case, _selftest_case]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_option_cases_exit_0_1_or_2_without_a_traceback(seed):
    """--xi, the bracket components and selftest's options, 60 cases a seed;
    a selftest case runs at most 3 cases of each suite"""
    rng = random.Random("fuzz-options:%d" % seed)
    runner = CliRunner()
    codes = {0: 0, 1: 0, 2: 0}
    kinds = set()
    for _ in range(60):
        args = rng.choice(OPTION_CASES)(rng)
        res = runner.invoke(main, args)
        _check(args, res)
        codes[res.exit_code] += 1
        kinds.add((args[0], res.exit_code))
    assert codes[0] > 5 and codes[2] > 5, codes
    assert {("verify-aut", 0), ("verify-aut", 2), ("selftest", 0), ("selftest", 2)} <= kinds, kinds


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_cli_cases_exit_0_1_or_2_without_a_traceback(seed):
    rng = random.Random("fuzz:%d" % seed)
    runner = CliRunner()
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(250):
        args = _case(rng)
        res = runner.invoke(main, args)
        _check(args, res)
        codes[res.exit_code] += 1
    # the cases reach answers and refusals alike
    assert codes[0] > 10 and codes[2] > 10, codes


def _catalog_case(rng):
    """one ``catalog verify`` argument list: --filter by an entry id, a
    mutated id or a type, --checks a subset of the checks, and a bound"""
    ids = [e.entry_id for e in catalog.entries()]
    kind = rng.random()
    if kind < 0.45:
        selector = rng.choice(ids)
    elif kind < 0.55:
        selector = _mutate(rng, rng.choice(ids))
    elif kind < 0.9:
        selector = "type:" + rng.choice(catalog.TYPE_LABELS)
    else:
        selector = rng.choice(BAD_FILTERS)
    args = ["catalog", "verify", "--filter", selector]
    kind = rng.random()
    if kind < 0.8:
        checks = rng.sample(catalog.CHECKS, rng.randint(1, len(catalog.CHECKS)))
        args += ["--checks", ",".join(checks)]
    elif kind < 0.9:
        args += ["--checks", rng.choice(BAD_CHECKS)]
    kind = rng.random()
    if kind < 0.15 and not selector.startswith("type:"):
        pass  # the default bound, 3n+12
    elif kind < 0.85:
        args += ["--max-degree", str(rng.randint(-2, 8))]
    elif kind < 0.95:
        args += ["--max-degree", rng.choice(HUGE_BOUNDS)]
    else:
        args += ["--max-degree", rng.choice(BAD_BOUNDS)]
    fmt = rng.random()
    if fmt < 0.3:
        args += ["--format", rng.choice(["json", "csv", "table"])]
    elif fmt < 0.6:
        args += ["--format", "json"]
    return args


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_catalog_verify_cases_pass_or_are_refused(seed):
    """every entry's expectations hold at every bound, so a case exits 0
    or is refused with exit 2, never 1"""
    rng = random.Random("fuzz-catalog:%d" % seed)
    runner = CliRunner()
    codes = {0: 0, 2: 0}
    for _ in range(40):
        args = _catalog_case(rng)
        res = runner.invoke(main, args)
        _check(args, res)
        assert res.exit_code != 1, "wpoisson %s" % " ".join(repr(a) for a in args)
        codes[res.exit_code] += 1
    assert codes[0] > 5 and codes[2] > 5, codes


@pytest.mark.parametrize("selector", ["table:111", "weights:1,2,3"])
def test_a_check_reports_the_same_rows_alone_as_beside_the_others(selector):
    """each check run alone from empty memos gives the rows it gives run
    with every other check from empty memos: the sealed sweep, run first
    and stopped at its sixth nonzero degree, leaves the ranks the later
    checks read in the memos only up to its stop"""
    runner = CliRunner()

    def rows(*checks):
        complexes.potential_memo.cache_clear()
        args = ["catalog", "verify", "--filter", selector, "--format", "json"]
        res = runner.invoke(main, args + (["--checks", ",".join(checks)] if checks else []))
        assert res.exit_code == 0, res.output
        return json.loads(res.stdout)["results"]["rows"]

    together = rows()
    seen = []
    for check in catalog.CHECKS:
        alone = rows(check)
        names = {row["check"] for row in alone}
        assert alone == [row for row in together if row["check"] in names], check
        seen += alone
    assert sorted(seen, key=json.dumps) == sorted(together, key=json.dumps)


def test_catalog_verify_takes_small_huge_and_malformed_bounds():
    runner = CliRunner()
    for bound in ["0", "3", "-2"] + HUGE_BOUNDS + BAD_BOUNDS:
        args = ["catalog", "verify", "--filter", "111-i-c0", "--max-degree", bound]
        _check(args, runner.invoke(main, args))
