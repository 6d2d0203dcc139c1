"""Command-line interface: report formats, exit codes, determinism."""

import json
import sys

import pytest
from click.testing import CliRunner

from wpoisson.cli import FIELD_MAX_DEGREE, main
from wpoisson import Weights, __version__, complexes, parse_map, parse_poly, verify_automorphism
from wpoisson.catalog import DATA_PATH
from wpoisson.complexes import ph_dims
from wpoisson.ring import Polynomial, RingError


def run(args, env=None):
    runner = CliRunner()
    res = runner.invoke(main, args, env=env, catch_exceptions=False)
    return res.exit_code, res.output


def test_bracket_table_output():
    code, out = run(["bracket", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y", "--f", "x", "--g", "y"])
    assert code == 0
    assert out == ("# weights: 1,1,2\n# potential: z^2+x^3*y\n"
                   "# f: x\n# g: y\nbracket: 2*z\n")


def test_bracket_json_schema():
    args = ["bracket", "--weights", "1,1,2", "--potential", "z^2+x^3*y",
            "--f", "x", "--g", "y", "--format", "json"]
    code, out = run(args)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "inputs", "results",
                        "truncation_bound", "version"}
    assert doc["command"] == "bracket"
    assert doc["results"] == {"bracket": "2*z"}
    assert doc["truncation_bound"] is None
    assert doc["version"] == __version__


def test_bracket_json_names_the_components_it_evaluated():
    code, out = run(["bracket", "-w", "1,1,1", "--pxy", "z", "--pyz", "x",
                     "--pzx", "y", "--f", "x", "--g", "y", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == {"weights": "1,1,1", "pxy": "z", "pyz": "x", "pzx": "y",
                             "f": "x", "g": "y"}
    assert doc["results"] == {"bracket": "z"}


def test_output_is_deterministic():
    args = ["cohomology", "--weights", "1,1,1",
            "--potential", "x^3+y^3+z^3+x*y*z", "--max-degree", "6",
            "--format", "json"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_rgt_command():
    code, out = run(["rgt", "--weights", "1,1,2",
                     "--potential", "x^2*z+x*y^3"])
    assert code == 0
    assert out.endswith("rgt: -1\n")


def test_jacobi_exit_codes():
    code, _ = run(["jacobi", "--weights", "1,2,3", "--potential", "z^2+y^3"])
    assert code == 0
    code, out = run(["jacobi", "--weights", "1,1,1",
                     "--pxy", "x", "--pyz", "y", "--pzx", "z"])
    assert code == 1
    assert "jacobiator: x+y+z" in out
    assert "is_zero: False" in out


def test_modular_exit_codes():
    code, out = run(["modular", "--weights", "1,2,3",
                     "--potential", "z^2+y^3"])
    assert code == 0
    assert "is_zero: True" in out
    code, out = run(["modular", "--weights", "1,1,1",
                     "--pxy", "x", "--pyz", "y", "--pzx", "z"])
    assert code == 1


def test_parse_error_exit_code():
    code, out = run(["bracket", "--weights", "1,1,2",
                     "--potential", "z^2+", "--f", "x", "--g", "y"])
    assert code == 2
    assert "Error" in out


def test_potential_and_components_are_exclusive():
    code, _ = run(["jacobi", "--weights", "1,1,1",
                   "--potential", "x^3+y^3+z^3", "--pxy", "x"])
    assert code == 2
    code, _ = run(["jacobi", "--weights", "1,1,1"])
    assert code == 2


def test_singularity_report():
    code, out = run(["singularity", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y"])
    assert code == 0
    assert out == ("# weights: 1,1,2\n# potential: z^2+x^3*y\n"
                   "isolated: False\ngkdim: 1\ngcd_of_partials: 1\n")


def test_singularity_over_an_extension_field_reports_the_planted_factor():
    code, out = run(["singularity", "--field", "s^2+s+1", "-w", "1,1,1",
                     "-p", "(x+s*y)^2*z"])
    assert code == 0
    assert out == ("# weights: 1,1,1\n# field: s^2+s+1\n# potential: (x+s*y)^2*z\n"
                   "isolated: False\ngkdim: 2\ngcd_of_partials: (1)*x+(s)*y\n")


@pytest.mark.parametrize("args, out", [
    (["singularity", "--field", "s^2+1", "-w", "1,1,1", "-p", "x^3+y^3+z^3"],
     "# weights: 1,1,1\n# field: s^2+1\n# potential: x^3+y^3+z^3\n"
     "isolated: True\ngkdim: 0\ngcd_of_partials: (1)\n"),
    (["singularity", "--field", "s^2+1", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "--format", "json"],
     '{"command":"singularity","inputs":{"field":"s^2+1","potential":"x^3+y^3+z^3",'
     '"weights":"1,1,1"},"results":{"gcd_of_partials":"(1)","gkdim":0,"isolated":true},'
     '"truncation_bound":null,"version":"%s"}\n' % __version__),
    # the gcd from the Koszul K2 kernel, and from the monomial content
    (["singularity", "--field", "s^2+s+1", "-w", "1,1,1", "-p", "(x+y)^2*z"],
     "# weights: 1,1,1\n# field: s^2+s+1\n# potential: (x+y)^2*z\n"
     "isolated: False\ngkdim: 2\ngcd_of_partials: (1)*x+(1)*y\n"),
    (["singularity", "--field", "s^2+s+1", "-w", "1,1,1", "-p", "x^2*y*z", "--format", "csv"],
     "isolated,gkdim,gcd_of_partials\nFalse,2,(1)*x\n"),
    (["cohomology", "--field", "s^2+s+1", "-w", "1,1,1", "-p", "x^3+y^3+z^3+3/2*x*y*z",
      "-D", "2"],
     "# weights: 1,1,1\n# field: s^2+s+1\n# potential: x^3+y^3+z^3+3/2*x*y*z\n"
     "# truncation bound: 2\n"
     "degree  ph0  ph1  ph2  ph3  closed0  closed1  closed2  closed3\n"
     "-3      0    0    0    1    0        0        0        1      \n"
     "-2      0    0    3    3    0        0        3        3      \n"
     "-1      0    0    3    3    0        0        3        3      \n"
     "0       1    1    2    2    1        1        2        2      \n"
     "1       0    0    3    3    0        0        3        3      \n"
     "2       0    0    3    3    0        0        3        3      \n"
     "matches_closed_form: {'ph0': True, 'ph1': True, 'ph2': True, 'ph3': True}\n"),
    (["cohomology", "--field", "s^2+1", "-w", "1,1,2", "-p", "x^4+2*x^2*y^2+y^4+z^2",
      "-D", "1", "--format", "csv"],
     "degree,ph0,ph1,ph2,ph3,closed0,closed1,closed2,closed3\n"
     "-4,0,0,0,1,0,0,0,1\n-3,0,0,2,2,0,0,2,2\n-2,0,0,3,3,0,0,3,3\n"
     "-1,0,0,2,2,0,0,2,2\n0,1,2,4,3,1,1,2,2\n1,0,0,2,2,0,0,2,2\n"),
], ids=["singularity", "singularity-json", "koszul-gcd", "content-gcd", "cohomology",
        "cohomology-singular"])
def test_rational_potential_over_an_extension_field_prints_its_report(args, out):
    """a potential with rational coefficients runs over Q, and its report
    still names the field and prints the gcd over Q(s)"""
    assert run(args) == (0, out)


@pytest.mark.parametrize("args", [
    ["singularity", "-p", "(x+s*y)^2*z"],
    ["koszul", "-p", "x^3+y^3+z^3+s*x*y*z", "-D", "3"],
    ["jacobi", "-p", "x^3+y^3+z^3+s*x*y*z"],
    ["bracket", "--pxy", "z", "--pyz", "x", "--pzx", "s*y", "--f", "x", "--g", "y"],
], ids=lambda args: args[0])
def test_reports_over_an_extension_field_name_the_field(args):
    code, out = run([*args, "-w", "1,1,1", "--field", "s^2+s+1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["inputs"]["field"] == "s^2+s+1"


@pytest.mark.parametrize("field", [[], ["--field", "rationals"], ["--field", "Q"]])
def test_reports_over_q_omit_the_field(field):
    code, out = run(["gkdim", "-w", "1,1,1", "-p", "x^3+y^3+z^3", *field,
                     "--format", "json"])
    assert code == 0
    assert json.loads(out)["inputs"] == {"weights": "1,1,1", "potential": "x^3+y^3+z^3"}


def test_cohomology_csv_matches_closed_columns():
    code, out = run(["cohomology", "--weights", "1,1,1",
                     "--potential", "x^3+y^3+z^3+x*y*z",
                     "--max-degree", "4", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,ph0,ph1,ph2,ph3,closed0,closed1,closed2,closed3"
    assert lines[1] == "-3,0,0,0,1,0,0,0,1"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1:5] == cells[5:9]


def test_cohomology_json_reports_match_flag():
    code, out = run(["cohomology", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y", "--max-degree", "6",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["matches_closed_form"] == {
        "ph0": True, "ph1": True, "ph2": True, "ph3": True}
    assert doc["truncation_bound"] == 6


def test_cohomology_closed_forms_not_applicable_off_degree_a_b_c():
    code, out = run(["cohomology", "-w", "1,1,1", "-p", "x^4+y^4+z^4",
                     "-D", "4", "--format", "json"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["matches_closed_form"] == "not applicable"
    rows = results["rows"]
    # the window opens at -deg(potential) = -4
    assert [r["degree"] for r in rows] == list(range(-4, 5))
    tab = ph_dims(parse_poly("x^4+y^4+z^4", Weights(1, 1, 1)), 4)
    for r in rows:
        assert r == {"degree": r["degree"],
                     **{"ph%d" % i: tab.dim(i, r["degree"]) for i in range(4)}}


def test_cohomology_window_keeps_degrees_down_to_minus_a_b_c():
    code, out = run(["cohomology", "-w", "1,1,1", "-p", "x^2+y^2+z^2",
                     "-D", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,ph0,ph1,ph2,ph3"
    assert lines[1] == "-3,0,0,0,1"


@pytest.mark.parametrize("args", [
    ["rgt", "-w", "1,1,2", "-p", "x^3"],
    ["vacancy", "-w", "1,1,1", "-p", "x^4+y^4+z^4"],
    ["gkdim", "-w", "1,1,1", "-p", "x+y^2"],
    ["singularity", "--field", "s^2+s+1", "-w", "1,1,1", "-p", "x^2+s*y"],
    ["cohomology", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "--max-degree", "-50"],
    # a single-degree map over budget: T_0 would list the 10^6 monomials of A_n
    pytest.param(["rgt", "--weights", "1,1,1000000", "-p", "x^2*z"], id="rgt-over-budget"),
    # a substitution over budget: (x+y+z)^989 has 490,545 terms
    pytest.param(["verify-aut", "--weights", "1,1,1", "-p", "x^990",
                  "--map", "x->x+y+z; y->y; z->z"], id="verify-aut-substitution-over-budget"),
    # a window with no degree: every flag over it would hold vacuously
    *[pytest.param([name, "-w", "1,1,1", "-p", "x^3+y^3+z^3", "-D", "-5"],
                   id=name + "-empty-window")
      for name in ("vacancy", "sealed", "ozone", "koszul")],
], ids=lambda args: args[0])
def test_computation_refusal_exits_2_with_one_error_line(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


def test_reducible_field_modulus_zero_divisor_exits_2():
    # s^4+4 = (s^2+2s+2)(s^2-2s+2) has no root and no repeated factor, so
    # --field takes it, and s^2+2s+2 is a zero divisor there
    res = CliRunner().invoke(main, ["vacancy", "-w", "1,1,1", "-p", "(s^2+2*s+2)*x^3+y^3+z^3",
                                    "--field", "s^4+4", "-D", "4"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: modulus is not coprime with the element; m reducible?"]


@pytest.mark.parametrize("modulus, why", [
    ("s^2-1", "it has the root 1"), ("s^3-8", "it has the root 2"),
    ("s^4+2s^2+1", "it has a repeated factor"), ("s^2", "it has the root 0"),
])
def test_field_modulus_with_a_root_or_a_repeated_factor_is_refused(modulus, why):
    res = CliRunner().invoke(main, ["koszul", "-w", "1,1,1", "-p", "x^3+y^3+z^3+s*x*y*z",
                                    "--field", modulus, "-D", "3"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: --field modulus %s is reducible: %s" % (modulus, why)]


@pytest.mark.parametrize("modulus", ["s^2+1", "s^2+s+1", "s^3-2", "s-3"])
def test_irreducible_field_modulus_is_accepted(modulus):
    res = CliRunner().invoke(main, ["koszul", "-w", "1,1,1", "-p", "x^3+y^3+z^3+s*x*y*z",
                                    "--field", modulus, "-D", "3"], catch_exceptions=False)
    assert res.exit_code == 0, res.stderr
    assert "# field: %s\n" % modulus in res.stdout


def test_field_modulus_coefficient_past_the_guard_is_refused():
    res = CliRunner().invoke(main, ["rgt", "-w", "1,1,1", "-p", "x^3+y^3+z^3",
                                    "--field", "s^2-99999999999999999999"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: --field modulus coefficient -99999999999999999999 exceeds the 10^6 guard"]


# every modulus here is over the limit: the refusal comes before the
# coefficient list, which for s^99999999999+1 could not be built
@pytest.mark.parametrize("modulus, degree", [
    ("s^33+1", 33), ("s^99999999999+1", 99999999999), ("s^2+s^40+1", 40)])
def test_field_modulus_degree_is_refused_above_the_limit(modulus, degree):
    res = CliRunner().invoke(main, ["rgt", "-w", "1,1,1", "-p", "x^3+y^3+z^3",
                                    "--field", modulus], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: --field modulus degree %d is above the limit %d" % (degree, FIELD_MAX_DEGREE)]


def test_field_modulus_exponent_too_long_for_int_is_bad_input():
    res = CliRunner().invoke(main, ["rgt", "-w", "1,1,1", "-p", "x^3+y^3+z^3",
                                    "--field", "s^" + "9" * 5000 + "+1"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "bad --field modulus" in res.stderr


@pytest.mark.parametrize("check, bound", [("vacancy", "-50"), ("sealed", "-1")])
def test_catalog_verify_refuses_an_empty_truncated_window(check, bound):
    # both windows used to read as all zero: pass / info with ok: True
    res = CliRunner().invoke(main, ["catalog", "verify", "--filter", "111-i-a",
                                    "--checks", check, "-D", bound],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: empty %s window: truncation bound %s is below %d"
        % (check, bound, -3 if check == "vacancy" else 0)]


def test_power_past_the_term_budget_exits_2_before_expanding(monkeypatch):
    def no_power(self, e):
        raise AssertionError("the parser started expanding a power")

    monkeypatch.setattr(Polynomial, "__pow__", no_power)
    res = CliRunner().invoke(main, ["rgt", "-w", "1,1,1", "-p", "(x+y+z)^100000"],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "1000-term budget" in res.stderr


def test_product_past_the_term_budget_exits_2_before_multiplying(monkeypatch):
    mul = Polynomial.__mul__

    def small_products_only(self, other):
        if isinstance(other, Polynomial) and len(self.terms) * len(other.terms) > 1000:
            raise AssertionError("the parser started multiplying out a product")
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", small_products_only)
    # (1+x+y+z)^10 has 286 terms, and 286 * 4 passes the budget
    res = CliRunner().invoke(main, ["rgt", "-w", "1,1,1", "-p", "*".join(["(1+x+y+z)"] * 11)],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].endswith(
        ": product may expand past the 1000-term budget (at byte 99)")


def test_substitution_past_the_term_budget_exits_2_before_expanding(monkeypatch):
    """verify-aut substitutes the map into grad(x^990): the power of x+y+z
    is refused before it is built, so no product the run makes reaches the
    1,000-term budget"""
    mul = Polynomial.__mul__

    def small_products_only(self, other):
        out = mul(self, other)
        if isinstance(out, Polynomial) and len(out.terms) > 1000:
            raise AssertionError("the substitution built a product past the budget")
        return out

    monkeypatch.setattr(Polynomial, "__mul__", small_products_only)
    res = CliRunner().invoke(main, ["verify-aut", "--weights", "1,1,1", "-p", "x^990",
                                    "--map", "x->x+y+z; y->y; z->z"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: substitution power may expand past the 1000-term budget"]


@pytest.mark.parametrize("args, line", [
    (["rgt", "-w", "1,1,1", "-p", "(x+y+z)^100000"],
     "error: bad polynomial '(x+y+z)^100000': power may expand past the 1000-term budget"
     " (at byte 8)"),
    (["rgt", "-w", "1,1,1", "-p", "x^3+y^3+z^3+2000000*x*y*z"],
     "error: bad polynomial 'x^3+y^3+z^3+2000000*x*y*z': integer exceeds the 10^6 guard"
     " (at byte 12)"),
    (["verify-aut", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "--map", "x->(x+y)^2000; y->y; z->z"],
     "error: bad map: power may expand past the 1000-term budget (at byte 6)"),
])
def test_budget_refusals_in_a_polynomial_print_one_error_line(args, line):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [line]


@pytest.mark.parametrize("args, message", [
    (["rgt", "-w", "1,1,1", "-p", "x^3+y^3+"],
     "Error: bad polynomial 'x^3+y^3+': unexpected character 'end of input' (at byte 8)"),
    (["verify-aut", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "--map", "x->2x; y->y; z->z"],
     "Error: bad map: trailing input (at byte 1)"),
])
def test_syntax_errors_in_a_polynomial_stay_usage_errors(args, message):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert lines[0].startswith("Usage: ") and lines[-1] == message


def _refuse_enumeration(monkeypatch):
    """make listing a monomial basis or assembling a matrix fail anywhere"""
    from wpoisson import complexes, ring

    def fail(*args, **kwargs):
        raise AssertionError("the window was enumerated")

    for original in (ring.monomial_basis, complexes.assemble):
        for name, mod in list(sys.modules.items()):
            if name == "wpoisson" or name.startswith("wpoisson."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, fail)


@pytest.mark.parametrize("args", [
    ["koszul", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "-D", "1000000000"],
    ["cohomology", "-w", "1,2,3", "-p", "z^2+y^3", "-D", "1000000000"],
    ["catalog", "verify", "--filter", "111-i-a", "-D", "1000000000"],
], ids=["max-degree", "weighted", "catalog"])
def test_bound_past_the_window_budget_exits_2_before_enumerating(monkeypatch, args):
    _refuse_enumeration(monkeypatch)
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: truncation bound 1000000000 is over budget: degrees 0..")
    assert lines[0].endswith(" hold more than 250000 monomials")


def test_single_degree_map_past_the_budget_exits_2_before_enumerating(monkeypatch):
    _refuse_enumeration(monkeypatch)
    res = CliRunner().invoke(main, ["rgt", "--weights", "1,1,1000000", "-p", "x^2*z"],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: degree 0 is over budget: the slices of its ozone map hold more than "
        "250000 monomials"]


# n = 5 is far below s = 1000002: the maps at D = 12 reach degree 2000011
_SKEWED = ["-w", "1,1,1000000", "-p", "x^2*y^3", "-D", "12"]


@pytest.mark.parametrize("command", ["cohomology", "koszul", "sealed"])
def test_skewed_weights_are_refused_before_enumerating(monkeypatch, command):
    _refuse_enumeration(monkeypatch)
    res = CliRunner().invoke(main, [command, *_SKEWED], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: truncation bound 12 is over budget: degrees 0..2000011 hold more "
        "than 250000 monomials"]


@pytest.mark.parametrize("table", [complexes.ph_dims, complexes.koszul_dims,
                                   complexes.sealed_k1_dims], ids=lambda f: f.__name__)
def test_library_sweeps_on_skewed_weights_are_refused(monkeypatch, table):
    _refuse_enumeration(monkeypatch)
    omega = parse_poly("x^2*y^3", Weights(1, 1, 1000000))
    with pytest.raises(RingError, match="^truncation bound 12 is over budget"):
        table(omega, 12)


def test_catalog_verify_budgets_only_the_checks_that_sweep(monkeypatch):
    # rgt and gk sweep no window, so no bound is too large for them
    verify = ["catalog", "verify", "--filter", "111-i-a", "-D", "1000000000"]
    res = CliRunner().invoke(main, [*verify, "--checks", "rgt,gk"], catch_exceptions=False)
    assert res.exit_code == 0
    assert "ok: True" in res.stdout
    _refuse_enumeration(monkeypatch)
    res = CliRunner().invoke(main, [*verify, "--checks", "sealed"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: truncation bound 1000000000 is over budget: degrees 0..1000000003 hold "
        "more than 250000 monomials"]


def test_default_bound_follows_potential_degree():
    # 3n+12 with n = deg(potential) = 4, not a+b+c = 3
    code, out = run(["cohomology", "-w", "1,1,1", "-p", "x^4+y^4+z^4"])
    assert code == 0
    assert "# truncation bound: 24\n" in out


def test_degree_zero_potential_is_refused_alike_everywhere():
    for args in (["rgt", "-w", "1,1,1", "-p", "5"],
                 ["gkdim", "-w", "1,1,1", "-p", "7"],
                 ["vacancy", "-w", "1,1,1", "-p", "5"]):
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 2
        assert res.stderr == "error: potential must have positive degree\n"


def test_koszul_csv():
    code, out = run(["koszul", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y", "--max-degree", "5",
                     "--format", "csv"])
    assert code == 0
    assert out == ("degree,h0,h1,h2,h3\n0,1,0,0,0\n1,2,0,0,0\n2,3,0,0,0\n"
                   "3,2,0,0,0\n4,2,1,0,0\n5,2,2,0,0\n")


def test_sealed_and_vacancy_commands():
    code, out = run(["sealed", "--weights", "1,2,3", "--potential", "z^2+y^3",
                     "--max-degree", "6"])
    assert code == 0
    assert "all_zero_up_to_bound: False" in out
    code, out = run(["vacancy", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y", "--max-degree", "5",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_zero_up_to_bound"] is True
    assert doc["results"]["rows"][0] == {"degree": -4, "dim": 0}


def test_ozone_command():
    code, out = run(["ozone", "--weights", "1,2,3", "--potential", "z^2+y^3",
                     "--max-degree", "6"])
    assert code == 0
    assert "agree_up_to_bound: False" in out


def test_verify_aut_graded():
    code, out = run(["verify-aut", "--weights", "1,1,2",
                     "--potential", "z^2+x^3*y",
                     "--map", "x->x; y->y-x^3-2*z; z->z+x^3"])
    assert code == 0
    assert "passed: True" in out
    assert "jacobian_det: 1" in out
    assert "mode: graded" in out


def test_verify_aut_extension_field():
    code, out = run(["verify-aut", "--weights", "1,1,1",
                     "--potential", "x^3+y^3+z^3+x*y*z",
                     "--field", "s^2+s+1",
                     "--map", "x->x; y->s*y; z->s^2*z"])
    assert code == 0
    assert "passed: True" in out


def test_verify_aut_quotient_swap():
    code, out = run(["verify-aut", "--weights", "1,1,2",
                     "--potential", "x^4+y^4+z^2+x*y*z",
                     "--field", "s^2+1", "--xi", "1",
                     "--map", "x->s*y; y->-s*x; z->-z-x*y",
                     "--inverse", "x->s*y; y->-s*x; z->-z-x*y"])
    assert code == 0
    assert "passed: True" in out
    assert "mode: quotient" in out


def test_verify_aut_rejects_bad_scaling():
    code, out = run(["verify-aut", "--weights", "1,2,3",
                     "--potential", "x^6+y^3+z^2+x*y*z",
                     "--map", "x->2*x; y->4*y; z->8*z",
                     "--inverse", "x->(1/2)*x; y->(1/4)*y; z->(1/8)*z",
                     "--xi", "1"])
    assert code == 1
    assert "passed: False" in out
    assert "jacobian_det: 64" in out


@pytest.mark.parametrize("args", [
    ["-p", "x^990", "--map", "x->y; y->x; z->-z"],
    ["-p", "x^3+y^3+z^3", "--map", "x->x; y->y; z->z", "--inverse", "x->x+y^1200; y->y; z->z"],
], ids=["map", "inverse"])
def test_verify_aut_reports_on_high_powers_without_recursing(args):
    """a substitution builds each power of an image by one product on the
    last, never one nested call per unit of exponent"""
    res = CliRunner().invoke(main, ["verify-aut", "-w", "1,1,1"] + args, catch_exceptions=False)
    assert res.exit_code == 1
    assert "passed: False" in res.stdout
    assert res.stderr == ""


_XI_ARGS = ["verify-aut", "--weights", "1,2,3", "--potential", "x^6+y^3+z^2+x*y*z",
            "--map", "x->x; y->y; z->z", "--inverse", "x->x; y->y; z->z", "--xi"]


@pytest.mark.parametrize("xi", ["1", "1/2", "-3/4"])
def test_verify_aut_reads_a_rational_xi(xi):
    code, out = run(_XI_ARGS + [xi])
    assert code == 0
    assert out.endswith("# xi: %s\npassed: True\njacobian_det: 1\nmode: quotient\nxi: %s\n"
                        % (xi, xi))


def test_verify_aut_zero_denominator_xi_is_a_usage_error():
    res = CliRunner().invoke(main, _XI_ARGS + ["1/0"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert lines[0].startswith("Usage: ") and lines[-1] == "Error: bad --xi '1/0'"


@pytest.mark.parametrize("xi", ["1e999999", "1e-9999999", "2000000", "-1/1000001"])
def test_verify_aut_xi_past_the_integer_guard_prints_one_error_line(xi):
    res = CliRunner().invoke(main, _XI_ARGS + [xi], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "error: bad --xi %r: integer exceeds the 10^6 guard" % xi]


def test_verify_aut_rejects_a_non_invertible_map_that_scales_the_potential():
    """x -> x*y takes x*y*z to y * x*y*z, its Jacobian y times the
    potential, but {z, x*y} = 0 while phi({z,x}) = x*y*z"""
    code, out = run(["verify-aut", "--weights", "1,1,1", "--potential", "x*y*z",
                     "--map", "x->x*y; y->y; z->z"])
    assert code == 1
    assert out.endswith("passed: False\njacobian_det: y\nmode: graded\n")


def test_verify_aut_accepts_a_translation_that_keeps_the_brackets():
    """z -> z+1 keeps {x,y} = 1, {y,z} = y and {z,x} = x, though it moves
    the potential x*y+z"""
    code, out = run(["verify-aut", "--weights", "1,1,2", "--potential", "x*y+z",
                     "--map", "x->x; y->y; z->z+1"])
    assert code == 0
    assert out.endswith("passed: True\njacobian_det: 1\nmode: graded\n")


def test_verify_aut_refuses_a_non_homogeneous_potential():
    res = CliRunner().invoke(main, ["verify-aut", "--weights", "1,1,1", "--potential",
                                    "x^2+y^3", "--map", "x->x; y->y; z->z"],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: potential must be nonzero homogeneous"]


def test_verify_aut_checks_the_inverse_without_xi():
    code, out = run(["verify-aut", "--weights", "1,1,1", "--potential", "x^3+y^3+z^3",
                     "--map", "x->x; y->y; z->z", "--inverse", "x->2*x; y->y; z->z"])
    assert code == 1
    assert out.endswith("passed: False\njacobian_det: 1\nmode: graded\n")


def test_quotient_automorphism_check_needs_the_inverse():
    weights = Weights(1, 2, 3)
    omega = parse_poly("x^6+y^3+z^2+x*y*z", weights)
    with pytest.raises(RingError):
        verify_automorphism(omega, parse_map("x->x; y->y; z->z", weights), xi=1)
    res = CliRunner().invoke(main, _XI_ARGS[:7] + ["--xi", "1"], catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stderr.splitlines() == ["error: quotient automorphism check needs the inverse map"]


def test_catalog_verify_and_list():
    code, out = run(["catalog", "verify", "--filter", "111-i-c1",
                     "--checks", "structure,rgt,gk", "--max-degree", "6"])
    assert code == 0
    assert "status" in out
    code, out = run(["catalog", "list", "--filter", "type:nw"])
    assert code == 0
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body[-1] == "count: 3"
    assert len(body) == 5  # header, three negative-class rows, count line
    assert any("123-i-a" in l for l in body)


def test_catalog_verify_json_mismatch_count():
    code, out = run(["catalog", "verify", "--filter", "weights:1,1,1",
                     "--checks", "structure,rgt,gk", "--max-degree", "6",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["mismatches"] == 0
    assert doc["results"]["entries"] == 12
    assert doc["results"]["ok"] is True


def test_catalog_verify_rejects_unknown_check():
    code, out = run(["catalog", "verify", "--checks", "bogus",
                     "--filter", "111-i-a"])
    assert code == 2
    assert "bogus" in out
    assert "structure,rgt,gk,isolated,vacancy,sealed,cohomology" in out


def test_catalog_verify_rejects_a_selection_that_checks_nothing():
    code, out = run(["catalog", "verify", "--filter", "weights:9,9,9"])
    assert code == 2
    assert "no catalog entries match" in out
    # cohomology applies to types i, q and bw only
    code, out = run(["catalog", "verify", "--filter", "112-r-a",
                     "--checks", "cohomology"])
    assert code == 2
    assert "no selected check applies" in out


def test_default_bound_ignores_the_environment():
    # 3n+12 = 21 for these cubics; no environment variable moves it
    env = {"WPOISSON_MAX_DEGREE": "3"}
    code, out = run(["vacancy", "-w", "1,1,1", "-p", "x^3+y^3+z^3"], env=env)
    assert code == 0
    assert "# truncation bound: 21\n" in out
    code, out = run(["catalog", "verify", "--filter", "111-i-a",
                     "--checks", "vacancy"], env=env)
    assert code == 0
    assert "all zero to 21" in out


def test_selftest_command():
    code, out = run(["selftest", "--cases", "5"])
    assert code == 0
    assert "ok: True" in out
    assert "bracket-laws" in out


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_selftest_refuses_a_run_of_no_cases(cases):
    code, out = run(["selftest", "--cases", cases])
    assert code == 2
    assert "ok: True" not in out


_CATALOG_LINE = ("111-i-a | 1,1,1 | x^3+y^2*z | bw | true | 0 | 1 | yes | unknown | false"
                 " | table=111")


@pytest.mark.parametrize("old, new, message", [
    ("| 0 | 1 |", "| abc | 1 |", "invalid literal for int() with base 10: 'abc'"),
    ("| 0 | 1 |", "| 0 | 1orx |", "invalid literal for int() with base 10: 'x'"),
    ("table=111", "table=111;lambda=abc", "Invalid literal for Fraction: 'abc'"),
    ("table=111", "table=111;vacwit=x", "invalid literal for int() with base 10: 'x'"),
    ("table=111", "table=111;k=x", "invalid literal for int() with base 10: 'x'"),
    ("x^3+y^2*z", "x^3+", "unexpected character 'end of input' (at byte 4)"),
    ("x^3+y^2*z", "x^3+s*y^2*z", "'s' requires an extension coefficient field (at byte 4)"),
    ("x^3+y^2*z", "x^3+2000000*y^2*z", "integer exceeds the 10^6 guard (at byte 4)"),
], ids=["rgt", "gk", "lambda", "vacwit", "param", "syntax", "field", "budget"])
@pytest.mark.parametrize("command", ["list", "verify"])
def test_malformed_catalog_record_is_a_usage_error(tmp_path, command, old, new, message):
    text = DATA_PATH.read_text(encoding="utf-8")
    assert text.count(_CATALOG_LINE) == 1
    bad = tmp_path / "catalog.txt"
    bad.write_text(text.replace(_CATALOG_LINE, _CATALOG_LINE.replace(old, new, 1)),
                   encoding="utf-8")
    res = CliRunner().invoke(main, ["catalog", command, "--catalog-file", str(bad)],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert [line for line in lines if line.startswith("Usage: ")] == [lines[0]]
    assert lines[-1] == "Error: 111-i-a: " + message


@pytest.mark.parametrize("args", [["list"], ["verify", "-D", "4"]], ids=lambda a: a[0])
def test_a_one_record_catalog_file_is_accepted(tmp_path, args):
    one = tmp_path / "one.txt"
    one.write_text(_CATALOG_LINE + "\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["catalog", *args, "--catalog-file", str(one)],
                             catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert "111-i-a" in res.stdout
    assert res.stdout.splitlines()[-1] in ("count: 1", "ok: True")


@pytest.mark.parametrize("line, message", [
    ("111-i-c0 | 1,1,1 | x^3+y^3+z^3 | i | true | 0 | 0 | yes | yes | false | table=111",
     "111-i-c0: type i and only type i is isolated"),
    (_CATALOG_LINE.replace("| false", "| true"), "111-i-a: type i and only type i is isolated"),
    ("112-r-a | 1,1,2 | x^4 | r | false | 1 | 2 | no | no | false | table=112;vacwit=-2;sealwit=2",
     "112-r-a: reducible rgt must be <= -1"),
    ("112-r-a | 1,1,2 | x^4 | r | false | -5 | 2 | yes | no | false | table=112;sealwit=2",
     "112-r-a: r entries are non-vacant and unsealed"),
    ("123-i-a | 1,2,3 | z^2+y^3 | nw | true | 0 | 1 | no | yes | false | table=123;vacwit=-1",
     "123-i-a: nw entries are non-vacant and unsealed"),
], ids=["i-not-isolated", "isolated-not-i", "reducible-rgt", "r-vacant", "nw-sealed"])
@pytest.mark.parametrize("command", ["list", "verify"])
def test_every_catalog_file_gets_the_per_record_rules(tmp_path, command, line, message):
    one = tmp_path / "one.txt"
    one.write_text(line + "\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["catalog", command, "--catalog-file", str(one)],
                             catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == "Error: " + message
