"""Command-line surface.

Every invariant the paper tabulates is reachable from here; graded
derivation spaces, graded twists, the Hilbert function of A/J and the
Koszul matrices are library only.  Output is deterministic: identical
inputs produce byte-identical text in all three formats.  Exit codes: 0
success (and all verifications passed), 1 a checking command reports its
checked flag false, 2 malformed input or usage.
"""

import csv
import functools
import inspect
import io
import json
import re
import sys
from fractions import Fraction

import click

from . import __version__
from .ring import QQ, ExtensionField, RingError, Weights, check_potential
from .textio import MAX_EXPONENT, BudgetError, ParseError, format_poly, parse_map, parse_poly
from .poisson import (
    bracket as poisson_bracket,
    from_potential,
    jacobiator,
    modular_derivation,
    rgt,
    verify_automorphism,
    jacobian_determinant,
    PoissonStructure,
)
from .jacobian import gcd_partials, gkdim
from .complexes import (
    default_bound,
    koszul_dims,
    ozone_vs_hamiltonian,
    ph_closed_form_rows,
    sealed_k1_dims,
    vacancy_check,
)
from . import catalog as catalog_mod


def _fail_usage(msg):
    raise click.UsageError(str(msg))


def _bad_input(what, exc):
    """a size budget refusal is reported like every other refusal, on one
    ``error:`` line; any other malformed text is a usage error"""
    msg = "%s: %s" % (what, exc)
    if isinstance(exc, BudgetError):
        raise RingError(msg) from None
    _fail_usage(msg)


def _parse_weights(text):
    try:
        parts = [int(t) for t in text.split(",")]
        if len(parts) != 3:
            raise ValueError("need three weights a,b,c")
        return Weights(*parts)
    except (ValueError, RingError) as exc:
        _fail_usage("bad --weights %r: %s" % (text, exc))


_MOD_TERM = re.compile(r"^([+-]?\d*)(?:\*?s(?:\^(\d+))?)?$")
# the largest --field modulus degree; the paper's fields have degree 2, and
# every product in the field costs the square of the degree
FIELD_MAX_DEGREE = 32
# the most cases selftest runs per suite: a case of the four suites takes
# about 1 ms on a two-core machine, so the limit runs in about 10 s
SELFTEST_MAX_CASES = 10_000


def _parse_field(text):
    """'rationals' (default) or a monic modulus in s, e.g. 's^2+s+1'."""
    if text is None or text.strip() in ("", "rationals", "QQ", "Q"):
        return QQ
    src = text.replace(" ", "")
    # a sign with no term after it, as in "s^2+s+1+" or "s^2--s+1", is no
    # modulus: the terms below are split at signs, and a bare "-" would
    # read as the constant -1 ("+-" is one minus sign)
    if re.search(r"[+-]$|[+-]\+|--", src):
        _fail_usage("bad --field modulus %r" % text)
    src = src.replace("-", "+-")
    terms = [t for t in src.split("+") if t]
    coeffs = {}
    for term in terms:
        m = _MOD_TERM.match(term)
        if not m or (not m.group(1) and "s" not in term):
            _fail_usage("bad --field modulus %r" % text)
        coef_s = m.group(1)
        try:
            exp = (int(m.group(2)) if m.group(2) else 1) if "s" in term else 0
            coef = int(coef_s) if coef_s not in ("", "+", "-") else (-1 if coef_s == "-" else 1)
        except ValueError:  # more digits than int() converts
            _fail_usage("bad --field modulus %r" % text)
        if exp > FIELD_MAX_DEGREE:
            raise RingError("--field %s: modulus degree %d is above the limit %d"
                            % (text, exp, FIELD_MAX_DEGREE))
        coeffs[exp] = coeffs.get(exp, 0) + coef
    # ExtensionField drops zero top terms, then refuses all but monic degree >= 1
    try:
        return ExtensionField([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])
    except RingError as exc:
        raise RingError("--field %s: %s" % (text, exc)) from None


def _poly(text, weights, field):
    try:
        return parse_poly(text, weights, field=field)
    except (ParseError, RingError) as exc:
        _bad_input("bad polynomial %r" % text, exc)


def _structure(weights, field, potential, pxy, pyz, pzx):
    if potential is not None:
        if pxy or pyz or pzx:
            _fail_usage("give either --potential or the three bracket components")
        return from_potential(_poly(potential, weights, field))
    if not (pxy and pyz and pzx):
        _fail_usage("need --potential or all of --pxy/--pyz/--pzx")
    return PoissonStructure(_poly(pxy, weights, field),
                            _poly(pyz, weights, field),
                            _poly(pzx, weights, field))


def _json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _emit(command, inputs, results, fmt, bound=None, check=None):
    """Render one report, and exit 1 when ``check`` names a result flag that
    is false, so the exit code is read off the report.  ``results["rows"]``,
    when present, is the list of dicts that the table and csv formats lay
    out as rows; any other list or dict value they print as the JSON text
    that the json format embeds."""
    inputs = {k: v for k, v in inputs.items() if v is not None}
    rows = results.get("rows")
    shown = {k: _json(v) if k != "rows" and isinstance(v, (list, dict)) else v
             for k, v in results.items()}
    if fmt == "json":
        doc = {
            "command": command,
            "inputs": inputs,
            "results": results,
            "truncation_bound": bound,
            "version": __version__,
        }
        click.echo(_json(doc))
    elif fmt == "csv":
        buf = io.StringIO()
        records = rows or [shown]
        writer = csv.DictWriter(buf, fieldnames=list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        click.echo(buf.getvalue(), nl=False)
    else:
        for key, value in inputs.items():
            click.echo("# %s: %s" % (key, value))
        if bound is not None:
            click.echo("# truncation bound: %d" % bound)
        if rows:
            headers = list(rows[0].keys())
            widths = [max(len(str(h)), max(len(str(r[h])) for r in rows)) for h in headers]
            click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            for row in rows:
                click.echo("  ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths)))
        for key, value in shown.items():
            if not (rows and key == "rows"):
                click.echo("%s: %s" % (key, value))
    if check is not None and not results[check]:
        sys.exit(1)


_format = click.option("--format", "fmt", default="table",
                       type=click.Choice(["table", "json", "csv"]))


class _Main(click.Group):
    """The command group; a RingError from inside any computation is bad
    input, reported on one stderr line with exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RingError as exc:
            click.echo("error: %s" % exc, err=True)
            ctx.exit(2)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Exact computations for weighted graded Poisson structures on k[x,y,z]."""


def _command(name, structure=False, bound=False, check=None):
    """Register a command on one --potential or, with ``structure``, on a
    bracket given by --potential or by the three --pxy/--pyz/--pzx
    components.  The body gets that subject, its own options and, with
    ``bound`` (which adds --max-degree), the truncation bound, and returns
    its results.  The report's inputs are the shared options, then the
    body's own, each named as its flag; ``check`` names the result flag
    that exits 1 when false."""

    def register(body):
        # click passes options in the order they were given; report the
        # body's own in the order of its signature
        order = list(inspect.signature(body).parameters)

        @functools.wraps(body)
        def command(weights, field_text, fmt, potential, pxy=None, pyz=None, pzx=None,
                    max_degree=None, **options):
            field = _parse_field(field_text)
            if structure:
                subject = _structure(_parse_weights(weights), field, potential, pxy, pyz, pzx)
            else:
                subject = _poly(potential, _parse_weights(weights), field)
            inputs = {"weights": weights, "field": None if field is QQ else field_text,
                      "potential": potential, "pxy": pxy, "pyz": pyz, "pzx": pzx}
            inputs.update((k, options[k]) for k in order if k in options)
            if bound:
                options["bound"] = (default_bound(check_potential(subject))
                                    if max_degree is None else max_degree)
            _emit(name, inputs, body(subject, **options), fmt, options.get("bound"), check)

        # click lists options last-applied first: --help shows the shared
        # options, then the subject, then the body's own
        fn = command
        if structure:
            for flag in ("--pzx", "--pyz", "--pxy"):
                fn = click.option(flag, default=None)(fn)
            fn = click.option("--potential", "-p", default=None)(fn)
        else:
            if bound:
                fn = click.option("--max-degree", "-D", type=int, default=None)(fn)
            fn = click.option("--potential", "-p", required=True)(fn)
        fn = click.option("--weights", "-w", required=True, help="a,b,c")(fn)
        fn = click.option("--field", "field_text", default="rationals",
                          help="rationals (default) or a monic modulus in s")(fn)
        return main.command(name)(_format(fn))

    return register


@_command("bracket", structure=True)
@click.option("--f", required=True)
@click.option("--g", required=True)
def bracket(s, f, g):
    """Poisson bracket {f, g}."""
    result = poisson_bracket(s, _poly(f, s.weights, s.field), _poly(g, s.weights, s.field))
    return {"bracket": format_poly(result)}


@_command("jacobi", structure=True, check="is_zero")
def jacobi(s):
    """Jacobiator of the structure; exit 1 if nonzero."""
    j = jacobiator(s)
    return {"jacobiator": format_poly(j), "is_zero": j.is_zero()}


@_command("modular", structure=True, check="is_zero")
def modular(s):
    """Modular vector field; exit 1 if nonzero (non-unimodular)."""
    m = modular_derivation(s)
    return {"components": [format_poly(c) for c in m.comps], "is_zero": m.is_zero()}


@_command("rgt")
def rgt_cmd(omega):
    """Rigidity index of the graded twist space."""
    return {"rgt": rgt(omega)}


@_command("gkdim")
def gkdim_cmd(omega):
    """GK-dimension of the singular quotient ring."""
    return {"gkdim": gkdim(omega)}


@_command("singularity")
def singularity(omega):
    """Isolated-singularity test with supporting data."""
    dim = gkdim(omega)
    return {"isolated": dim == 0, "gkdim": dim,
            "gcd_of_partials": format_poly(gcd_partials(omega))}


@_command("cohomology", bound=True)
def cohomology(omega, bound):
    """Poisson cohomology dimension table, with closed-form comparison."""
    rows, matches = ph_closed_form_rows(omega, bound)
    return {"rows": rows,
            "matches_closed_form": "not applicable" if matches is None else matches}


@_command("koszul", bound=True)
def koszul(omega, bound):
    """Koszul homology dimensions for the partial-derivative sequence."""
    tab = koszul_dims(omega, bound)
    return {"rows": [{"degree": d, **{"h%d" % i: tab.dim(i, d) for i in range(4)}}
                     for d in range(0, bound + 1)]}


@_command("sealed", bound=True)
def sealed(omega, bound):
    """Sealed first Koszul homology deviation, per degree up to the bound."""
    dims, all_zero = sealed_k1_dims(omega, bound)
    return {"rows": [{"degree": d, "dim": dims[d]} for d in sorted(dims)],
            "all_zero_up_to_bound": all_zero}


@_command("vacancy", bound=True)
def vacancy(omega, bound):
    """Unresolved second-cohomology dimensions, per degree up to the bound."""
    dims = vacancy_check(omega, bound)
    return {"rows": [{"degree": d, "dim": dims[d]} for d in sorted(dims)],
            "all_zero_up_to_bound": all(v == 0 for v in dims.values())}


@_command("ozone", bound=True)
def ozone(omega, bound):
    """Ozone-vs-hamiltonian dimension comparison per degree."""
    table = ozone_vs_hamiltonian(omega, bound)
    rows = [{"degree": d, "ozone": o, "hamiltonian": h, "equal": o == h}
            for d, (o, h) in sorted(table.items())]
    return {"rows": rows, "agree_up_to_bound": all(r["equal"] for r in rows)}


def _xi_value(text):
    """--xi as a rational.  Malformed text or a zero denominator is a usage
    error; a numerator or denominator past the 10^6 guard is refused like a
    polynomial's integers, and so, before it is expanded, is an exponent
    above six plus the length of the text, which puts one there."""
    exp = re.search(r"[eE][-+]?([\d_]+)\s*$", text)
    digits = exp.group(1).replace("_", "") if exp else ""
    if not (len(digits) > 7 or digits and int(digits) > len(text) + 6):
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            _fail_usage("bad --xi %r" % text)
        if max(abs(value.numerator), value.denominator) <= MAX_EXPONENT:
            return value
    raise RingError("bad --xi %r: integer exceeds the 10^6 guard" % text)


@_command("verify-aut", check="passed")
@click.option("--map", required=True, help='"x->expr; y->expr; z->expr"')
@click.option("--inverse", default=None)
@click.option("--xi", default=None, help="verify on the fiber Omega = xi")
def verify_aut(omega, map, inverse, xi):
    """Check a substitution map as a (quotient) Poisson automorphism."""
    try:
        phi = parse_map(map, omega.weights, field=omega.field)
        psi = parse_map(inverse, omega.weights, field=omega.field) if inverse else None
    except (ParseError, RingError) as exc:
        _bad_input("bad map", exc)
    xi_val = None if xi is None else _xi_value(xi)
    results = {"passed": verify_automorphism(omega, phi, psi, xi_val),
               "jacobian_det": format_poly(jacobian_determinant(phi)), "mode": "graded"}
    if xi is not None:
        results.update(mode="quotient", xi=str(xi_val))
    return results


@main.group()
def catalog():
    """Operations on the built-in potential catalog."""


def _entry_columns(e):
    """The columns that name a catalog entry in the rows of list and verify."""
    return {"entry": e.entry_id, "weights": "%d,%d,%d" % e.weights.tuple,
            "potential": e.omega_text}


@catalog.command("verify")
@click.option("--filter", "selector", default=None,
              help="table:112 / type:i / weights:1,2,3 / entry id")
@click.option("--max-degree", "-D", type=int, default=None,
              help="bound for truncated checks (default per entry: 3n+12)")
@click.option("--checks", default=None,
              help="comma list: structure,rgt,gk,isolated,vacancy,sealed,cohomology")
@click.option("--catalog-file", type=click.Path(exists=True), default=None)
@_format
def catalog_verify(selector, max_degree, checks, catalog_file, fmt):
    """Recompute every expected invariant; exit 1 on any mismatch."""
    check_list = None if checks is None else [c.strip() for c in checks.split(",") if c.strip()]
    try:
        reports = catalog_mod.verify_all(max_degree, selector, check_list,
                                         path=catalog_file)
    except catalog_mod.CatalogError as exc:
        _fail_usage(str(exc))
    rows = [{**_entry_columns(e), **row} for e, entry_rows in reports for row in entry_rows]
    mismatches = sum(row["status"] == "fail" for row in rows)
    results = {
        "entries": len(reports),
        "mismatches": mismatches,
        "ok": mismatches == 0,
        "rows": rows,
    }
    inputs = {"filter": selector, "max_degree": max_degree, "checks": checks}
    _emit("catalog-verify", inputs, results, fmt, max_degree, check="ok")


@catalog.command("list")
@click.option("--filter", "selector", default=None)
@click.option("--catalog-file", type=click.Path(exists=True), default=None)
@_format
def catalog_list(selector, catalog_file, fmt):
    """List catalog entries and their expected invariants."""
    try:
        entries = catalog_mod.entries(selector, path=catalog_file)
    except catalog_mod.CatalogError as exc:
        _fail_usage(str(exc))
    rows = [{
        **_entry_columns(e),
        "type": e.type_label,
        "irreducible": e.irreducible,
        "rgt": e.describe_rgt(),
        "gk": e.describe_gk(),
        "vacant": e.expected_vacant,
        "sealed": e.expected_sealed,
        "isolated": str(e.expected_isolated).lower(),
    } for e in entries]
    _emit("catalog-list", {"filter": selector}, {"count": len(rows), "rows": rows}, fmt)


@main.command()
@click.option("--seed", type=int, default=20240817)
@click.option("--cases", type=click.IntRange(min=1, max=SELFTEST_MAX_CASES), default=100)
@_format
def selftest(seed, cases, fmt):
    """Randomized property suites; exit 1 on any counterexample."""
    from .proptest import run_all_suites
    outcomes = run_all_suites(seed=seed, cases=cases)
    rows = [{"suite": name, "cases": n, "failures": bad}
            for name, n, bad in outcomes]
    ok = all(bad == 0 for _, _, bad in outcomes)
    _emit("selftest", {"seed": seed, "cases": cases}, {"rows": rows, "ok": ok}, fmt, check="ok")


if __name__ == "__main__":
    main()
