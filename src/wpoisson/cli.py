"""Command-line surface.

Every computation the library offers is reachable from here.  Output is
deterministic: identical inputs produce byte-identical text in all three
formats.  Exit codes: 0 success (and all verifications passed), 1 a
verification-style command found a mismatch, 2 malformed input or usage.
"""

import csv
import io
import json
import re
import sys
from fractions import Fraction

import click

from . import __version__
from .ring import QQ, ExtensionField, RingError, Weights
from .textio import ParseError, format_poly, parse_map, parse_poly
from .poisson import (
    bracket as poisson_bracket,
    from_potential,
    jacobiator,
    modular_derivation,
    negative_degree_pd_dims,
    rgt,
    verify_automorphism,
    verify_quotient_automorphism,
    jacobian_determinant,
    PoissonStructure,
)
from .jacobian import gcd_partials, gkdim, has_isolated_singularity
from .complexes import (
    koszul_dims,
    ozone_vs_hamiltonian,
    ph_dims,
    sealed_k1_dims,
    vacancy_check,
)
from .hilbert import closed_form_ph
from . import catalog as catalog_mod


def _fail_usage(msg):
    raise click.UsageError(str(msg))


def _parse_weights(text):
    try:
        parts = [int(t) for t in text.split(",")]
        if len(parts) != 3:
            raise ValueError
        return Weights(*parts)
    except (ValueError, RingError) as exc:
        _fail_usage("bad --weights %r: %s" % (text, exc))


_MOD_TERM = re.compile(r"^([+-]?\d*)(?:\*?s(?:\^(\d+))?)?$")


def _parse_field(text):
    """'rationals' (default) or a monic modulus in s, e.g. 's^2+s+1'."""
    if text is None or text.strip() in ("", "rationals", "QQ", "Q"):
        return QQ
    src = text.replace(" ", "")
    src = src.replace("-", "+-")
    terms = [t for t in src.split("+") if t]
    coeffs = {}
    for term in terms:
        m = _MOD_TERM.match(term)
        if not m or (not m.group(1) and "s" not in term):
            _fail_usage("bad --field modulus %r" % text)
        coef_s = m.group(1)
        if "s" in term:
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            exp = 0
        coef = int(coef_s) if coef_s not in ("", "+", "-") else (-1 if coef_s == "-" else 1)
        coeffs[exp] = coeffs.get(exp, 0) + coef
    deg = max(coeffs)
    if deg < 1 or coeffs[deg] != 1:
        _fail_usage("--field modulus must be monic of degree >= 1: %r" % text)
    mod = [coeffs.get(i, 0) for i in range(deg + 1)]
    try:
        return ExtensionField(mod)
    except RingError as exc:
        _fail_usage(str(exc))


def _poly(text, weights, field):
    try:
        return parse_poly(text, weights, field=field)
    except (ParseError, RingError) as exc:
        _fail_usage("bad polynomial %r: %s" % (text, exc))


def _structure(weights, field, potential, pxy, pyz, pzx):
    if potential is not None:
        if pxy or pyz or pzx:
            _fail_usage("give either --potential or the three bracket components")
        om = _poly(potential, weights, field)
        return from_potential(om), om
    if not (pxy and pyz and pzx):
        _fail_usage("need --potential or all of --pxy/--pyz/--pzx")
    s = PoissonStructure(_poly(pxy, weights, field),
                         _poly(pyz, weights, field),
                         _poly(pzx, weights, field))
    return s, None


def _default_bound(weights, max_degree):
    if max_degree is not None:
        return max_degree
    try:
        return catalog_mod.default_bound(weights.n_default)
    except catalog_mod.CatalogError as exc:
        _fail_usage(exc)


def _scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _emit(command, inputs, results, fmt, bound=None, rows=None, row_key="degree"):
    """Render one report. rows: list of dicts for the per-degree formats."""
    inputs = {k: v for k, v in inputs.items() if v is not None}
    if fmt == "json":
        doc = {
            "command": command,
            "inputs": inputs,
            "results": results,
            "truncation_bound": bound,
            "version": __version__,
        }
        click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                    lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _scalar(v) for k, v in row.items()})
        else:
            writer = csv.DictWriter(buf, fieldnames=list(results.keys()),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerow({k: _scalar(v) for k, v in results.items()})
        click.echo(buf.getvalue(), nl=False)
        return
    # table
    for key, value in inputs.items():
        click.echo("# %s: %s" % (key, value))
    if bound is not None:
        click.echo("# truncation bound: %d" % bound)
    if rows:
        headers = list(rows[0].keys())
        widths = [max(len(str(h)), max(len(str(_scalar(r[h]))) for r in rows))
                  for h in headers]
        click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            click.echo("  ".join(str(_scalar(row[h])).ljust(w)
                                 for h, w in zip(headers, widths)))
    for key, value in results.items():
        if rows and key == "rows":
            continue
        click.echo("%s: %s" % (key, _scalar(value)))


def _common(fn):
    fn = click.option("--weights", "-w", required=True, help="a,b,c")(fn)
    fn = click.option("--field", "field_text", default="rationals",
                      help="rationals (default) or a monic modulus in s")(fn)
    fn = click.option("--format", "fmt", default="table",
                      type=click.Choice(["table", "json", "csv"]))(fn)
    return fn


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


@main.command()
@_common
@click.option("--potential", "-p", default=None)
@click.option("--pxy", default=None)
@click.option("--pyz", default=None)
@click.option("--pzx", default=None)
@click.option("--f", "f_text", required=True)
@click.option("--g", "g_text", required=True)
def bracket(weights, field_text, fmt, potential, pxy, pyz, pzx, f_text, g_text):
    """Poisson bracket {f, g}."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    s, _ = _structure(W, K, potential, pxy, pyz, pzx)
    f = _poly(f_text, W, K)
    g = _poly(g_text, W, K)
    result = poisson_bracket(s, f, g)
    inputs = {"weights": weights, "potential": potential, "f": f_text, "g": g_text}
    _emit("bracket", inputs, {"bracket": format_poly(result)}, fmt)


@main.command()
@_common
@click.option("--potential", "-p", default=None)
@click.option("--pxy", default=None)
@click.option("--pyz", default=None)
@click.option("--pzx", default=None)
def jacobi(weights, field_text, fmt, potential, pxy, pyz, pzx):
    """Jacobiator of the structure; exit 1 if nonzero."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    s, _ = _structure(W, K, potential, pxy, pyz, pzx)
    j = jacobiator(s)
    ok = j.is_zero()
    inputs = {"weights": weights, "potential": potential,
              "pxy": pxy, "pyz": pyz, "pzx": pzx}
    _emit("jacobi", inputs, {"jacobiator": format_poly(j), "is_zero": ok}, fmt)
    if not ok:
        sys.exit(1)


@main.command()
@_common
@click.option("--potential", "-p", default=None)
@click.option("--pxy", default=None)
@click.option("--pyz", default=None)
@click.option("--pzx", default=None)
def modular(weights, field_text, fmt, potential, pxy, pyz, pzx):
    """Modular vector field; exit 1 if nonzero (non-unimodular)."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    s, _ = _structure(W, K, potential, pxy, pyz, pzx)
    m = modular_derivation(s)
    ok = m.is_zero()
    inputs = {"weights": weights, "potential": potential,
              "pxy": pxy, "pyz": pyz, "pzx": pzx}
    results = {"components": [format_poly(c) for c in m.comps], "is_zero": ok}
    _emit("modular", inputs, results, fmt)
    if not ok:
        sys.exit(1)


@main.command("rgt")
@_common
@click.option("--potential", "-p", required=True)
def rgt_cmd(weights, field_text, fmt, potential):
    """Rigidity index of the graded twist space."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    value = rgt(om)
    _emit("rgt", {"weights": weights, "potential": potential},
          {"rgt": value}, fmt)


@main.command("gkdim")
@_common
@click.option("--potential", "-p", required=True)
def gkdim_cmd(weights, field_text, fmt, potential):
    """GK-dimension of the singular quotient ring."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    _emit("gkdim", {"weights": weights, "potential": potential},
          {"gkdim": gkdim(om)}, fmt)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
def singularity(weights, field_text, fmt, potential):
    """Isolated-singularity test with supporting data."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    results = {
        "isolated": has_isolated_singularity(om),
        "gkdim": gkdim(om),
        "gcd_of_partials": format_poly(gcd_partials(om)),
    }
    _emit("singularity", {"weights": weights, "potential": potential}, results, fmt)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
@click.option("--max-degree", "-D", type=int, default=None)
def cohomology(weights, field_text, fmt, potential, max_degree):
    """Poisson cohomology dimension table, with closed-form comparison."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    D = _default_bound(W, max_degree)
    tab = ph_dims(om, D)
    n = om.homogeneous_degree()
    # the closed forms hold for potentials of degree a+b+c only; the window
    # opens at -n, or lower where cochains of degree down to -(a+b+c) exist
    lo = -max(n, W.n_default)
    if D < lo:
        raise RingError("empty degree window: --max-degree %d is below %d" % (D, lo))
    applicable = n == W.n_default
    closed = {i: closed_form_ph(W, i, n).expand(lo, D) for i in range(4)} if applicable else {}
    rows = []
    for d in range(lo, D + 1):
        row = {"degree": d}
        for i in range(4):
            row["ph%d" % i] = tab.dim(i, d)
        for i in closed:
            row["closed%d" % i] = closed[i][d - lo]
        rows.append(row)
    if applicable:
        matches = {"ph%d" % i: [r["ph%d" % i] for r in rows] == closed[i] for i in range(4)}
    else:
        matches = "not applicable"
    results = {"rows": rows, "matches_closed_form": matches}
    _emit("cohomology", {"weights": weights, "potential": potential},
          results, fmt, bound=D, rows=rows)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
@click.option("--max-degree", "-D", type=int, default=None)
def koszul(weights, field_text, fmt, potential, max_degree):
    """Koszul homology dimensions for the partial-derivative sequence."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    D = _default_bound(W, max_degree)
    tab = koszul_dims(om, D)
    rows = [{"degree": d, "h0": tab.dim(0, d), "h1": tab.dim(1, d),
             "h2": tab.dim(2, d), "h3": tab.dim(3, d)}
            for d in range(0, D + 1)]
    _emit("koszul", {"weights": weights, "potential": potential},
          {"rows": rows}, fmt, bound=D, rows=rows)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
@click.option("--max-degree", "-D", type=int, default=None)
def sealed(weights, field_text, fmt, potential, max_degree):
    """Sealed first Koszul homology deviation, per degree up to the bound."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    D = _default_bound(W, max_degree)
    dims, all_zero = sealed_k1_dims(om, D)
    rows = [{"degree": d, "dim": dims[d]} for d in sorted(dims)]
    _emit("sealed", {"weights": weights, "potential": potential},
          {"rows": rows, "all_zero_up_to_bound": all_zero}, fmt,
          bound=D, rows=rows)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
@click.option("--max-degree", "-D", type=int, default=None)
def vacancy(weights, field_text, fmt, potential, max_degree):
    """Unresolved second-cohomology dimensions, per degree up to the bound."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    D = _default_bound(W, max_degree)
    dims = vacancy_check(om, D)
    rows = [{"degree": d, "dim": dims[d]} for d in sorted(dims)]
    all_zero = all(v == 0 for v in dims.values())
    _emit("vacancy", {"weights": weights, "potential": potential},
          {"rows": rows, "all_zero_up_to_bound": all_zero}, fmt,
          bound=D, rows=rows)


@main.command()
@_common
@click.option("--potential", "-p", required=True)
@click.option("--max-degree", "-D", type=int, default=None)
def ozone(weights, field_text, fmt, potential, max_degree):
    """Ozone-vs-hamiltonian dimension comparison per degree."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    D = _default_bound(W, max_degree)
    table = ozone_vs_hamiltonian(om, D)
    rows = [{"degree": d, "ozone": o, "hamiltonian": h, "equal": o == h}
            for d, (o, h) in sorted(table.items())]
    agree = all(r["equal"] for r in rows)
    _emit("ozone", {"weights": weights, "potential": potential},
          {"rows": rows, "agree_up_to_bound": agree}, fmt, bound=D, rows=rows)


@main.command("verify-aut")
@_common
@click.option("--potential", "-p", required=True)
@click.option("--map", "map_text", required=True,
              help='"x->expr; y->expr; z->expr"')
@click.option("--inverse", "inverse_text", default=None)
@click.option("--xi", default=None, help="verify on the fiber Omega = xi")
def verify_aut(weights, field_text, fmt, potential, map_text, inverse_text, xi):
    """Check a substitution map as a (quotient) Poisson automorphism."""
    W = _parse_weights(weights)
    K = _parse_field(field_text)
    om = _poly(potential, W, K)
    try:
        phi = parse_map(map_text, W, field=K)
        psi = parse_map(inverse_text, W, field=K) if inverse_text else None
    except (ParseError, RingError) as exc:
        _fail_usage("bad map: %s" % exc)
    det = jacobian_determinant(phi)
    if xi is None:
        ok = verify_automorphism(om, phi)
        results = {"passed": ok, "jacobian_det": format_poly(det),
                   "mode": "graded"}
    else:
        try:
            xi_val = Fraction(xi)
        except ValueError:
            _fail_usage("bad --xi %r" % xi)
        if psi is None:
            _fail_usage("--xi verification needs --inverse")
        ok = verify_quotient_automorphism(om, xi_val, phi, psi)
        results = {"passed": ok, "jacobian_det": format_poly(det),
                   "mode": "quotient", "xi": str(xi_val)}
    inputs = {"weights": weights, "potential": potential, "map": map_text,
              "inverse": inverse_text, "xi": xi}
    _emit("verify-aut", inputs, results, fmt)
    if not ok:
        sys.exit(1)


@main.group()
def catalog():
    """Operations on the built-in potential catalog."""


@catalog.command("verify")
@click.option("--filter", "selector", default=None,
              help="table:112 / type:i / weights:1,2,3 / entry id")
@click.option("--max-degree", "-D", type=int, default=None,
              help="bound for truncated checks (default per entry: 3n+12)")
@click.option("--checks", default=None,
              help="comma list: structure,rgt,gk,isolated,vacancy,sealed,cohomology")
@click.option("--catalog-file", type=click.Path(exists=True), default=None)
@click.option("--format", "fmt", default="table",
              type=click.Choice(["table", "json", "csv"]))
def catalog_verify(selector, max_degree, checks, catalog_file, fmt):
    """Recompute every expected invariant; exit 1 on any mismatch."""
    check_list = None
    if checks:
        check_list = [c.strip() for c in checks.split(",") if c.strip()]
    try:
        report = catalog_mod.verify_all(max_degree, selector, check_list,
                                        path=catalog_file)
    except catalog_mod.CatalogError as exc:
        _fail_usage(str(exc))
    mismatches = report.mismatch_count
    rows = []
    for rep in report.reports:
        for item in rep.items:
            rows.append({
                "entry": rep.entry.entry_id,
                "weights": "%d,%d,%d" % rep.entry.weights.tuple,
                "potential": rep.entry.omega_text,
                "check": item.name,
                "status": item.status,
                "expected": item.expected,
                "computed": item.computed,
            })
    results = {
        "entries": len(report.reports),
        "mismatches": mismatches,
        "ok": mismatches == 0,
        "rows": rows,
    }
    inputs = {"filter": selector, "max_degree": max_degree, "checks": checks}
    _emit("catalog-verify", inputs, results, fmt, bound=max_degree, rows=rows)
    if mismatches:
        sys.exit(1)


@catalog.command("list")
@click.option("--filter", "selector", default=None)
@click.option("--catalog-file", type=click.Path(exists=True), default=None)
@click.option("--format", "fmt", default="table",
              type=click.Choice(["table", "json", "csv"]))
def catalog_list(selector, catalog_file, fmt):
    """List catalog entries and their expected invariants."""
    try:
        entries = catalog_mod.entries(selector, path=catalog_file)
    except catalog_mod.CatalogError as exc:
        _fail_usage(str(exc))
    rows = [{
        "entry": e.entry_id,
        "weights": "%d,%d,%d" % e.weights.tuple,
        "potential": e.omega_text,
        "type": e.type_label,
        "irreducible": e.irreducible,
        "rgt": e.describe_rgt(),
        "gk": e.describe_gk(),
        "vacant": e.expected_vacant,
        "sealed": e.expected_sealed,
        "isolated": str(e.expected_isolated).lower(),
    } for e in entries]
    _emit("catalog-list", {"filter": selector},
          {"count": len(rows), "rows": rows}, fmt, rows=rows)


@main.command()
@click.option("--seed", type=int, default=20240817)
@click.option("--cases", type=int, default=100)
@click.option("--format", "fmt", default="table",
              type=click.Choice(["table", "json", "csv"]))
def selftest(seed, cases, fmt):
    """Randomized property suites; exit 1 on any counterexample."""
    from .proptest import run_all_suites
    outcomes = run_all_suites(seed=seed, cases=cases)
    rows = [{"suite": name, "cases": n, "failures": bad}
            for name, n, bad in outcomes]
    ok = all(bad == 0 for _, _, bad in outcomes)
    _emit("selftest", {"seed": seed, "cases": cases},
          {"rows": rows, "ok": ok}, fmt, rows=rows)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
