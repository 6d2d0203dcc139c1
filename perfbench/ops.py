"""Run, check, digest and corrupt one operation (worker side).

``run`` is the timed call.  It goes through the README quick-start names,
``wpoisson.__all__`` and the CLI only, so refactors behind those names do
not break the benchmark.  It returns a JSON record of the result.  ``check``
recomputes the result by an independent route and returns a list of
problems; an empty list means verified.  ``corrupt`` damages a record so
the benchmark can prove that ``check`` is not vacuous.
"""

import contextlib
import gc
import hashlib
import io
import json
import time
from fractions import Fraction

CATALOG_CHECKS = ("jacobiator", "modular", "rgt", "gkdim", "isolated", "vacancy", "sealed")
COHOMOLOGY_TYPES = ("i", "q", "bw")


# typical seconds of calibrate() on the machine the bounds were set on
CALIB_REF_S = 0.0025


def _calibration_loop():
    t0 = time.perf_counter()
    acc = {}
    step = Fraction(1, 3)
    for i in range(600):
        m = (i % 7, i % 5, i % 3)
        acc[m] = acc.get(m, 0) + step * (i % 11 + 1)
    return time.perf_counter() - t0


def calibrate():
    """Seconds for a fixed piece of pure-Python exact arithmetic, the kind
    of work the package does: the median of three timings, because one is
    often hit by a scheduler pause.  The worker samples it between
    operations; each latency is scaled by CALIB_REF_S over the mean of the
    samples on either side, which takes out most of the machine's speed
    drift."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sorted(_calibration_loop() for _ in range(3))[1]
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, calib):
    """seconds at the reference machine speed"""
    return seconds * CALIB_REF_S / calib


def digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _weights(wp, op):
    return wp.Weights(*op["weights"])


def _field(wp, op):
    return wp.ExtensionField(op["modulus"]) if "modulus" in op else wp.QQ


# ---------------------------------------------------------------------------
# catalog: `wpoisson catalog verify --filter ID --max-degree D --format json`


def catalog_args(op):
    return ["catalog", "verify", "--filter", op["id"], "--max-degree", str(op["bound"]),
            "--format", "json"]


def _run_catalog(wp, op):
    import click
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            wp.cli.main.main(args=catalog_args(op), prog_name="wpoisson",
                             standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.exceptions.ClickException as exc:
            code = exc.exit_code
    return {"exit": code, "stdout": out.getvalue()}


def _check_catalog(wp, op, rec):
    if rec["exit"] != 0:
        return ["exit code %r" % rec["exit"]]
    try:
        doc = json.loads(rec["stdout"])
        results = doc["results"]
        rows = results["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable JSON report: %r" % exc]
    problems = []
    if results.get("entries") != 1 or results.get("ok") is not True:
        problems.append("report header entries=%r ok=%r"
                        % (results.get("entries"), results.get("ok")))
    if not rows:
        problems.append("empty report")
    want = set(CATALOG_CHECKS)
    if op["type"] in COHOMOLOGY_TYPES:
        want.add("cohomology")
    seen = {}
    for row in rows:
        if row.get("entry") != op["id"]:
            problems.append("row for another entry %r" % row.get("entry"))
        seen[row.get("check")] = row.get("status")
    for name in sorted(want):
        if name not in seen:
            problems.append("missing check %s" % name)
        elif seen[name] not in ("pass", "info"):
            problems.append("check %s status %r" % (name, seen[name]))
    return problems


def _corrupt_catalog(rec):
    doc = json.loads(rec["stdout"])
    doc["results"]["rows"] = doc["results"]["rows"][:-1]
    return dict(rec, stdout=json.dumps(doc))


# ---------------------------------------------------------------------------
# groebner: a_sing_hilbert + gkdim + gcd_partials on a random potential


def _run_groebner(wp, op):
    om = wp.parse_poly(op["potential"], _weights(wp, op))
    top = op["degree"] + 4
    dims, _ = wp.a_sing_hilbert(om, top)
    gk = wp.gkdim(om)
    g = wp.gcd_partials(om)
    return {"hilbert": [dims[d] for d in range(top + 1)], "gkdim": gk,
            "gcd": wp.format_poly(g)}


def _check_groebner(wp, op, rec):
    weights = _weights(wp, op)
    om = wp.parse_poly(op["potential"], weights)
    top = op["degree"] + 4
    problems = []
    # Koszul H_0 is A/J by pure linear algebra; the Groebner route must agree
    koszul = wp.koszul_dims(om, top)
    h0 = [koszul.dim(0, d) for d in range(top + 1)]
    if rec["hilbert"] != h0:
        problems.append("Hilbert function %s != Koszul H0 %s" % (rec["hilbert"], h0))
    g = wp.parse_poly(rec["gcd"], weights)
    if g.is_zero():
        problems.append("zero gcd")
    else:
        for p in wp.gradient(om).comps:
            if not wp.normal_form(p, [g]).is_zero():
                problems.append("gcd %s does not divide a partial" % rec["gcd"])
    if rec["gkdim"] not in (0, 1, 2, 3):
        problems.append("gkdim %r out of range" % rec["gkdim"])
    # a common factor of the partials cuts out a surface, so dim >= 2
    if g.degree() and rec["gkdim"] < 2:
        problems.append("nonconstant gcd with gkdim %d" % rec["gkdim"])
    return problems


def _corrupt_groebner(rec):
    return dict(rec, hilbert=rec["hilbert"][:-1] + [rec["hilbert"][-1] + 1])


# ---------------------------------------------------------------------------
# extension: tables, derivations and automorphisms over Q(s)


def _ph_rows(wp, om, bound):
    lo = -sum(om.weights.tuple)
    tab = wp.ph_dims(om, bound)
    return [[tab.dim(i, d) for d in range(lo, bound + 1)] for i in range(4)]


def _koszul_rows(wp, om, bound):
    tab = wp.koszul_dims(om, bound)
    return [[tab.dim(i, d) for d in range(bound + 1)] for i in range(4)]


def _derivations(wp, om, d):
    basis = wp.graded_derivation_space(wp.from_potential(om), d)
    return [[wp.format_poly(c) for c in b.comps] for b in basis]


def _run_extension(wp, op):
    om = wp.parse_poly(op["potential"], _weights(wp, op), _field(wp, op))
    call = op["call"]
    if call == "ph_dims":
        return {"table": _ph_rows(wp, om, op["bound"])}
    if call == "koszul_dims":
        return {"table": _koszul_rows(wp, om, op["bound"])}
    if call == "graded_derivation_space":
        return {"basis": _derivations(wp, om, op["degree"])}
    phi = wp.parse_map(op["map"], om.weights, om.field)
    return {"accepted": bool(wp.verify_automorphism(om, phi))}


def _series(num, den_exps, top):
    """coefficients 0..top of prod(1 - t^e for e in num) / prod(1 - t^e)"""
    c = [1] + [0] * top
    for e in num:
        c = [c[d] - (c[d - e] if d >= e else 0) for d in range(top + 1)]
    for e in den_exps:
        for d in range(e, top + 1):
            c[d] += c[d - e]
    return c


def _rational_twin(wp, op):
    return wp.parse_poly(op["potential"], _weights(wp, op))


def _check_extension(wp, op, rec):
    call = op["call"]
    weights = _weights(wp, op)
    n = sum(op["weights"])
    problems = []
    checked = False
    if call == "verify_automorphism":
        if rec["accepted"] != op["expected"]:
            problems.append("automorphism verdict %r, expected %r"
                            % (rec["accepted"], op["expected"]))
        return problems
    if call == "ph_dims":
        bound = op["bound"]
        if op["isolated"]:
            checked = True
            for i in range(4):
                want = list(wp.closed_form_ph(weights, i, n).expand(-n, bound))
                if rec["table"][i] != want:
                    problems.append("PH%d %s != closed form %s" % (i, rec["table"][i], want))
        if op["rational"]:
            checked = True
            q = _ph_rows(wp, _rational_twin(wp, op), bound)
            if rec["table"] != q:
                problems.append("table differs from the same table over Q")
    elif call == "koszul_dims":
        bound = op["bound"]
        if op["isolated"]:
            checked = True
            # isolated: the partials form a regular sequence, so H0 is the
            # Milnor algebra and higher homology vanishes
            w = op["weights"]
            h0 = _series([n - e for e in w], w, bound)
            if rec["table"][0] != h0 or any(any(row) for row in rec["table"][1:]):
                problems.append("Koszul table %s, expected H0 %s and zero above"
                                % (rec["table"], h0))
        if op["rational"]:
            checked = True
            if rec["table"] != _koszul_rows(wp, _rational_twin(wp, op), bound):
                problems.append("table differs from the same table over Q")
    elif call == "graded_derivation_space":
        field = _field(wp, op)
        om = wp.parse_poly(op["potential"], weights, field)
        grad = wp.gradient(om)
        for comps in rec["basis"]:
            v = wp.PolyVector(*(wp.parse_poly(t, weights, field) for t in comps))
            lhs = [wp.div(v) * g for g in grad.comps]
            rhs = wp.gradient(wp.dot(v, grad)).comps
            if any(x != y for x, y in zip(lhs, rhs)):
                problems.append("derivation %s breaks div(D) grad(O) = grad(D(O))" % comps)
        checked = bool(rec["basis"])
        if op["degree"] == 0 and not rec["basis"]:
            problems.append("degree-0 space misses the Euler derivation")
        if op["rational"]:
            checked = True
            q = _derivations(wp, _rational_twin(wp, op), op["degree"])
            if len(q) != len(rec["basis"]):
                problems.append("dimension %d, over Q %d" % (len(rec["basis"]), len(q)))
    if not checked:
        problems.append("no independent check applies")
    return problems


def _corrupt_extension(rec):
    if "accepted" in rec:
        return {"accepted": not rec["accepted"]}
    if "basis" in rec:
        return {"basis": [["x", "0", "0"]] + rec["basis"][1:]}
    table = [list(row) for row in rec["table"]]
    table[0][-1] += 1
    return {"table": table}


RUN = {"catalog": _run_catalog, "groebner": _run_groebner, "extension": _run_extension}
CHECK = {"catalog": _check_catalog, "groebner": _check_groebner, "extension": _check_extension}
CORRUPT = {"catalog": _corrupt_catalog, "groebner": _corrupt_groebner,
           "extension": _corrupt_extension}


def kind_key(op):
    """ops that share a checker path, for the corruption self-test"""
    return op.get("call", op["kind"])


def run(wp, op):
    return RUN[op["kind"]](wp, op)


def check(wp, op, rec):
    return CHECK[op["kind"]](wp, op, rec)


def corrupt(op, rec):
    return CORRUPT[op["kind"]](rec)


def input_text(op):
    """one line naming the input, for the run record"""
    if op["kind"] == "catalog":
        return "wpoisson " + " ".join(catalog_args(op))
    if op["kind"] == "groebner":
        return "weights %s: %s" % (",".join(map(str, op["weights"])), op["potential"])
    extra = {"ph_dims": "bound", "koszul_dims": "bound",
             "graded_derivation_space": "degree", "verify_automorphism": "map"}[op["call"]]
    return "%s(%s, modulus %s, %s=%s)" % (op["call"], op["potential"], op["modulus"],
                                          extra, op[extra])

