"""Curated catalog of weighted homogeneous potentials with expected invariants.

Each record pins a potential at a concrete weight triple together with the
invariant values it is expected to have: rigidity index, GK-dimension of the
singular quotient, vacancy and sealedness verdicts, and whether the
singularity at the origin is isolated.  ``verify_entry`` recomputes all of
them from scratch and reports agreement row by row.

Every numeric expectation in the data file was confirmed by an independent
computation before being frozen.  An rgt is exact or an upper bound, a
GK-dimension one value or a choice of values, and every ``cond=`` note names
a weight condition of ``_CONDITIONS`` that the record's weights must meet.
Entries whose vacancy or sealedness verdict is "no" carry a witness degree
(the smallest degree where a nonzero dimension appears) so verification
knows how far it must look.  Verification sweeps each of those two tables in
rising degree and stops at its sixth nonzero degree, the last one its report
row prints, as no later degree changes the row; a "yes" verdict, which
holds only when every degree is zero, a row with fewer than six nonzero
degrees and the cohomology tables still sweep to the bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ring import Polynomial, Weights
from .textio import parse_poly
from .poisson import (
    from_potential,
    jacobiator,
    modular_derivation,
    rgt,
)
from .jacobian import gkdim, has_isolated_singularity
from .complexes import default_bound, ph_closed_form_rows, sealed_degrees, vacancy_degrees

DATA_PATH = Path(__file__).resolve().parent / "data" / "catalog.txt"

TYPE_LABELS = ("i", "q", "bw", "nw", "r")
VERDICTS = ("yes", "no", "unknown")
CHECKS = ("structure", "rgt", "gk", "isolated", "vacancy", "sealed", "cohomology")

# filter-key -> weight shape predicate
_TABLE_SHAPES: Dict[str, Callable[[int, int, int], bool]] = {
    "111": lambda a, b, c: (a, b, c) == (1, 1, 1),
    "112": lambda a, b, c: (a, b, c) == (1, 1, 2),
    "123": lambda a, b, c: (a, b, c) == (1, 2, 3),
    "aabc": lambda a, b, c: a == b < c and (a, b, c) != (1, 1, 2),
    "abbc": lambda a, b, c: a < b == c,
    "abc": lambda a, b, c: a < b < c and (a, b, c) != (1, 2, 3),
}

# key of a typed note -> its type; any other key=value note is kept as text
_NOTE_TYPES: Dict[str, Callable[[str], object]] = {
    "lambda": Fraction, "vacwit": int, "sealwit": int, "k": int, "m": int, "n": int}

# cond= note -> predicate on the weights and the notes, which give k, m and n
_CONDITIONS: Dict[str, Callable[[int, int, int, Dict[str, object]], bool]] = {
    "c=k*a": lambda a, b, c, p: a == b and "k" in p and c == p["k"] * a,
    "c!=k*a": lambda a, b, c, p: a == b and c % a != 0,
    "c=a+b": lambda a, b, c, p: c == a + b,
    "c=m*a+n*b": lambda a, b, c, p: "m" in p and "n" in p and c == p["m"] * a + p["n"] * b,
    "c!=m*a+n*b": lambda a, b, c, p: all(m * a + n * b != c for m in range(1, c // a + 1)
                                         for n in range(1, c // b + 1)),
    "c=lcm(a,b)-a-b": lambda a, b, c, p: c == lcm(a, b) - a - b,
    "a-div-b": lambda a, b, c, p: b % a == 0,
    "a-ndiv-b": lambda a, b, c, p: b % a != 0,
    "b!=2*a": lambda a, b, c, p: b != 2 * a,
}


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str
    weights: Weights
    omega_text: str
    omega: Polynomial
    type_label: str
    irreducible: bool
    rgt: int
    rgt_is_bound: bool                # expectation: rgt <= self.rgt
    gk_choices: Tuple[int, ...]       # one element when exact
    expected_vacant: str
    expected_sealed: str
    expected_isolated: bool
    table: str
    family: Optional[str]
    lam: Optional[Fraction]
    vacancy_witness: Optional[int]
    sealed_witness: Optional[int]

    @property
    def degree(self) -> int:
        return self.weights.n_default

    def rgt_matches(self, value: int) -> bool:
        return value <= self.rgt if self.rgt_is_bound else value == self.rgt

    def gk_matches(self, value: int) -> bool:
        return value in self.gk_choices

    def describe_rgt(self) -> str:
        return ("<=%d" if self.rgt_is_bound else "%d") % self.rgt

    def describe_gk(self) -> str:
        return "or".join(str(v) for v in self.gk_choices)


def _parse_record(line: str) -> CatalogEntry:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 11:
        raise CatalogError("record needs 11 fields, got %d: %r" % (len(parts), line))
    (eid, wtxt, omtext, typ, irr_s, rgt_s, gk_s, vac, seal, iso_s, notes) = parts
    try:
        a, b, c = (int(t) for t in wtxt.split(","))
    except ValueError:
        raise CatalogError("%s: bad weights %r" % (eid, wtxt))
    try:
        weights = Weights(a, b, c)
    except Exception as exc:
        raise CatalogError("%s: %s" % (eid, exc))
    if typ not in TYPE_LABELS:
        raise CatalogError("%s: bad type %r" % (eid, typ))
    if vac not in VERDICTS or seal not in VERDICTS:
        raise CatalogError("%s: bad verdict" % eid)
    if irr_s not in ("true", "false") or iso_s not in ("true", "false"):
        raise CatalogError("%s: bad boolean" % eid)
    irreducible = irr_s == "true"
    isolated = iso_s == "true"
    if irreducible != (typ != "r"):
        raise CatalogError("%s: type %r inconsistent with irreducible=%s"
                           % (eid, typ, irreducible))
    rgt_is_bound = rgt_s.startswith("<=")
    rgt_value = int(rgt_s[2:] if rgt_is_bound else rgt_s)
    gk_choices = tuple(int(t) for t in gk_s.split("or"))

    omega = parse_poly(omtext, weights)
    n = weights.n_default
    if not omega.is_homogeneous() or omega.homogeneous_degree() != n:
        raise CatalogError("%s: potential not homogeneous of degree %d" % (eid, n))

    # key=value notes, each read as its type and the last of a repeated key
    # kept, and the cond= notes; a token with no "=" is a free-form annotation
    kv: Dict[str, object] = {}
    conds: List[str] = []
    for token in filter(None, (t.strip() for t in notes.split(";"))):
        if token in ("k", "m", "n"):
            raise CatalogError("%s: bare parameter token" % eid)
        key, eq, value = token.partition("=")
        if eq and key == "cond":
            conds.append(value)
        elif eq:
            kv[key] = _NOTE_TYPES.get(key, str)(value)
    table = kv.get("table")
    if table not in _TABLE_SHAPES:
        raise CatalogError("%s: missing or unknown table key %r" % (eid, table))
    if not _TABLE_SHAPES[table](a, b, c):
        raise CatalogError("%s: weights %s do not fit group %r" % (eid, (a, b, c), table))
    for cond in conds:
        if cond not in _CONDITIONS:
            raise CatalogError("%s: unknown condition %r" % (eid, cond))
        if not _CONDITIONS[cond](a, b, c, kv):
            raise CatalogError("%s: condition %s fails" % (eid, cond))
    if irreducible and (rgt_is_bound or rgt_value != 0):
        raise CatalogError("%s: irreducible entry needs exact rgt 0" % eid)
    if not irreducible and rgt_value > -1:
        raise CatalogError("%s: reducible rgt must be <= -1" % eid)
    if vac == "no" and "vacwit" not in kv:
        raise CatalogError("%s: vacant=no needs vacwit" % eid)
    if seal == "no" and "sealwit" not in kv:
        raise CatalogError("%s: sealed=no needs sealwit" % eid)
    if isolated != (typ == "i"):
        raise CatalogError("%s: type i and only type i is isolated" % eid)
    if typ in ("nw", "r") and (vac != "no" or seal != "no"):
        raise CatalogError("%s: %s entries are non-vacant and unsealed" % (eid, typ))
    return CatalogEntry(
        entry_id=eid, weights=weights, omega_text=omtext, omega=omega,
        type_label=typ, irreducible=irreducible,
        rgt=rgt_value, rgt_is_bound=rgt_is_bound, gk_choices=gk_choices,
        expected_vacant=vac, expected_sealed=seal, expected_isolated=isolated,
        table=table, family=kv.get("family"), lam=kv.get("lambda"),
        vacancy_witness=kv.get("vacwit"), sealed_witness=kv.get("sealwit"))


def _load(path: Optional[Path] = None) -> List[CatalogEntry]:
    path = Path(path) if path is not None else DATA_PATH
    entries: List[CatalogEntry] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = _parse_record(line)
            except CatalogError:
                raise
            except ValueError as exc:
                # a malformed number or potential in the record
                raise CatalogError("%s: %s" % (line.split("|")[0].strip(), exc)) from None
            if entry.entry_id in seen:
                raise CatalogError("duplicate id %s" % entry.entry_id)
            seen.add(entry.entry_id)
            entries.append(entry)
    if path.resolve() == DATA_PATH:
        _sanity(entries)
    return entries


def _sanity(entries: Sequence[CatalogEntry]) -> None:
    """Whole-catalog facts of the shipped data file; every record of any
    file passes the per-record rules of ``_parse_record``."""
    free112 = [e for e in entries if e.table == "112" and e.lam is None]
    if len(free112) != 16:
        raise CatalogError("expected 16 parameter-free (1,1,2) entries, got %d"
                           % len(free112))
    ifams = {e.family for e in entries if e.type_label == "i"}
    if len(ifams) != 3 or None in ifams:
        raise CatalogError("expected exactly 3 isolated families, got %r" % ifams)
    spot = {"111-i-a": "bw", "112-i-a": "bw", "112-r-a": "r", "123-i-a": "nw",
            "112-i-f": "q", "abc-i-b1": "nw", "abc-i-f1": "nw", "111-i-c1": "i"}
    for eid, typ in spot.items():
        hit = [e for e in entries if e.entry_id == eid]
        if len(hit) != 1 or hit[0].type_label != typ:
            raise CatalogError("spot check failed for %s" % eid)


_CACHE: Optional[List[CatalogEntry]] = None


def entries(selector: Optional[str] = None,
            path: Optional[Path] = None) -> List[CatalogEntry]:
    """Catalog entries in file order, optionally filtered.

    Selectors: ``table:112``, ``type:i``, ``weights:1,2,3``, an entry id,
    or None for everything.
    """
    global _CACHE
    if path is not None:
        data = _load(path)
    else:
        if _CACHE is None:
            _CACHE = _load()
        data = list(_CACHE)
    if selector is None:
        return data
    sel = selector.strip()
    if sel.startswith("table:"):
        key = sel[6:]
        if key not in _TABLE_SHAPES:
            raise CatalogError("unknown table key %r" % key)
        return [e for e in data if e.table == key]
    if sel.startswith("type:"):
        key = sel[5:]
        if key not in TYPE_LABELS:
            raise CatalogError("unknown type label %r" % key)
        return [e for e in data if e.type_label == key]
    if sel.startswith("weights:"):
        try:
            w = tuple(int(t) for t in sel[8:].split(","))
        except ValueError:
            raise CatalogError("bad weights selector %r" % sel)
        if len(w) != 3:
            raise CatalogError("bad weights selector %r" % sel)
        return [e for e in data if e.weights.tuple == w]
    exact = [e for e in data if e.entry_id == sel]
    if exact:
        return exact
    raise CatalogError("unknown selector %r" % selector)


# the nonzero degrees a vacancy or sealedness row prints; its sweep stops
# at the last of them, as no later degree changes the row
NONZERO_SHOWN = 6


def verify_entry(entry: CatalogEntry, max_degree: Optional[int] = None,
                 checks: Optional[Sequence[str]] = None) -> List[Dict[str, str]]:
    """Recompute the entry's invariants and compare with expectations.

    Returns the report rows, one dict per item with the keys ``check``,
    ``status`` (pass, fail, or info where the expectation is unknown),
    ``expected`` and ``computed``.  ``max_degree`` bounds the
    degree-truncated checks (vacancy, sealedness, cohomology tables); it
    defaults to ``default_bound(deg(omega))``.  Exact checks (jacobiator,
    modular vector field, rigidity, GK-dimension, isolated singularity) do
    not depend on it.  ``checks`` restricts to a nonempty subset of
    ``CHECKS``.
    """
    want = set(CHECKS if checks is None else checks)
    unknown = want - set(CHECKS)
    if unknown or not want:
        raise CatalogError("checks must be a nonempty subset of %s; unknown: %s"
                           % (",".join(CHECKS), ",".join(sorted(unknown)) or "none"))
    truncated = [check for check in (
        ("vacancy", entry.expected_vacant, entry.vacancy_witness, vacancy_degrees),
        ("sealed", entry.expected_sealed, entry.sealed_witness, sealed_degrees),
    ) if check[0] in want]
    D = default_bound(entry.degree) if max_degree is None else max_degree
    omega = entry.omega
    # a "no" verdict looks at least as far as its recorded witness
    bounds = {name: max(D, w) if verdict == "no" else D
              for name, verdict, w, _ in truncated}
    # the sweeps come before every other check, sealed first: its block
    # eliminations leave the ranks of K1, which it reads itself, and of T_e,
    # which rgt, vacancy and cohomology read (complexes docstring).  Each
    # stops at its last printed nonzero degree; the report keeps its row order
    nonzero = {name: list(islice((d for d, v in sweep(omega, bounds[name]) if v), NONZERO_SHOWN))
               for name, _, _, sweep in reversed(truncated)}
    rows: List[Dict[str, str]] = []

    def row(check, ok, expected, computed):
        # ok is None where the expectation is unknown
        status = "info" if ok is None else "pass" if ok else "fail"
        rows.append({"check": check, "status": status, "expected": expected,
                     "computed": computed})

    if "structure" in want:
        s = from_potential(omega)
        for name, value in (("jacobiator", jacobiator(s)), ("modular", modular_derivation(s))):
            row(name, value.is_zero(), "0", "0" if value.is_zero() else "nonzero")
    if "rgt" in want:
        r = rgt(omega)
        row("rgt", entry.rgt_matches(r), entry.describe_rgt(), str(r))
    if "gk" in want:
        g = gkdim(omega)
        row("gkdim", entry.gk_matches(g), entry.describe_gk(), str(g))
    if "isolated" in want:
        iso = has_isolated_singularity(omega)
        row("isolated", iso == entry.expected_isolated,
            str(entry.expected_isolated).lower(), str(iso).lower())
    for name, verdict, _, _ in truncated:
        found = nonzero[name]
        row(name, None if verdict == "unknown" else bool(found) == (verdict == "no"), verdict,
            "nonzero at %s" % found if found else "all zero to %d" % bounds[name])
    if "cohomology" in want and entry.type_label in ("i", "q", "bw"):
        _, matches = ph_closed_form_rows(omega, D)
        bad = ["PH%d" % i for i in range(4) if not matches["ph%d" % i]]
        row("cohomology", not bad, "closed-form tables to %d" % D,
            "mismatch in %s" % ",".join(bad) if bad else "match")
    return rows


def verify_all(max_degree: Optional[int] = None,
               selector: Optional[str] = None,
               checks: Optional[Sequence[str]] = None,
               path: Optional[Path] = None) -> List[Tuple[CatalogEntry, List[Dict[str, str]]]]:
    """Each selected entry with its report rows.  A selection that checks
    nothing (no entry matches, or no selected check applies) raises
    CatalogError."""
    selected = entries(selector, path=path)
    if not selected:
        raise CatalogError("no catalog entries match %r" % selector)
    reports = [(entry, verify_entry(entry, max_degree, checks=checks)) for entry in selected]
    if not any(rows for _, rows in reports):
        raise CatalogError("no selected check applies to the selected entries")
    return reports
