"""Golden tables: every truncated invariant of the catalog, and the JSON
report of ``catalog verify``, must stay byte-identical across refactors and
performance changes.

``tests/data/golden_tables.json`` holds, for each of the 125 catalog entries
at bound n+6, the vacancy, sealed K1, PH, Koszul, M2 and ozone tables;
``tests/data/catalog_verify_d9.json`` is the stdout of ``wpoisson catalog
verify --max-degree 9 --format json``, which exits 0;
``tests/data/catalog_verify_default.sha256`` is the SHA-256 of the stdout of
``wpoisson catalog verify --format json``, at the default bound 3n+12;
``tests/data/catalog_list.json`` is the stdout of ``wpoisson catalog list
--format json``, with its SHA-256 in ``tests/data/catalog_list.sha256``;
and ``tests/data/cli_reports.json``
holds the stdout and exit code of every subcommand in all three formats, of
failing ``jacobi``, ``modular``, ``verify-aut`` and ``catalog verify`` runs,
and of five refusals, with the last stderr line of each run that exits 2.
Rendered ``--help`` text is left out, as its layout depends on the click
version.  Regenerate all of them, only on purpose and from a commit whose
numbers are trusted, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from wpoisson import catalog, complexes
from wpoisson.cli import main

from reference_maps import m2_dims

DATA = Path(__file__).resolve().parent / "data"
TABLES = DATA / "golden_tables.json"
VERIFY = DATA / "catalog_verify_d9.json"
VERIFY_ARGS = ["catalog", "verify", "--max-degree", "9", "--format", "json"]
VERIFY_DEFAULT_SHA = DATA / "catalog_verify_default.sha256"
VERIFY_DEFAULT_ARGS = ["catalog", "verify", "--format", "json"]
LIST = DATA / "catalog_list.json"
LIST_SHA = DATA / "catalog_list.sha256"
LIST_ARGS = ["catalog", "list", "--format", "json"]
REPORTS = DATA / "cli_reports.json"
# a catalog record whose rgt is wrong: x*y*z has rgt -2
WRONG_RGT = ("111-r-c | 1,1,1 | x*y*z | r | false | -1 | 1 | no | no | false"
             " | table=111;vacwit=0;sealwit=3")
# one input per subcommand, each run in all three formats, then the runs
# whose checked flag fails (exit 1); {wrong_rgt} stands for a file of WRONG_RGT.
# A table lists a command's own options in their declared order, however
# they are given: bracket and the first verify-aut give them out of order
_REPORTED = [
    ["bracket", "-w", "1,1,2", "-p", "z^2+x^3*y", "--g", "y", "--f", "x"],
    ["jacobi", "-w", "1,2,3", "-p", "z^2+y^3"],
    ["modular", "-w", "1,1,1", "--pxy", "z", "--pyz", "x", "--pzx", "y"],
    ["rgt", "-w", "1,1,2", "-p", "x^2*z+x*y^3"],
    ["gkdim", "-w", "1,1,1", "-p", "x*y*z"],
    ["singularity", "--field", "s^2+s+1", "-w", "1,1,1", "-p", "(x+s*y)^2*z"],
    ["cohomology", "-w", "1,1,1", "-p", "x^3+y^3+z^3+x*y*z", "-D", "4"],
    ["koszul", "-w", "1,1,2", "-p", "z^2+x^3*y", "-D", "5"],
    ["sealed", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "-D", "5"],
    ["vacancy", "-w", "1,2,2", "-p", "x*y*z", "-D", "6"],
    ["ozone", "-w", "1,2,3", "-p", "z^2+y^3", "-D", "6"],
    ["verify-aut", "-w", "1,1,2", "-p", "x^4+y^4+z^2+x*y*z", "--field", "s^2+1",
     "--xi", "1", "--inverse", "x->s*y; y->-s*x; z->-z-x*y",
     "--map", "x->s*y; y->-s*x; z->-z-x*y"],
    ["catalog", "verify", "--filter", "111-i-c1", "--max-degree", "5"],
    ["catalog", "list", "--filter", "type:nw"],
    ["selftest", "--cases", "2"],
    ["jacobi", "-w", "1,1,1", "--pxy", "x", "--pyz", "y", "--pzx", "z"],
    ["modular", "-w", "1,1,1", "--pxy", "x*y", "--pyz", "y*z", "--pzx", "x^2"],
    ["verify-aut", "-w", "1,1,1", "-p", "x*y*z", "--map", "x->x*y; y->y; z->z"],
    ["verify-aut", "-w", "1,2,3", "-p", "x^6+y^3+z^2+x*y*z", "--map", "x->2*x; y->4*y; z->8*z",
     "--inverse", "x->(1/2)*x; y->(1/4)*y; z->(1/8)*z", "--xi", "1"],
    ["catalog", "verify", "--catalog-file", "{wrong_rgt}", "--max-degree", "4"],
]
# refusals: an empty window, an over-budget bound, a reducible --field, a
# syntax error and a budget error
_REFUSED = [
    ["vacancy", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "-D", "-5"],
    ["koszul", "-w", "1,1,1", "-p", "x^3+y^3+z^3", "-D", "1000000000"],
    ["rgt", "-w", "1,1,1", "--field", "s^2-1", "-p", "x^3+y^3+z^3"],
    ["rgt", "-w", "1,1,1", "-p", "x^3+y^3+"],
    ["rgt", "-w", "1,1,1", "-p", "x^3+y^3+z^3+2000000*x*y*z"],
]
CLI_CASES = [args + ["--format", fmt] for args in _REPORTED
             for fmt in ("table", "json", "csv")] + _REFUSED


def entry_tables(entry):
    """the six tables of one entry at bound n+6, as JSON-ready lists"""
    om, bound = entry.omega, entry.degree + 6
    sealed, flag = complexes.sealed_k1_dims(om, bound)
    return {
        "vacancy": sorted(complexes.vacancy_check(om, bound).items()),
        "sealed_k1": [sorted(sealed.items()), flag],
        "ph": sorted([i, d, v] for (i, d), v in complexes.ph_dims(om, bound).dims.items()),
        "koszul": sorted([i, d, v] for (i, d), v in complexes.koszul_dims(om, bound).dims.items()),
        "m2": sorted(m2_dims(om, bound).items()),
        "ozone": sorted([d, oz, ham] for d, (oz, ham) in
                        complexes.ozone_vs_hamiltonian(om, bound).items()),
    }


def _normalise(tables):
    """tuples read back from JSON as lists"""
    return json.loads(json.dumps(tables))


def _stdout(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res.stdout


def _transcript(args, tmp_dir):
    """the exit code and stdout of one run, and its last stderr line when it
    exits 2"""
    wrong_rgt = Path(tmp_dir) / "wrong_rgt.txt"
    wrong_rgt.write_text(WRONG_RGT + "\n", encoding="utf-8")
    argv = [a.replace("{wrong_rgt}", str(wrong_rgt)) for a in args]
    res = CliRunner().invoke(main, argv, catch_exceptions=False)
    record = {"args": args, "exit_code": res.exit_code, "stdout": res.stdout}
    if res.exit_code == 2:
        record["stderr"] = res.stderr.splitlines()[-1]
    return record


def _golden_entries():
    return [pytest.param(e, id=e.entry_id) for e in catalog.entries()]


@pytest.fixture(scope="module")
def golden_tables():
    return json.loads(TABLES.read_text())


def test_golden_tables_cover_the_whole_catalog(golden_tables):
    assert sorted(golden_tables) == sorted(e.entry_id for e in catalog.entries())
    assert len(golden_tables) == 125


@pytest.mark.parametrize("entry", _golden_entries())
def test_catalog_tables_equal_golden(golden_tables, entry):
    assert _normalise(entry_tables(entry)) == golden_tables[entry.entry_id]


def test_catalog_verify_json_equals_golden():
    assert _stdout(VERIFY_ARGS) == VERIFY.read_text()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_catalog_verify_json_at_the_default_bound_hashes_to_golden():
    assert _sha256(_stdout(VERIFY_DEFAULT_ARGS)) == VERIFY_DEFAULT_SHA.read_text().strip()


def test_catalog_list_json_equals_golden():
    assert _stdout(LIST_ARGS) == LIST.read_text()
    assert hashlib.sha256(LIST.read_bytes()).hexdigest() == LIST_SHA.read_text().strip()


@pytest.fixture(scope="module")
def golden_reports():
    return json.loads(REPORTS.read_text())


def test_golden_reports_cover_the_cases(golden_reports):
    assert [r["args"] for r in golden_reports] == CLI_CASES
    assert {r["exit_code"] for r in golden_reports} == {0, 1, 2}


@pytest.mark.parametrize("index", range(len(CLI_CASES)),
                         ids=["-".join(a[:2] if a[0] == "catalog" else a[:1]) + "-%d" % i
                              for i, a in enumerate(CLI_CASES)])
def test_cli_report_equals_golden(golden_reports, tmp_path, index):
    assert _transcript(CLI_CASES[index], tmp_path) == golden_reports[index]


@pytest.mark.parametrize("checks", ["sealed", "vacancy,sealed", "rgt,sealed",
                                    "rgt,vacancy,sealed,cohomology"])
def test_catalog_verify_rows_keep_the_report_order(checks):
    """verify_entry computes the sealed table before rgt, vacancy and
    cohomology, and still reports its rows in the order of the full report"""
    res = CliRunner().invoke(main, VERIFY_ARGS + ["--checks", checks], catch_exceptions=False)
    assert res.exit_code == 0, res.output
    want = set(checks.split(","))
    golden = json.loads(VERIFY.read_text())["results"]["rows"]
    rows = json.loads(res.stdout)["results"]["rows"]
    assert rows == [row for row in golden if row["check"] in want]
    assert {row["check"] for row in rows} == want


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    tables = {e.entry_id: entry_tables(e) for e in catalog.entries()}
    # one entry per line, so a changed table shows as a changed line
    TABLES.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(eid), json.dumps(tables[eid])) for eid in sorted(tables)))
    VERIFY.write_text(_stdout(VERIFY_ARGS))
    VERIFY_DEFAULT_SHA.write_text(_sha256(_stdout(VERIFY_DEFAULT_ARGS)) + "\n")
    LIST.write_text(_stdout(LIST_ARGS))
    LIST_SHA.write_text(hashlib.sha256(LIST.read_bytes()).hexdigest() + "\n")
    with tempfile.TemporaryDirectory() as tmp_dir:
        reports = [_transcript(args, tmp_dir) for args in CLI_CASES]
    # one run per line
    REPORTS.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in reports))
