"""Golden tables: every truncated invariant of the catalog, and the JSON
report of ``catalog verify``, must stay byte-identical across refactors and
performance changes.

``tests/data/golden_tables.json`` holds, for each of the 125 catalog entries
at bound n+6, the vacancy, sealed K1, PH, Koszul, M2 and ozone tables;
``tests/data/catalog_verify_d9.json`` is the stdout of ``wpoisson catalog
verify --max-degree 9 --format json``, which exits 0; and
``tests/data/catalog_list.json`` is the stdout of ``wpoisson catalog list
--format json``, whose SHA-256 CI also checks against
``tests/data/catalog_list.sha256``.  Regenerate all of them, only on purpose
and from a commit whose numbers are trusted, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
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
LIST = DATA / "catalog_list.json"
LIST_SHA = DATA / "catalog_list.sha256"
LIST_ARGS = ["catalog", "list", "--format", "json"]


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


def test_catalog_list_json_equals_golden():
    assert _stdout(LIST_ARGS) == LIST.read_text()
    assert hashlib.sha256(LIST.read_bytes()).hexdigest() == LIST_SHA.read_text().strip()


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
    LIST.write_text(_stdout(LIST_ARGS))
    LIST_SHA.write_text(hashlib.sha256(LIST.read_bytes()).hexdigest() + "\n")
