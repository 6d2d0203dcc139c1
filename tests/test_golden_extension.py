"""Golden data over Q(s): the extension-field path must give the same
tables, derivation bases and gcds, byte for byte, across refactors and
performance changes.

``tests/data/golden_extension.json`` holds, for the two families of the
extension benchmark, x^3+y^3+z^3+l*x*y*z on (1,1,1) over Q[s]/(s^2+s+1)
and x^4+y^4+z^2+l*x*y*z on (1,1,2) over Q[s]/(s^2+1), each at a rational,
a non-rational and a singular member: ``ph_dims`` to 4, ``koszul_dims`` to
8 and the formatted ``graded_derivation_space`` bases in degrees 0 to 3;
and per field ``gcd_partials((x+s*y)^2*z)``.  No l in Q(i) makes the
quartic singular (that needs l^4 = 64), so its singular member is
(x^2+y^2)^2+z^2, singular along x^2+y^2 = z = 0.  Regenerate, only on
purpose and from a commit whose numbers are trusted, with

    PYTHONPATH=src python tests/test_golden_extension.py
"""

import json
from pathlib import Path

import pytest

from wpoisson import (ExtensionField, Weights, complexes, format_poly, from_potential,
                      gcd_partials, graded_derivation_space, parse_poly)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_extension.json"

# name -> (weights, modulus, potentials by member)
FAMILIES = {
    "cubic": ((1, 1, 1), [1, 1, 1], {
        "rational": "x^3+y^3+z^3+3/2*x*y*z",
        "non-rational": "x^3+y^3+z^3+(1+2*s)*x*y*z",
        "singular": "x^3+y^3+z^3-3*s*x*y*z",
    }),
    "quartic": ((1, 1, 2), [1, 0, 1], {
        "rational": "x^4+y^4+z^2-2*x*y*z",
        "non-rational": "x^4+y^4+z^2+(1-2*s)*x*y*z",
        "singular": "x^4+2*x^2*y^2+y^4+z^2",
    }),
}


def member_data(weights, field, text):
    """the tables and derivation bases of one member, as JSON-ready lists"""
    om = parse_poly(text, weights, field)
    s = from_potential(om)
    return {
        "ph": sorted([i, d, v] for (i, d), v in complexes.ph_dims(om, 4).dims.items()),
        "koszul": sorted([i, d, v] for (i, d), v in complexes.koszul_dims(om, 8).dims.items()),
        "derivations": {str(d): [[format_poly(c) for c in v.comps]
                                 for v in graded_derivation_space(s, d)] for d in range(4)},
    }


def family_data(name):
    w, modulus, members = FAMILIES[name]
    weights, field = Weights(*w), ExtensionField(modulus)
    data = {member: member_data(weights, field, text) for member, text in members.items()}
    data["gcd_partials"] = format_poly(gcd_partials(parse_poly("(x+s*y)^2*z", weights, field)))
    return data


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_both_families(golden):
    assert sorted(golden) == sorted(FAMILIES)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extension_data_equals_golden(golden, name):
    assert json.loads(json.dumps(family_data(name))) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one family per line, so a changed family shows as a changed line
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(name), json.dumps(family_data(name))) for name in sorted(FAMILIES)))
